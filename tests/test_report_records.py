"""A report's sections are its result records, written field by field.

orjson writes a dataclass as its fields in declaration order, and the CLI
hands it the records themselves: the ``criterion`` section is the
``CriterionReport`` and the ``convergence`` section the
``ConvergenceStep``s, key for key and in the same order.
"""

import dataclasses
import json

import numpy as np

from sumspaces import CriterionReport, convergence_report, io
from sumspaces.cli import main


def as_json(value):
    """``value`` as JSON reads it back: tuples become lists, floats stay exact."""
    return json.loads(json.dumps(value))


def test_project_report_sections_are_the_records(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"ambient_dim": 3, "subspaces": [
        {"name": "X1", "vectors": [[1.0, 0.0, 0.0]]},
        {"name": "X2", "vectors": [[0.5, np.sqrt(3) / 2, 0.0]]},
        {"name": "X3", "vectors": [[0.0, 0.6, 0.8]]},
    ]}))
    out = tmp_path / "report.json"
    assert main(["project", str(family), "--n-max", "4", "--report", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = convergence_report(io.load_family(family)[0], 4)

    assert list(doc["criterion"]) == [f.name for f in dataclasses.fields(CriterionReport)]
    assert doc["criterion"] == as_json(dataclasses.asdict(report.criterion))
    assert doc["convergence"] == as_json([dataclasses.asdict(s) for s in report.steps])
