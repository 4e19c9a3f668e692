"""The package runs under the benchmark's tracer and comes back unchanged.

``perfbench/tracing.py`` imports the package's modules by name, wraps
their functions in place for one command and puts the originals back.  A
package change that breaks those imports, such as deleting a module the
tracer lists, would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

from sumspaces import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def callables(modnames):
    """{(module name, attribute): object} of every callable they hold."""
    return {
        (modname, attr): value
        for modname in modnames
        for attr, value in vars(importlib.import_module(modname)).items()
        if callable(value)
    }


def test_traced_project_runs_and_restores_every_attribute(tmp_path):
    tracing = load_tracing()
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"ambient_dim": 2, "subspaces": [
        {"name": "X1", "vectors": [[1.0, 0.0]]},
        {"name": "X2", "vectors": [[0.5, 0.8660254037844386]]},
    ]}))
    report = tmp_path / "report.json"
    before = callables(tracing.NAMESPACES)

    tracer = tracing.Tracer()
    tracer.install(0)
    start = time.perf_counter()
    try:
        code = cli.main(
            ["project", str(family), "--n-max", "3", "--report", str(report)]
        )
    finally:
        tracer.uninstall(time.perf_counter() - start)

    assert code == 0
    assert len(json.loads(report.read_text())["convergence"]) == 3
    traced = {name for *_, name, _, _ in tracer.spans}
    assert {"cli.main", "iteration.convergence_report"} <= traced
    after = callables(tracing.NAMESPACES)
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())
