"""The README's Library example runs and its stated values hold.

The example's comments state each value with the tolerance it holds to,
and name the roundoff seen on one platform as an illustration.  Each
check below quotes the comment it backs and checks the value at the
stated tolerance, so the example and its claims cannot drift apart
unnoticed.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """Source of the first ```python block of the README."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no python example"
    return blocks[0]


@pytest.fixture(scope="module")
def example():
    source = library_example()
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    return source, namespace


def test_criterion_report(example):
    source, ns = example
    assert "# CriterionReport(spectral_radius=0.5, satisfied=True, ...)" in source
    assert ns["report"].spectral_radius == 0.5
    assert ns["report"].satisfied


def test_convergence_report(example):
    source, ns = example
    conv = ns["conv"]
    assert "conv.criterion is the CriterionReport above; conv.r == 0.5" in source
    assert conv.criterion == ns["report"]
    assert conv.r == 0.5

    stated = "conv.steps[k].error == 0.5 ** (k+1) to 1e-14 relative"
    assert stated in " ".join(source.replace("#", " ").split())
    assert len(conv.steps) == 10
    for k, step in enumerate(conv.steps):
        assert step.error == pytest.approx(0.5 ** (k + 1), rel=1e-14, abs=0.0)

    assert "conv.frame_lower == 0.5 to 1e-15" in source
    assert conv.frame_lower == pytest.approx(0.5, rel=0.0, abs=1e-15)

    assert "conv.frame_upper == 1.5" in source
    assert conv.frame_upper == 1.5


def test_counterexample_degeneration(example):
    source, ns = example
    assert "# == 2**-20 to 1e-13 relative" in source
    sigma_min_sq = ns["ss"].verify_counterexample(ns["witness"], ns["spec"]).sigma_min_sq
    assert sigma_min_sq == pytest.approx(2.0**-20, rel=1e-13, abs=0.0)
