"""The package's public names: exactly these, each importable, and no other.

Each criterion quantity has one public path: pairwise cosines are the
entries of ``build_e_matrix``, and the leading minors and the angle sum
are fields of ``evaluate_criterion``'s report.  The names below are
that surface; a name added or removed must be added or removed here.
"""

import importlib
import inspect

import pytest

import sumspaces

PUBLIC = [
    "AllZeroInput",
    "ConvergenceReport",
    "ConvergenceStep",
    "CounterexampleSpec",
    "CounterexampleVerification",
    "CriterionNotSatisfied",
    "CriterionReport",
    "DimensionMismatch",
    "EMatrix",
    "InconsistencyError",
    "NotBoundary",
    "NotPositiveDefinite",
    "NumericalError",
    "Subspace",
    "SubspaceFamily",
    "SumspacesError",
    "VerificationFailed",
    "__version__",
    "build_counterexample",
    "build_e_matrix",
    "convergence_report",
    "evaluate_criterion",
    "geometric_alphas",
    "gram_vectors",
    "linear_independence_check",
    "orthonormalize",
    "orthonormalize_all",
    "principal_eigenvector",
    "spectral_radius",
    "sum_operator",
    "verify_counterexample",
]

# the modules whose public functions and classes are all in the list
EXPORTING = ["sumspaces.subspaces", "sumspaces.criterion", "sumspaces.errors"]


def test_all_lists_the_public_names():
    assert sorted(sumspaces.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_resolves(name):
    assert getattr(sumspaces, name) is not None


def test_package_exposes_no_other_name():
    # submodules aside, a name that imports from the package is in the list
    exposed = {
        name for name, value in vars(sumspaces).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(exposed | {"__version__"}) == PUBLIC


@pytest.mark.parametrize("module", EXPORTING)
def test_module_defines_no_other_function_or_class(module):
    mod = importlib.import_module(module)
    defined = {
        name for name, value in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module
    }
    assert defined <= set(PUBLIC)
