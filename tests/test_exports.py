import ast
import importlib
import os
import pkgutil

import pytest

import conceptrank
from conceptrank import pipeline


def _modules_with_all():
    modules = [conceptrank] + [
        importlib.import_module(f"conceptrank.{info.name}")
        for info in pkgutil.iter_modules(conceptrank.__path__)
    ]
    return [m for m in modules if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", _modules_with_all(), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_query_steps_are_the_ones_the_pipeline_runs():
    for name in ("concept_relevance", "weak_labels", "partition_pseudo"):
        assert getattr(conceptrank, name) is getattr(pipeline, name), name


# names the benchmark's tracer lists that no longer exist in the package
ABSENT_TRACED = {
    "conceptrank._kernels.project_rows_nonneg_l1",
    "conceptrank._kernels.colmax_ball_project",
    "conceptrank._kernels.push_hinge_means",
}


def _traced_names():
    """(module, attribute) of every entry of ``WRAPS`` in perfbench/traced.py,
    read from the file's syntax tree without running it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "traced.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/traced.py has no WRAPS")


def test_every_traced_name_resolves():
    wraps = _traced_names()
    absent = {
        f"{module}.{attr}"
        for module, attr in wraps
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert absent == ABSENT_TRACED


def _syntax_tree(module_name):
    path = os.path.join(os.path.dirname(conceptrank.__file__), f"{module_name}.py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_weight_step_stays_behind_its_module():
    # the weight step never reaches back into the model, and the model
    # holds no factorization: every factor is made in ``weightstep``
    for node in ast.walk(_syntax_tree("weightstep")):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
            assert not any(name.endswith("composer") for name in names), ast.dump(node)
        if isinstance(node, ast.Import):
            assert not any(a.name.endswith("composer") for a in node.names), ast.dump(node)
    for node in ast.walk(_syntax_tree("composer")):
        assert not (isinstance(node, ast.Name) and node.id == "_cholesky_inverse")
        assert not (isinstance(node, ast.alias) and node.name == "_cholesky_inverse")
        assert not (isinstance(node, ast.Attribute) and node.attr == "linalg"), ast.dump(node)
