import importlib
import pkgutil

import pytest

import conceptrank


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
