"""The benchmark's per-layer timers hook package attributes by name.

perfbench/tracer.py wraps each attribute it lists; one that a refactor
renames or removes reads null in every per-layer metric that needs it.
This guard loads the tracer read-only and resolves every hook, so the
failure shows in the module tests as well.
"""
import importlib
import importlib.util
import pathlib

import pytest

_TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_T = _tracer()


@pytest.mark.parametrize("span, hook", sorted(
    {**_T.HOOKS, "pool": _T.POOL_HOOK, "guard": _T.GUARD_ERROR}.items()))
def test_benchmark_hook_resolves(span, hook):
    module, attr = hook
    assert hasattr(importlib.import_module(module), attr), f"{span}: {module}.{attr} is gone"
