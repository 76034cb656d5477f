"""The benchmark's tracer patches package attributes by name, and tier-1
runs only ``tests/``: installing it here fails as soon as one of those names
is renamed or deleted, and uninstalling it must restore every one."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_every_name_it_patches_and_restores_them():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        installed = [vars(owner)[attr] for owner, attr, _ in patched]
    finally:
        tracer.uninstall()
    assert len(patched) > len(tracing.TENSOR_FUNCTIONS)
    for (owner, attr, old), new in zip(patched, installed):
        assert new is not old
        assert vars(owner).get(attr, tracing._MISSING) is old, (owner, attr)
        assert not getattr(getattr(owner, attr), "traced", False), (owner, attr)
