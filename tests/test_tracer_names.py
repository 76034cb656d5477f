"""The benchmark's tracer patches package attributes by name, and tier-1
runs only ``tests/``: installing it here fails as soon as one of those names
is renamed or deleted, and uninstalling it must restore every one."""

import ast
import importlib
import importlib.util
import inspect
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


def test_no_module_imports_a_tensor_function_by_name():
    # The tracer replaces ``core.tensor.<name>``; a function that a module
    # imported by name keeps the unwrapped original and goes unrecorded.
    # Classes such as Tensor and ShapeError are not patched.
    src = Path(__file__).resolve().parents[1] / "src"
    imported = []
    for path in sorted(src.rglob("*.py")):
        package = ".".join(path.relative_to(src).parent.parts)   # of relative imports
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = importlib.import_module(importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), package))
                imported += [(path.name, alias.name) for alias in node.names
                             if inspect.isfunction(getattr(module, alias.name, None))
                             and getattr(module, alias.name).__module__
                             == "physiobench.core.tensor"]
    assert imported == []
