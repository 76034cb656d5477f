"""A gradient is None until backward hands a tensor its first one, and a
handed-over array may be shared with nothing but its owner: so no code in
``src/`` writes into a ``.grad`` array in place except
``Tensor._accumulate``, which first checks for None.  And every one-input
op is recorded through ``_unary``, which states what it may hand over,
except the two that hand views through ``_accumulate``.  And only the two
block helpers, ``_rowwise`` and ``_sum_partials``, run ``_over_batch``, so
no op cuts its batch rows by a rule of its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {("core/tensor.py", "Tensor._accumulate")}


def _is_grad(node) -> bool:
    """``x.grad`` or a subscript of it (``x.grad[...]``, ``x.grad[i][j]``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "grad"


def _in_place_grad_writes(tree: ast.AST) -> list[tuple[str, int]]:
    """``(qualified function name, line)`` of every in-place write into a
    ``.grad`` array: ``x.grad[...] = v``, ``x.grad op= v``,
    ``f(..., out=x.grad)`` and ``_rowwise(fn, shape, ..., x.grad, ...)``,
    whose ``fn`` may write any block it is given.  Rebinding ``x.grad = v``
    is not one."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        writes = False
        if isinstance(node, ast.AugAssign):
            writes = _is_grad(node.target)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            writes = any(isinstance(t, ast.Subscript) and _is_grad(t) for t in targets)
        elif isinstance(node, ast.Call):
            writes = any(k.arg == "out" and _is_grad(k.value) for k in node.keywords)
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            writes |= name == "_rowwise" and any(_is_grad(a) for a in node.args)
        if writes:
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_guard_sees_each_form_of_in_place_write():
    code = """
class Tensor:
    def _accumulate(self, g):
        self.grad += g

def step(p, q, r, s):
    p.grad[...] = 0.0
    q.grad *= 2
    r.grad[0][1] -= 1
    np.multiply(s.grad, 2, out=s.grad)
    T._rowwise(fn, p.shape, p.grad)
    p.grad = None
    _rowwise(fn, p.shape, p.data)
"""
    assert _in_place_grad_writes(ast.parse(code)) == [
        ("Tensor._accumulate", 4), ("step", 7), ("step", 8), ("step", 9), ("step", 10),
        ("step", 11)]


def test_no_module_writes_into_a_gradient_in_place():
    seen, outside = set(), []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC / "physiobench").as_posix()
        for where, line in _in_place_grad_writes(ast.parse(path.read_text())):
            if (name, where) in ALLOWED:
                seen.add((name, where))
            else:
                outside.append(f"{name}:{line} in {where}")
    assert outside == []
    assert seen == ALLOWED


ONE_INPUT_RECORDERS = {("core/tensor.py", f) for f in ("_unary", "reduce_sum", "transpose")}


def _one_input_records(tree: ast.AST) -> list[tuple[str, int]]:
    """``(qualified function name, line)`` of every ``x._record((p,), ...)``
    call, whose parents are a one-element tuple."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_record" and node.args
                and isinstance(node.args[0], ast.Tuple) and len(node.args[0].elts) == 1):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_recorder_guard_sees_only_one_input_records():
    code = """
def one(a):
    return out._record((a,), "one", backward)

def pair(a, b):
    def inner():
        return out._record((a,), "inner", backward)
    return out._record((a, b), "pair", backward)
"""
    assert _one_input_records(ast.parse(code)) == [("one", 3), ("pair.inner", 7)]


def test_one_input_ops_record_only_through_unary():
    seen = {(path.relative_to(SRC / "physiobench").as_posix(), where)
            for path in sorted(SRC.rglob("*.py"))
            for where, _ in _one_input_records(ast.parse(path.read_text()))}
    assert seen == ONE_INPUT_RECORDERS


BLOCK_CUTTERS = {("core/tensor.py", f) for f in ("_rowwise", "_sum_partials")}


def _calls_of(tree: ast.AST, callee: str) -> list[tuple[str, int]]:
    """``(qualified function name, line)`` of every call of ``callee``, by
    bare name or as an attribute (``T._over_batch(...)``)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == callee):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_block_guard_sees_every_call_of_over_batch():
    code = """
def _rowwise(fn, shape):
    _over_batch(lambda rows: fn(rows), blocks)

def op(x):
    def rows_of(rows):
        return T._over_batch(fn, blocks)
    return over_batch(x)
"""
    assert _calls_of(ast.parse(code), "_over_batch") == [("_rowwise", 3), ("op.rows_of", 7)]


def test_only_the_block_helpers_run_over_batch():
    seen = {(path.relative_to(SRC / "physiobench").as_posix(), where)
            for path in sorted(SRC.rglob("*.py"))
            for where, _ in _calls_of(ast.parse(path.read_text()), "_over_batch")}
    assert seen == BLOCK_CUTTERS
