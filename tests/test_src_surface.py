"""Every public function and method in src/tdlab has a caller in src/tdlab,
every dataclass field is read there, and every function reads each of its
parameters.

The scan is by name: a function counts as used when its name appears as a
Name, an Attribute or an imported name anywhere in the package's code, and a
method only when its name appears as an Attribute, so a local variable of the
same name does not hide an unused method.  A field counts as read only when
its name appears as an Attribute in Load context outside the arguments of a
call to its own class, so a field that is only assigned, or only copied into
a new instance, is flagged.  A parameter other than self and cls counts as
read when its name appears as a Name in its function's body.  A name that
a module-level import binds counts as read when it appears as a Name in Load
context in its module; `__init__.py` is exempt, as its imports are the
package's re-exports.  What only tests need lives in tests/ (oracles.py or
the one test file that uses it).
The allowlist names the few entry points kept for callers outside the
package, each with its reason.
"""

import ast
from pathlib import Path

import tdlab

SRC = Path(tdlab.__file__).resolve().parent

ALLOWED = {
    "matrices.Matrix.from_ints": "perfbench/test_perfbench.py builds its traced matrices with it",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, (kind, bare name)) of each module-level function and
    method; kind is "function" or "method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            yield f"{module}.{node.name}", ("function", node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", ("method", item.name)


def _references(tree: ast.Module):
    """(kind, name) pairs: every reference can reach a function, only an
    Attribute can reach a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "function", node.id
        elif isinstance(node, ast.Attribute):
            yield "function", node.attr
            yield "method", node.attr
        elif isinstance(node, ast.alias):
            yield "function", node.name


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _fields(module: str, tree: ast.Module):
    """(qualified name, (class name, bare name)) of each field of a
    module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{module}.{node.name}.{item.target.id}", (node.name, item.target.id)


def _reads(node, calls=frozenset()):
    """(attribute name, calls) for each Attribute in Load context under node;
    calls names the called classes or functions whose arguments hold it."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, calls
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        for child in (*node.args, *node.keywords):
            yield from _reads(child, calls | {node.func.id})
        return
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, calls)


def _unread_parameters(module: str, tree: ast.Module):
    """(function, parameter) for each parameter, other than self and cls,
    whose name its function's body never uses."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            named = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            for param in params:
                if param and param.arg not in named and param.arg not in ("self", "cls"):
                    yield f"{module}.{node.name}", param.arg


def _unread_imports(tree: ast.Module):
    """Each name bound by a module-level import (other than from __future__)
    that its module never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    yield name


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _field_scan():
    fields, reads = {}, []
    for module, tree in _trees():
        fields.update(_fields(module, tree))
        reads.extend(_reads(tree))
    return fields, reads


def _scan():
    defined, used = {}, set()
    for module, tree in _trees():
        defined.update(_definitions(module, tree))
        used.update(_references(tree))
    return defined, used


def test_every_public_definition_has_a_caller_in_src():
    defined, used = _scan()
    unused = sorted(q for q, name in defined.items() if name not in used and q not in ALLOWED)
    assert unused == [], f"public definitions that nothing in src/tdlab calls: {unused}"


def test_allowlist_entries_exist_and_need_the_exemption():
    defined, used = _scan()
    for qualified in ALLOWED:
        assert qualified in defined, f"{qualified} is allowlisted but no longer defined"
        assert defined[qualified] not in used, f"{qualified} now has a caller in src; drop it from ALLOWED"


def test_every_dataclass_field_is_read_in_src():
    fields, reads = _field_scan()
    unread = sorted(
        q
        for q, (owner, name) in fields.items()
        if not any(attr == name and owner not in calls for attr, calls in reads)
    )
    assert unread == [], f"dataclass fields that nothing in src/tdlab reads: {unread}"


def test_every_parameter_is_read_by_its_function():
    unread = sorted(p for module, tree in _trees() for p in _unread_parameters(module, tree))
    assert unread == [], f"parameters that their function never reads: {unread}"


def test_every_module_level_import_is_read_in_its_module():
    unread = sorted(
        f"{module}.{name}" for module, tree in _trees() if module != "__init__" for name in _unread_imports(tree)
    )
    assert unread == [], f"module-level imports that nothing in their module reads: {unread}"
