"""Every name a ``src/prodimm`` module imports is used in that module.

A stand-in for a linter's unused-import rule, built on ``ast`` alone.  A name
counts as used when the module reads it, names it in a quoted annotation, or
lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "prodimm"


def _quoted_names(tree) -> set:
    """Names inside string annotations and ``__all__`` entries."""
    holders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            holders += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg] if a is not None]
            holders.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            holders.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            holders.append(node.value)
    names = set()
    for holder in filter(None, holders):
        for const in ast.walk(holder):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                names |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _quoted_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("import os\nfrom numpy import eye, zeros as z\n"
              "__all__ = ['eye']\ndef f(a: 'z') -> None:\n    '''os'''\n")
    assert unused_imports(source) == ["os (line 1)"]
