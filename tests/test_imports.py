"""Every name a guardpool module imports is used, or marked as re-exported,
and every memo it keeps is bounded."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guardpool"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def unbounded_memos(source, name="<source>"):
    """Uses of functools.cache, or of lru_cache without an integer maxsize.

    A maxsize may be an int literal or a module-level name bound to one.
    """
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        for target in node.targets if isinstance(target, ast.Name)
    }
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            functions.update((a.asname or a.name, a.name) for a in node.names)
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            memo = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            memo = functions.get(node.id)
        else:
            continue
        if memo not in ("cache", "lru_cache"):
            continue
        call = called.get(id(node))
        if memo == "lru_cache" and call is not None:
            sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            if sizes:
                size = sizes[0]
                value = (size.value if isinstance(size, ast.Constant)
                         else constants.get(size.id) if isinstance(size, ast.Name) else None)
                if type(value) is int and value > 0:
                    continue
        found.append(f"{name}:{node.lineno}: {memo}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_memo_is_bounded(path):
    assert unbounded_memos(path.read_text(), path.name) == []


MEMO_CASES = {
    "literal": ("import functools\n@functools.lru_cache(maxsize=256)\ndef f(x): pass", True),
    "module-constant": ("import functools\nN = 64\n@functools.lru_cache(N)\ndef f(x): pass",
                        True),
    "from-import": ("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x): pass",
                    True),
    "cache": ("import functools\n@functools.cache\ndef f(x): pass", False),
    "cache-alias": ("from functools import cache as memo\n@memo\ndef f(x): pass", False),
    "bare-lru": ("import functools\n@functools.lru_cache\ndef f(x): pass", False),
    "no-maxsize": ("import functools\n@functools.lru_cache()\ndef f(x): pass", False),
    "maxsize-none": ("import functools as ft\n@ft.lru_cache(maxsize=None)\ndef f(x): pass",
                     False),
    "constant-none": ("import functools\nN = None\n@functools.lru_cache(N)\ndef f(x): pass",
                      False),
    "maxsize-bool": ("import functools\ng = functools.lru_cache(maxsize=True)(len)", False),
}


@pytest.mark.parametrize("case", MEMO_CASES)
def test_memo_check_tells_bounded_from_unbounded(case):
    source, bounded = MEMO_CASES[case]
    assert (unbounded_memos(source) == []) is bounded


def test_modules_are_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_every_export_resolves_once():
    import guardpool

    assert len(guardpool.__all__) == len(set(guardpool.__all__)), "an export is listed twice"
    missing = [name for name in guardpool.__all__ if not hasattr(guardpool, name)]
    assert missing == []
