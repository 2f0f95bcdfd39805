"""Every name a guardpool module imports is used, or marked as re-exported,
every memo it keeps is bounded, every config field it accepts is read, and
every private name it defines (module-level, a method, or an attribute
stored on self) is loaded in that module."""

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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def unloaded_private_names(source, name="<source>"):
    """Private names the module never loads outside their own definition.

    Module-level _private functions, classes and constants must be loaded
    as names; a class's _private methods, and the _private attributes its
    methods store on self, must be loaded as attributes (on any object).
    """
    tree = ast.parse(source)
    defined = {}  # name -> (first line, ids of the nodes defining it)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for private in names:
            if _private(private):
                line, inside = defined.get(private, (stmt.lineno, set()))
                inside.update(id(node) for node in ast.walk(stmt))
                defined[private] = (line, inside)
    loaded, attr_loaded = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.setdefault(node.id, []).append(id(node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attr_loaded.setdefault(node.attr, []).append(id(node))
    unused = [f"{name}:{line}: {private}" for private, (line, inside) in defined.items()
              if all(node in inside for node in loaded.get(private, []))]
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(stmt.name):
                inside = {id(node) for node in ast.walk(stmt)}
                if all(node in inside for node in attr_loaded.get(stmt.name, [])):
                    unused.append(f"{name}:{stmt.lineno}: {cls.name}.{stmt.name}")
        stored = {}  # attribute -> first line storing it on self
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and _private(node.attr)):
                stored.setdefault(node.attr, node.lineno)
        unused += [f"{name}:{line}: {cls.name}.{attr}"
                   for attr, line in stored.items() if attr not in attr_loaded]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    assert unloaded_private_names(path.read_text(), path.name) == []


PRIVATE_CASES = {
    "called": ("def _f(): pass\ndef g(): return _f()", []),
    "uncalled": ("def _f(): pass\ndef g(): pass", ["_f"]),
    "recursion-only": ("def _f(n): return _f(n - 1)", ["_f"]),
    "class-as-base": ("class _Base: pass\nclass Child(_Base): pass", []),
    "unused-class": ("class _Cursor:\n    def peek(self): pass", ["_Cursor"]),
    "constant-read": ("_N = 4\ndef g(): return _N", []),
    "constant-unread": ("_N = 4\n_M: int = 5\ndef g(): return 0", ["_N", "_M"]),
    "stored-twice": ("_N = 4\n_N = 5", ["_N"]),
    "annotation": ("class _T: pass\ndef g(x: _T): pass", []),
    "public-and-dunder": ("def f(): pass\n__all__ = ['f']", []),
    "method-not-module-level": ("class C:\n    def _m(self): pass\nC()._m()", []),
    "method-called-on-self": ("class C:\n    def _m(self): pass\n    def f(self): self._m()",
                              []),
    "method-uncalled": ("class C:\n    def _m(self): pass\n    def f(self): pass", ["C._m"]),
    "method-recursion-only": ("class C:\n    def _m(self): return self._m()", ["C._m"]),
    "method-public-and-dunder": ("class C:\n    def m(self): pass\n    def __m(self): pass",
                                 []),
    "attribute-read": ("class C:\n    def __init__(self): self._x = 1\n"
                       "    def f(self): return self._x", []),
    "attribute-read-elsewhere": ("class C:\n    def __init__(self): self._x = 1\n"
                                 "def f(c): return c._x", []),
    "attribute-stored-only": ("class C:\n    def __init__(self): self._x = self._y = 1\n"
                              "    def f(self): self._x = 2\n"
                              "    def g(self): return self._y", ["C._x"]),
    "attribute-only-incremented": ("class C:\n    def __init__(self): self._n = 0\n"
                                   "    def f(self): self._n += 1", ["C._n"]),
    "attribute-unpacked": ("class C:\n    def __init__(self): self._a, self.b = 1, 2", ["C._a"]),
}


@pytest.mark.parametrize("case", PRIVATE_CASES)
def test_private_name_check_tells_used_from_unused(case):
    source, unused = PRIVATE_CASES[case]
    assert [entry.rsplit(" ", 1)[1] for entry in unloaded_private_names(source)] == unused


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


def unread_config_fields(sources):
    """GuardianConfig fields that no code outside the class reads.

    A read is an attribute load on a name bound to the config (cfg or
    config) or on an attribute named config (self.config); validate()
    and the class's other methods do not count, since a field that is
    only checked is still ignored.
    """
    fields, reads = [], set()
    for source in sources:
        tree = ast.parse(source)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "GuardianConfig":
                fields += [stmt.target.id for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)]
                inside.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in inside
                    and (isinstance(node.value, ast.Name) and node.value.id in ("cfg", "config")
                         or isinstance(node.value, ast.Attribute)
                         and node.value.attr == "config")):
                reads.add(node.attr)
    return [name for name in fields if name not in reads]


# The only fields nothing reads; each leaves with the benchmark-only change.
UNREAD_CONFIG_FIELDS = [
    "quarantine_min_slots",  # perfbench still passes it (ROADMAP item 1)
    "metadata_capacity",  # perfbench still passes it (ROADMAP item 1)
]


def test_every_config_field_is_read():
    sources = [path.read_text() for path in MODULES]
    assert unread_config_fields(sources) == UNREAD_CONFIG_FIELDS


def test_config_check_ignores_reads_inside_the_class():
    source = (
        "class GuardianConfig:\n"
        "    used: int = 1\n"
        "    checked: int = 2\n"
        "    def validate(self):\n"
        "        return self.checked and self.used\n"
        "def build(cfg):\n"
        "    return cfg.used\n"
    )
    assert unread_config_fields([source]) == ["checked"]
