"""Each module's `__all__` names only what the module defines, each name once,
and every name the package exports serves a command or an acceptance test."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import shocklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(shocklab.__path__, "shocklab."))
PACKAGE = Path(shocklab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# exported names that no other module of the package and no acceptance test
# refers to, and why each one stays
UNREFERENCED = {
    "read_snapshot": "the reader of the files that simulate and stability write",
    "oleinik_admissible": "the one-direction chord test; both cones test their "
                          "directions in batches, and the benchmark's tracer counts it by name",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


def _module_aliases(tree):
    """The names a file binds to shocklab itself or to one of its modules
    (`import shocklab as sl`, `from . import experiments as xp`)."""
    modules = {m.rsplit(".", 1)[1] for m in MODULES}
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "shocklab")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "shocklab"):
            aliases.update(a.asname or a.name for a in node.names if a.name in modules)
    return aliases


def _references(path):
    """The names that the code of a file loads: names, and attributes of its
    aliases of shocklab modules (`sl.Flux`, `xp.settle`).  A stored name (a
    dataclass field), an attribute of any other object (`scheme.numerical_flux`),
    a docstring and a comment do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _module_aliases(tree)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            refs.add(node.attr)
    return refs


def test_every_exported_name_is_used():
    exported = [alias.asname or alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set().union(_references(ACCEPTANCE), *(
        _references(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
    assert sorted(n for n in exported if n not in used) == sorted(UNREFERENCED)
