"""The table core reads only tables.

After the build, ``wide``, ``emap`` and ``sequences`` answer every question
from the hom, Ext and tau tables of the universe.  This pins it at the
import level: none of the three imports module-level code, at the top of
the file or inside a function.  The universe keeps the stop test's state
by catalogue position, so it calls no ``id()``.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tauseq")
MODULE_LEVEL = {"modules", "linalg", "decompose", "ar", "transport"}


def _imported_modules(path):
    """The tauseq submodules a source file imports, by any import form."""
    out = set()
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "tauseq":
                out.update(a.name for a in node.names)
            elif node.module.startswith("tauseq."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("tauseq."))
    return out


@pytest.mark.parametrize("name", ["wide", "emap", "sequences"])
def test_table_core_imports_no_module_code(name):
    imported = _imported_modules(os.path.join(SRC, name + ".py"))
    assert not imported & MODULE_LEVEL, sorted(imported & MODULE_LEVEL)


def test_the_universe_keys_nothing_by_object_identity():
    with open(os.path.join(SRC, "universe.py")) as fh:
        tree = ast.parse(fh.read())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []
