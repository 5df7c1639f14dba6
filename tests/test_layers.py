"""The table core reads only tables.

After the build, ``wide``, ``emap`` and ``sequences`` answer every question
from a ``tables.Tables``: the hom, Ext and tau tables and what they list.
This pins it at the import level: none of the three, nor ``tables``,
imports the builder or module-level code, at the top of the file or inside
a function, and every attribute they read off the tables is one a bare
``Tables`` has.  The universe keeps the stop test's state by catalogue
position, so it calls no ``id()``.
"""

import ast
import os

import pytest

from tauseq.tables import Tables

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tauseq")
BUILDER = {"universe", "modules", "linalg", "decompose", "ar", "transport"}
CORE = ["tables", "wide", "emap", "sequences"]


def _tree(name):
    with open(os.path.join(SRC, name + ".py")) as fh:
        return ast.parse(fh.read())


def _imported_modules(tree):
    """The tauseq submodules a source file imports, by any import form."""
    out = set()
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


@pytest.mark.parametrize("name", CORE)
def test_table_core_imports_no_module_code(name):
    imported = _imported_modules(_tree(name))
    assert not imported & BUILDER, sorted(imported & BUILDER)


@pytest.mark.parametrize("name", CORE[1:])
def test_table_core_reads_only_tables_attributes(name):
    # every u.<name> the layer reads, u being the tables it is handed
    bare = Tables(1, ["1#1"], [[1]], [[0]], [None], [True], [True], [0])
    read = {node.attr for node in ast.walk(_tree(name)) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "u"}
    assert read and read <= set(dir(bare)), sorted(read - set(dir(bare)))


def test_the_universe_keys_nothing_by_object_identity():
    calls = [node.lineno for node in ast.walk(_tree("universe")) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []
