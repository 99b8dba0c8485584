"""The package namespace: `from grpd import *` gives the names `grpd/__init__.py`
imports from its submodules, and no submodule object."""

import ast
import inspect
import types

import grpd


def test_star_import_brings_no_module():
    ns = {}
    exec("from grpd import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(grpd.__all__)
    assert not [name for name, obj in ns.items() if isinstance(obj, types.ModuleType)]


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(inspect.getsource(grpd))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(grpd.__all__)) == len(grpd.__all__)
    assert sorted(grpd.__all__) == sorted(imported)
    assert all(hasattr(grpd, name) for name in grpd.__all__)
