import ast
import sys
from collections import Counter
from pathlib import Path

import clmat
from clmat import errors
from clmat.topology import NetworkGraph

# Every name the package exports; changing the export list means editing this set.
EXPORTED = {
    "Candidate",
    "ClmatError",
    "FIRST_MIN",
    "LifetimeResult",
    "MIN_DEPTH",
    "NetworkGraph",
    "Node",
    "NoSpanningCandidate",
    "RadioModel",
    "RoundReport",
    "SimConfig",
    "build_all_candidates",
    "compare_policies",
    "compare_trees",
    "export_json",
    "load_topology",
    "load_topology_csv",
    "oracle_shortest_paths",
    "random_topology",
    "reports_csv",
    "residual_trace_csv",
    "run_lifetime",
    "select_aggregator",
}


def test_every_exported_name_resolves():
    missing = [name for name in clmat.__all__ if not hasattr(clmat, name)]
    assert missing == []


def test_exported_names_are_exactly_the_pinned_set():
    assert len(clmat.__all__) == len(set(clmat.__all__))
    assert set(clmat.__all__) == EXPORTED


def test_tree_walk_scorers_and_graph_copies_are_not_in_the_library():
    """The tree-walk scorers, the scoring variant names and the graph copies are
    test references now: the library scores one energy and one cost."""
    for name in ("tree_energy", "tree_cost", "total_distance", "clmat_edge_cost",
                 "residual_edge_cost", "CLMAT", "EDGE_MIN", "NODE_MIN", "RESIDUAL",
                 "COST_VARIANTS", "ENERGY_VARIANTS"):
        assert not hasattr(clmat, name)
        assert not hasattr(clmat.metrics, name)
    for name in ("restricted", "with_energies", "distance"):
        assert not hasattr(NetworkGraph, name)
    for name in ("SingletonTree", "UnreachableNode", "NonPositiveResidual"):
        assert not hasattr(errors, name)


def test_a_graph_rejects_input_with_semantic_error_alone():
    """The writers' and lookups' own exception classes are gone: every
    rejection is a SemanticError, the class the loaders raise for bad data."""
    for name in ("DuplicateVertex", "InvalidEnergy", "UnknownVertex", "SelfLoop",
                 "NonPositiveDistance"):
        assert not hasattr(errors, name)
    assert [c.__name__ for c in errors.ClmatError.__subclasses__()
            if c.__module__ == errors.__name__] == [
        "ParseError", "SemanticError", "NoSpanningCandidate"]


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never reads.

    A name counts as read wherever it is loaded, attribute bases and
    annotations included. __future__ imports and names listed in a
    top-level __all__ are exempt.
    """
    module = ast.parse(source)
    bound, exported = set(), set()
    for node in module.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(module) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read - exported)


def test_unused_import_check_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport json\nfrom math import inf, pi as PI\n"
              "from typing import Mapping\n__all__ = ['inf']\n"
              "def f(x: Mapping) -> str:\n    import csv\n    return json.dumps(PI)\n")
    assert _unused_imports(source) == ["os", "osp"]


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parent.parent
    found = {}
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        unused = _unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[str(path.relative_to(root))] = unused
    assert found == {}


def _attribute_uses(tree) -> tuple[Counter, Counter]:
    """Counts of each attribute name in tree called, as x.name(...), and loaded uncalled."""
    funcs = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    calls, loads = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            (calls if id(node) in funcs else loads)[node.attr] += 1
    return calls, loads


def _unread_public_names(sources: dict[str, str], exported) -> list[str]:
    """module.name for each public top-level function, class or constant of the
    sources (module name -> source) that is neither exported nor read anywhere
    in them outside its own definition, then module.Class.name for each public
    method of a public class that is neither called nor referenced anywhere in
    them outside its own definition. Dunder methods are exempt.

    A name counts as read where it is loaded, taken as an attribute or
    imported from a module. A method counts as called at x.name(...), and as
    referenced where x.name is loaded uncalled, unless some class also has a
    field or attribute of that name, which x.name would read just as well (a
    Link.distance field says nothing of a distance method).
    """
    defined, read = [], set()
    methods, fields, calls, loads = [], set(), Counter(), Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        called, loaded = _attribute_uses(tree)
        calls += called
        loads += loaded
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields.update(s.target.id for s in node.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                fields.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods += [(module, node.name, f) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            names = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined += [(module, name) for name in sorted(names) if not name.startswith("_")]
            inside = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    inside.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    inside.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    inside.update(a.name for a in sub.names)
            read |= inside - names
    unread = [f"{module}.{name}" for module, name in defined
              if name not in exported and name not in read]
    for module, cls, method in methods:
        own_calls, own_loads = _attribute_uses(method)
        uses = calls[method.name] - own_calls[method.name]
        if method.name not in fields:
            uses += loads[method.name] - own_loads[method.name]
        if not uses:
            unread.append(f"{module}.{cls}.{method.name}")
    return unread


def test_unread_public_name_check_flags_only_test_only_names():
    sources = {
        "a": ("from .b import helper\nLIMIT = 3\nUNUSED = 4\n__all__ = ['run']\n"
              "def run():\n    return helper(LIMIT)\n"
              "def recurse(n):\n    return recurse(n - 1)\n"
              "class Shape:\n    pass\n"),
        "b": ("import a\ndef helper(x):\n    return a.Shape, x\n"
              "def _private():\n    pass\n"),
    }
    assert _unread_public_names(sources, {"run"}) == ["a.UNUSED", "a.recurse"]


def test_unread_public_name_check_flags_only_unused_methods():
    sources = {
        "a": ("class Link:\n    length: float\n"
              "class Graph:\n    def length(self):\n        return 0.0\n"
              "    def grow(self):\n        return self.grow()\n"
              "    def size(self):\n        return 1\n"
              "    def __len__(self):\n        return 0\n"
              "    def _spare(self):\n        pass\n"
              "class Radio:\n    def tx(self, d):\n        return d\n"
              "class _View:\n    def spare(self):\n        pass\n"),
        "b": ("from a import Graph, Link, Radio, _View\n"
              "def run(link, graph, radio):\n"
              "    return link.length, graph.size(), map(radio.tx, [1]), _View\n"),
    }
    assert _unread_public_names(sources, {"Graph", "Link", "Radio", "run"}) == [
        "a.Graph.length", "a.Graph.grow"]


def test_every_public_library_name_is_exported_or_read_in_the_library():
    """Code that only tests call belongs with the tests, not in src/."""
    root = Path(__file__).resolve().parent.parent / "src" / "clmat"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))}
    assert _unread_public_names(sources, set(clmat.__all__)) == []


def _non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of the modules a module imports, anywhere in it, that are
    neither clmat, __future__ nor in the standard library; relative imports are clmat's."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return sorted(imported - {"clmat", "__future__"} - set(sys.stdlib_module_names))


def test_non_stdlib_import_check_flags_only_outside_modules():
    source = ("from __future__ import annotations\nimport os.path, json\n"
              "import numpy as np\nfrom scipy.sparse import csr_matrix\n"
              "from . import trees\nfrom .errors import ParseError\nfrom clmat import cli\n"
              "def f():\n    import pandas\n")
    assert _non_stdlib_imports(source) == ["numpy", "pandas", "scipy"]


def test_library_imports_only_the_standard_library():
    root = Path(__file__).resolve().parent.parent
    found = {}
    for path in sorted((root / "src" / "clmat").rglob("*.py")):
        outside = _non_stdlib_imports(path.read_text(encoding="utf-8"))
        if outside:
            found[str(path.relative_to(root))] = outside
    assert found == {}
