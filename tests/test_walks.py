"""Every tree walk is a loop: no function in simembed calls itself, and
the searches and the channel walk run on 400-level chains with almost no
stack to spare.  No simembed module imports a name it never reads, and
every public top-level function and class of simembed is read by some
module of simembed or of perfbench, but for the few listed with the
reason each stays."""

import ast
import sys
from contextlib import contextmanager
from pathlib import Path

import simembed
from simembed.analyzer import compute_channels
from simembed.geom import Point
from simembed.leveltree import (
    LevelStatus,
    LevelTree,
    RegionStatus,
    RegionSystem,
    check_level_drawing,
    region_candidates,
    search_level_planar,
    search_region_level_planar,
)
from simembed.model import Drawing, Instance, PathGraph, RootedTree

LEVELS = 400


def called_name(call: ast.Call):
    """The name a call may reach its own function by: `f(...)`,
    `self.f(...)` or `cls.f(...)`."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in ("self", "cls"):
        return f.attr
    return None


def self_calls(source: str) -> list[str]:
    """The functions in `source` whose body, nested functions included,
    calls the function's own name."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(called_name(node) == fn.name for node in ast.walk(fn)
                    if isinstance(node, ast.Call))]


def unread_imports(source: str) -> list[str]:
    """The names `source` binds by `import` or `from ... import` (but
    `from __future__`) and never reads as a name."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read]


def unread_definitions(defining: list[str], reading: list[str]) -> list[str]:
    """The public top-level `def` and `class` names of the `defining`
    sources that no `reading` source reads as a name, an attribute or
    an imported name."""
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [node.name for source in defining for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


# public names that no simembed or perfbench module reads, and why each stays
UNREAD_BY_DESIGN = {
    "segment_of": "the Point query of a channel segment, through which the"
                  " acceptance tests read cuts",
    "dump_level_tree": "the .slt writer, for a refutation that names a small"
                       " sub-instance",
    "lemma1_tree": "the paper's Lemma 1 leveling scan",
}


@contextmanager
def shallow_stack():
    """Lower the recursion limit to the caller's stack depth plus 100."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def chain(n: int) -> RootedTree:
    return RootedTree.from_parent([None] + list(range(n - 1)))


class TestNoRecursion:
    def test_guard_sees_direct_and_nested_self_calls(self):
        src = ("def walk(v):\n    walk(v)\n"
               "def rec(k):\n    def place():\n        return rec(k + 1)\n"
               "class A:\n    def m(self):\n        self.m()\n"
               "    def __init__(self):\n        super().__init__()\n"
               "def loop(v):\n    return [v]\n")
        assert self_calls(src) == ["walk", "rec", "m"]

    def test_no_function_calls_itself(self):
        found = [f"{path.name}: {name}"
                 for path in sorted(Path(simembed.__file__).parent.glob("*.py"))
                 for name in self_calls(path.read_text(encoding="utf-8"))]
        assert found == []


class TestNoUnreadImports:
    def test_guard_sees_unread_names(self):
        src = ("from __future__ import annotations\n"
               "import os.path\nimport re as regex\n"
               "from math import gcd, lcm\n"
               "def f(x: int) -> int:\n    return gcd(x, os.sep)\n")
        assert unread_imports(src) == ["regex", "lcm"]

    def test_every_import_is_read(self):
        found = [f"{path.name}: {name}"
                 for path in sorted(Path(simembed.__file__).parent.glob("*.py"))
                 for name in unread_imports(path.read_text(encoding="utf-8"))]
        assert found == []


class TestNoUnreadDefinitions:
    def test_guard_sees_unread_definitions(self):
        lib = ("import os\n"
               "def used():\n    return os.sep\n"
               "def unused():\n    return used()\n"
               "def _private():\n    pass\n"
               "class Read:\n    pass\n"
               "class Unread:\n    def method(self):\n        return Read\n")
        caller = "from lib import used as alias\nimport lib\nlib.unused\n"
        assert unread_definitions([lib], [lib]) == ["unused", "Unread"]
        assert unread_definitions([lib], [lib, caller]) == ["Unread"]

    def test_every_public_definition_is_read(self):
        lib = [path.read_text(encoding="utf-8")
               for path in sorted(Path(simembed.__file__).parent.glob("*.py"))]
        bench = [path.read_text(encoding="utf-8") for path in
                 sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))]
        assert sorted(unread_definitions(lib, lib + bench)) == sorted(UNREAD_BY_DESIGN)


class TestDeepChains:
    def test_grid_search(self):
        lt = LevelTree.of(chain(LEVELS), range(1, LEVELS + 1))
        with shallow_stack():
            res = search_level_planar(lt, 2, method="grid")
        assert res.status is LevelStatus.Found
        assert check_level_drawing(lt, res.drawing).planar

    def test_region_search(self):
        # one candidate per region: a flat-row grid, so the ordering
        # oracle runs before the placement search
        lt = LevelTree.of(chain(LEVELS), range(1, LEVELS + 1))
        rs = RegionSystem.horizontal(range(1, LEVELS + 1))
        grid = region_candidates(rs, per_axis=1, span=1)
        with shallow_stack():
            res = search_region_level_planar(lt, rs, grid)
        assert res.status is RegionStatus.Found
        assert res.metadata["flat_rows"]

    def test_channel_root_leaf_paths(self):
        # three joints under the root, each heading a chain of LEVELS
        # vertices; vertex v sits at (v, v^2), so no three are collinear
        parent = [None, 0, 0, 0]
        for j in (1, 2, 3):
            parent += [j] + list(range(len(parent), len(parent) + LEVELS - 2))
        n = len(parent)
        inst = Instance(RootedTree.from_parent(parent), PathGraph.of(range(n)))
        d = Drawing({v: Point(v, v * v) for v in range(n)})
        with shallow_stack():
            (ch,) = compute_channels(inst, d, [1, 2, 3])
        assert len(ch.path_a) == len(ch.path_b) == LEVELS + 1
