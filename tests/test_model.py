from fractions import Fraction

import pytest

from simembed.geom import Point
from simembed.model import (
    Drawing,
    FormatError,
    Instance,
    PathGraph,
    Role,
    RootedTree,
    dump_drawing,
    dump_instance,
    load_drawing,
    load_instance,
    tree_depth,
    validate_instance,
)


def star(k):
    return RootedTree.from_parent([None] + [0] * k)


class TestValidateInstance:
    def test_star_with_covering_path(self):
        inst = Instance(star(3), PathGraph.of([1, 0, 2, 3]))
        assert validate_instance(inst).valid

    def test_path_repeating_vertex(self):
        inst = Instance(star(3), PathGraph.of([1, 0, 2, 2]))
        rep = validate_instance(inst)
        assert any("not simple" in v for v in rep.violations)

    def test_shared_edge_with_disjointness_required(self):
        inst = Instance(star(3), PathGraph.of([0, 1, 2, 3]),
                        edge_disjoint_required=True)
        rep = validate_instance(inst)
        assert any("shared edge" in v for v in rep.violations)

    def test_shared_edge_allowed_when_not_required(self):
        inst = Instance(star(3), PathGraph.of([0, 1, 2, 3]))
        assert validate_instance(inst).valid

    def test_path_missing_vertex(self):
        inst = Instance(star(3), PathGraph.of([0, 1, 2]))
        rep = validate_instance(inst)
        assert any("span" in v for v in rep.violations)


class TestRootedTree:
    def test_two_roots_rejected(self):
        with pytest.raises(FormatError):
            RootedTree.from_parent([None, None, 0])

    def test_cycle_rejected(self):
        with pytest.raises(FormatError):
            RootedTree.from_parent([None, 2, 1])

    def test_children(self):
        t = RootedTree.from_parent([None, 0, 0, 1])
        assert t.children(0) == [1, 2]
        assert t.edges() == [(0, 1), (0, 2), (1, 3)]

    def test_preorder_parent_before_child(self):
        t = RootedTree.from_parent([3, 3, 0, None, 0, 1])
        assert t.preorder() == [3, 0, 2, 4, 1, 5]
        assert t.children(3) == [0, 1]


class TestTreeDepth:
    def test_star(self):
        assert tree_depth(star(5)) == 1

    def test_single_vertex(self):
        assert tree_depth(RootedTree.from_parent([None])) == 0

    def test_depth_two(self):
        t = RootedTree.from_parent([None, 0, 1, 1])
        assert tree_depth(t) == 2


class TestSerialization:
    def test_instance_round_trip(self):
        labels = [Role.Root, Role.Joint, Role.Joint, Role.Stabilizer]
        t = RootedTree.from_parent([None, 0, 0, 1], labels)
        inst = Instance(t, PathGraph.of([3, 1, 0, 2]))
        text = dump_instance(inst)
        back = load_instance(text)
        assert back.tree == inst.tree
        assert back.path == inst.path

    def test_instance_without_roles(self):
        inst = Instance(star(2), PathGraph.of([1, 0, 2]))
        assert load_instance(dump_instance(inst)).tree == inst.tree

    def test_comments_ignored(self):
        text = "# a comment\nsge 1 2\ntree - 0\n# another\npath 0 1\n"
        inst = load_instance(text)
        assert inst.tree.n == 2

    def test_drawing_round_trip_bit_exact(self):
        d = Drawing({0: Point(Fraction(1, 3), Fraction(-7, 2)),
                     1: Point(0, 5)})
        assert load_drawing(dump_drawing(d)) == d

    def test_drawing_rejects_duplicates(self):
        with pytest.raises(FormatError):
            Drawing({0: Point(0, 0), 1: Point(0, 0)})

    def test_bad_header(self):
        with pytest.raises(FormatError):
            load_instance("nope\n")
        with pytest.raises(FormatError):
            load_drawing("nope\n")
