import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from simembed.geom import Point, int_coords
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


def reference_violations(i):
    """validate_instance's list, with edge-disjointness decided by
    intersecting frozenset edge sets."""
    t, order = i.tree, list(i.path.order)
    out = []
    if len(set(order)) != len(order):
        out.append("path not simple")
    if set(order) != set(range(t.n)):
        out.append("path does not span the vertex set")
    if i.edge_disjoint_required:
        tree = {frozenset((t.parent[v], v)) for v in range(t.n)
                if t.parent[v] is not None}
        path = {frozenset(e) for e in zip(order, order[1:])}
        out += [f"shared edge {e}" for e in sorted(tuple(sorted(s))
                                                   for s in tree & path)]
    return out


@st.composite
def instances(draw):
    # a random tree, its vertices relabeled so the root varies, and a path
    # that is a spanning order, a walk along tree edges, or any list,
    # repeated and out-of-range vertices included
    n = draw(st.integers(1, 7))
    shape = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    name = draw(st.permutations(range(n)))
    parent = [None] * n
    for v, p in enumerate(shape):
        parent[name[v]] = None if p is None else name[p]
    t = RootedTree.from_parent(parent)
    walk = [draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(0, 2 * n))):
        u = walk[-1]
        walk.append(draw(st.sampled_from(
            t.children(u) + [u if u == t.root else t.parent[u]])))
    order = draw(st.one_of(st.permutations(range(n)), st.just(walk),
                           st.lists(st.integers(-2, n + 1), max_size=n + 2)))
    return Instance(t, PathGraph.of(order), draw(st.booleans()))


class TestValidateInstanceDifferential:
    @settings(max_examples=400)
    @given(instances())
    @example(Instance(star(3), PathGraph.of([1, 0, 2, 0, 3, -1, 7]), True))
    @example(Instance(star(3), PathGraph.of([3, 0, 1, 0, 2]), True))
    def test_matches_edge_set_reference(self, inst):
        assert validate_instance(inst).violations == reference_violations(inst)

    def test_out_of_range_vertices_are_not_tree_edges(self):
        # parent[-1] is parent[2] == 1 if read from the end of the tuple,
        # and parent[3] is out of range
        inst = Instance(RootedTree.from_parent([None, 0, 1]),
                        PathGraph.of([-1, 1, 3, 0]), True)
        assert validate_instance(inst).violations == [
            "path does not span the vertex set"]


def rejected_both_ways(parent):
    with pytest.raises(FormatError):
        RootedTree.from_parent(parent)
    with pytest.raises(FormatError):
        RootedTree(len(parent), tuple(parent),
                   parent.index(None) if None in parent else 0)


class TestRootedTree:
    def test_two_roots_rejected(self):
        rejected_both_ways([None, None, 0])

    def test_cycle_rejected(self):
        rejected_both_ways([None, 2, 1])
        rejected_both_ways([None, 0, 3, 2])  # below a rooted part

    @pytest.mark.parametrize("parent", [[0, 1], [None, 0, 3], [None, 0, -1]])
    def test_no_root_or_parent_out_of_range_rejected(self, parent):
        # -1 would otherwise be read from the end of the tuple
        rejected_both_ways(parent)

    @pytest.mark.parametrize("n,root", [(4, 0), (3, 1)])
    def test_direct_construction_checks_n_and_root(self, n, root):
        with pytest.raises(FormatError):
            RootedTree(n, (None, 0, 0), root)

    @settings(max_examples=400)
    @given(st.lists(st.one_of(st.none(), st.integers(-1, 7)), min_size=1,
                    max_size=7))
    def test_accepts_exactly_the_rooted_trees(self, parent):
        # reference: one root, and a walk up from every vertex reaches it
        # within n steps through vertices in range
        n, walk = len(parent), {}
        for v in range(n):
            u, d = v, 0
            while d <= n and 0 <= u < n and parent[u] is not None:
                u, d = parent[u], d + 1
            walk[v] = d if d <= n and 0 <= u < n else None
        if parent.count(None) == 1 and None not in walk.values():
            assert dict(enumerate(RootedTree.from_parent(parent).depth)) == walk
        else:
            rejected_both_ways(parent)

    @pytest.mark.parametrize("parent", [
        [None], [None, 0, 0, 0, 0, 0], [None, 0, 1, 1],
        [3, 3, 0, None, 0, 1], [None, 0, 0, 0, 1, 2, 3, 1, 2, 3]])
    def test_depths_match_a_walk_to_the_root(self, parent):
        t = RootedTree.from_parent(parent)
        walk = {}
        for v in range(len(parent)):
            u, d = v, 0
            while parent[u] is not None:
                u, d = parent[u], d + 1
            walk[v] = d
        assert dict(enumerate(t.depth)) == walk
        assert t.depth == tuple(walk[v] for v in range(len(parent)))

    def test_children(self):
        t = RootedTree.from_parent([None, 0, 0, 1])
        assert t.children(0) == [1, 2]
        assert t.edges() == [(0, 1), (0, 2), (1, 3)]

    def test_preorder_parent_before_child(self):
        t = RootedTree.from_parent([3, 3, 0, None, 0, 1])
        assert t.preorder() == [3, 0, 2, 4, 1, 5]
        assert t.children(3) == [0, 1]


class TestCenter:
    @pytest.mark.parametrize("parent,center", [
        ([None], (0, 0)),
        ([None, 0], (0, 1)),             # two centers, the least id wins
        ([1, None], (0, 1)),
        ([None, 0, 1, 2, 3], (2, 2)),    # path rooted at an end
        ([None, 0, 1, 2, 3, 4], (2, 3)),  # two centers: 2 and 3
        ([5, 0, 1, 2, 3, None], (1, 3)),  # path 5 0 1 2 3 4: centers 1, 2
        ([None] + [0] * 5, (0, 1)),
    ])
    def test_center_and_radius(self, parent, center):
        assert RootedTree.from_parent(parent).center() == center

    def test_rerooted_keeps_ids_edges_and_labels(self):
        labels = [Role.Root, Role.Joint, Role.Joint, Role.Stabilizer]
        t = RootedTree.from_parent([None, 0, 1, 1], labels)
        r = t.rerooted(3)
        assert r.parent == (1, 3, 1, None) and r.labels == t.labels
        assert {frozenset(e) for e in r.edges()} == {frozenset(e) for e in t.edges()}
        assert r.depth == (2, 1, 2, 0)


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

    @pytest.mark.parametrize("path", [
        "1 0 1",    # repeated
        "-1 0 1",   # negative: as an index, -1 would name vertex 2
        "0 1 3",    # out of range
    ])
    def test_path_record_must_be_a_permutation(self, path):
        with pytest.raises(FormatError, match=re.escape(
                "path record must list each vertex 0..n-1 once")):
            load_instance(f"sge 1 3\ntree - 0 0\npath {path}\n")

    def test_long_records_split_on_any_whitespace(self):
        # records longer than one run of tokens, with tabs and runs of
        # spaces between them, read as str.split() reads them
        n = 2_500
        inst = Instance(star(n - 1), PathGraph.of(range(n - 1, -1, -1)))
        seps = itertools.cycle([" ", "\t", "   ", " \t "])
        tree, path = ("".join(f"{w}{next(seps)}" for w in words).rstrip()
                      for words in (["-"] + ["0"] * (n - 1),
                                    map(str, range(n - 1, -1, -1))))
        back = load_instance(f"sge 1 {n}\ntree {tree}\npath {path} \n")
        assert back == inst

    def test_role_codes_split_on_any_whitespace(self):
        # the roles record, like tree and path, may separate its codes
        # by tabs, by spaces or not at all
        spaced = load_instance("sge 1 3\ntree - 0 0\npath 1 0 2\nroles R J J\n")
        tabbed = load_instance("sge 1 3\ntree\t-\t0\t0\npath\t1\t0\t2\nroles\tR\tJ\tJ\n")
        packed = load_instance("sge 1 3\ntree - 0 0\npath 1 0 2\nroles RJJ\n")
        assert tabbed == spaced == packed
        assert tabbed.tree.labels == (Role.Root, Role.Joint, Role.Joint)

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

    def test_drawing_ids_compare_as_integers(self):
        # 1 and 01 name one vertex, so the header's 3 vertices are 0, 1, 2
        # with vertex 1 given twice
        with pytest.raises(FormatError, match="repeated"):
            load_drawing("sgd 1 3\n0 0 0\n1 1 0\n01 2 0\n2 0 1\n")

    @pytest.mark.parametrize("text", [
        "sgd 1 2\n0 0 0\n1 1\n", "sgd 1 2\n0 0 0\n1 1 0 0\n"])
    def test_drawing_row_is_id_x_y(self, text):
        with pytest.raises(FormatError, match="<id> <x> <y>"):
            load_drawing(text)

    def test_non_integer_vertex_id_is_a_format_error(self):
        with pytest.raises(FormatError, match="record 'x'"):
            load_drawing("sgd 1 1\nx 1 2\n")

    @pytest.mark.parametrize("text, named", [
        ("sge 1 2\ntree - 0\npath 0 x\n", "record 'path'"),
        ("sge 1 2\ntree - y\npath 0 1\n", "record 'tree'"),
        ("sge 1 x\ntree - 0\npath 0 1\n", "'sge 1 <n>' header"),
    ])
    def test_non_integer_token_is_a_format_error(self, text, named):
        # one conversion per record, so a bad token names its record
        with pytest.raises(FormatError, match=named):
            load_instance(text)


# coordinates with small numerators over denominators 1, 2, 3 and 7, so
# that drawn points collide often
COORDINATES = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3, 7)))


class TestDrawingInts:
    @settings(max_examples=300)
    @given(st.dictionaries(st.integers(0, 9),
                           st.builds(Point, COORDINATES, COORDINATES), max_size=8))
    def test_injective_by_its_integer_table(self, pos):
        if len(set(pos.values())) < len(pos):
            with pytest.raises(FormatError, match="not injective"):
                Drawing(pos)
            return
        d = Drawing(pos)
        assert d.ints == dict(zip(pos, int_coords(pos.values())))
        with pytest.raises(FormatError, match="vertex 10 is not drawn"):
            d.ints[10]

    def test_pos_is_read_only(self):
        # a changed point would leave `ints` stale
        pos = {0: Point(0, 0), 1: Point(2, 2), 2: Point(0, 2), 3: Point(2, 3)}
        d = Drawing(pos)
        with pytest.raises(TypeError):
            d.pos[3] = Point(2, 0)
        pos[3] = Point(2, 0)
        assert d.pos[3] == Point(2, 3) and d.ints[3] == (2, 3)
