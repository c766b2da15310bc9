import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simembed.geom import (
    Point,
    Relation,
    Segment,
    _on_closed_segment,
    int_relation,
    segment_relation,
)
from simembed.model import Drawing, Instance, PathGraph, RootedTree
from simembed.planarity import (
    SearchStatus,
    check_drawing,
    check_simultaneous,
    search_embedding,
    UndrawnVertex,
)

P = Point


def drawing(coords):
    return Drawing({v: P(x, y) for v, (x, y) in coords.items()})


class TestCheckDrawing:
    def test_crossing_diagonals(self):
        d = drawing({0: (0, 0), 1: (2, 0), 2: (2, 2), 3: (0, 2)})
        rep = check_drawing([(0, 2), (1, 3)], d)
        assert len(rep.crossings) == 1
        assert not rep.planar

    def test_monotone_path_planar(self):
        d = drawing({0: (0, 0), 1: (1, 1), 2: (2, 0), 3: (3, 1)})
        rep = check_drawing([(0, 1), (1, 2), (2, 3)], d)
        assert rep.planar

    def test_vertex_on_edge(self):
        d = drawing({0: (0, 0), 1: (2, 0), 2: (1, 0)})
        rep = check_drawing([(0, 1)], d)
        assert rep.vertex_on_edge == [(2, (0, 1))]

    def test_undrawn_vertex(self):
        d = drawing({0: (0, 0)})
        with pytest.raises(UndrawnVertex):
            check_drawing([(0, 1)], d)

    def test_shared_endpoint_allowed(self):
        d = drawing({0: (0, 0), 1: (1, 0), 2: (1, 1)})
        assert check_drawing([(0, 1), (1, 2)], d).planar


class TestCheckSimultaneous:
    def test_path_equals_tree_on_triangle(self):
        t = RootedTree.from_parent([None, 0, 1])
        inst = Instance(t, PathGraph.of([0, 1, 2]))
        d = drawing({0: (0, 0), 1: (1, 1), 2: (2, 0)})
        tr, pr = check_simultaneous(inst, d)
        assert tr.planar and pr.planar

    def test_tree_crossing_detected(self):
        # star drawn with a leaf edge through another leaf's edge
        t = RootedTree.from_parent([None, 0, 0, 0])
        inst = Instance(t, PathGraph.of([1, 0, 2, 3]))
        d = drawing({0: (0, 0), 1: (2, 2), 2: (1, 2), 3: (3, 1)})
        # edge 0-1 and edge 2-? no: make path cross instead
        tr, pr = check_simultaneous(inst, d)
        assert tr.planar  # star edges share the center only
        # path 1-0, 0-2, 2-3; 2-3 crosses 0-1
        assert not pr.planar


def random_instance(rng, n):
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    order = list(range(n))
    rng.shuffle(order)
    return Instance(RootedTree.from_parent(parent), PathGraph.of(order))


def random_drawing(rng, n):
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randrange(-40, 41), rng.randrange(1, 5)),
                 Fraction(rng.randrange(-40, 41), rng.randrange(1, 5))))
    return Drawing({v: P(x, y) for v, (x, y) in enumerate(sorted(pts))})


def all_pairs_reference(edges, d):
    """check_drawing's answer from every edge pair through segment_relation
    and every vertex against every foreign edge."""
    bad = (Relation.ProperCrossing, Relation.Touching, Relation.Overlapping)
    crossings = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            (a, b), (c, e) = edges[i], edges[j]
            rel = segment_relation(Segment(d.pos[a], d.pos[b]),
                                   Segment(d.pos[c], d.pos[e]))
            if rel in bad:
                crossings.append((edges[i], edges[j], rel))
    on_edge = [(v, e) for v in sorted(d.pos) for e in edges
               if v not in e and _on_closed_segment(
                   d.pos[v], Segment(d.pos[e[0]], d.pos[e[1]]))]
    return crossings, on_edge


class TestCheckDrawingReference:
    def test_matches_all_pairs_random(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randrange(3, 13)
            inst = random_instance(rng, n)
            d = random_drawing(rng, n)
            for edges in (inst.tree.edges(), inst.path.edges()):
                rep = check_drawing(edges, d)
                assert (rep.crossings, rep.vertex_on_edge) == \
                    all_pairs_reference(edges, d)


GRID = [(x, y) for x in range(4) for y in range(4)]
SEGMENTS = [(p, q) for p in GRID for q in GRID if p != q]


def square_symmetries():
    # the 8 symmetries of the 4x4 grid, each mapping it onto itself
    maps = []
    for swap in (False, True):
        for fx in (False, True):
            for fy in (False, True):
                def f(p, swap=swap, fx=fx, fy=fy):
                    x, y = (p[1], p[0]) if swap else p
                    return (3 - x if fx else x, 3 - y if fy else y)
                maps.append(f)
    return maps


class TestSegmentKernel:
    def test_exhaustive_4x4_grid(self):
        # all 57,600 ordered pairs of directed segments on the 4x4 grid
        table = {(s, t): int_relation(*s, *t) for s in SEGMENTS for t in SEGMENTS}
        counts = {}
        for rel in table.values():
            counts[rel] = counts.get(rel, 0) + 1
        assert counts == {Relation.Disjoint: 30_960,
                          Relation.SharedEndpointOnly: 12_736,
                          Relation.ProperCrossing: 8_304,
                          Relation.Touching: 4_256,
                          Relation.Overlapping: 1_344}
        syms = square_symmetries()
        shift = (Fraction(1, 3), Fraction(2, 5))

        def rational(p):
            return P((p[0] + shift[0]) / 7, (p[1] + shift[1]) / 7)

        for (s, t), rel in table.items():
            (a, b), (c, d) = s, t
            assert table[t, s] is rel
            assert table[(b, a), t] is rel
            assert table[s, (d, c)] is rel
            for f in syms:
                assert table[(f(a), f(b)), (f(c), f(d))] is rel
            assert segment_relation(Segment(rational(a), rational(b)),
                                    Segment(rational(c), rational(d))) is rel


class TestSearchEmbedding:
    def test_triangle_trivial(self):
        t = RootedTree.from_parent([None, 0, 1])
        inst = Instance(t, PathGraph.of([0, 1, 2]))
        res = search_embedding(inst, [P(0, 0), P(1, 0), P(0, 1)])
        assert res.status is SearchStatus.Found

    def test_single_vertex(self):
        inst = Instance(RootedTree.from_parent([None]), PathGraph.of([0]))
        res = search_embedding(inst, [P(0, 0)])
        assert res.status is SearchStatus.Found

    def test_too_few_points(self):
        t = RootedTree.from_parent([None, 0, 1])
        inst = Instance(t, PathGraph.of([0, 1, 2]))
        res = search_embedding(inst, [P(0, 0), P(1, 0)])
        assert res.status is SearchStatus.ProvedNone

    def test_collinear_points_usable(self):
        # a star K1,2 with its root between two collinear leaves: the two
        # edges meet only at the shared endpoint, which check_drawing allows
        t = RootedTree.from_parent([None, 0, 0])
        inst = Instance(t, PathGraph.of([1, 0, 2]))
        pts = [P(x, 0) for x in range(3)]
        res = search_embedding(inst, pts)
        assert res.status is SearchStatus.Found
        assert res.drawing.pos[0] == P(1, 0)

    def test_root_not_pinned_to_least_point(self):
        # K1,3 with path 1 0 2 3: a root on the least candidate (0, 0) has
        # a leaf edge through (1, 0), yet a root at (1, 0) works
        t = RootedTree.from_parent([None, 0, 0, 0])
        inst = Instance(t, PathGraph.of([1, 0, 2, 3]))
        pts = [P(0, 0), P(1, 0), P(2, 0), P(1, 1)]
        res = search_embedding(inst, pts)
        assert res.status is SearchStatus.Found
        assert res.drawing.pos[0] != P(0, 0)

    def test_star4_on_grid_oracle(self):
        t = RootedTree.from_parent([None, 0, 0, 0, 0])
        inst = Instance(t, PathGraph.of([1, 3, 0, 2, 4]))
        pts = [P(x, y) for x in range(3) for y in range(3)]
        res = search_embedding(inst, pts, budget=10**6)
        assert res.status is SearchStatus.Found
        tr, pr = check_simultaneous(inst, res.drawing)
        assert tr.planar and pr.planar

    def test_budget_exceeded(self):
        t = RootedTree.from_parent([None, 0, 0, 0, 0, 0])
        inst = Instance(t, PathGraph.of([1, 3, 5, 0, 2, 4]))
        pts = [P(x, y) for x in range(4) for y in range(4)]
        res = search_embedding(inst, pts, budget=3)
        assert res.status is SearchStatus.BudgetExceeded

    def test_monotone_found_on_superset(self):
        # a drawing on a subset of S is a drawing on S
        t = RootedTree.from_parent([None, 0, 0])
        inst = Instance(t, PathGraph.of([1, 0, 2]))
        pts = [P(x, 0) for x in range(5)]
        assert search_embedding(inst, pts[:3]).status is SearchStatus.Found
        assert search_embedding(inst, pts).status is SearchStatus.Found

    def test_deterministic(self):
        t = RootedTree.from_parent([None, 0, 0, 1])
        inst = Instance(t, PathGraph.of([3, 1, 0, 2]))
        pts = [P(x, y) for x in range(3) for y in range(3)]
        r1 = search_embedding(inst, pts)
        r2 = search_embedding(inst, list(reversed(pts)))
        assert r1.status is SearchStatus.Found
        assert r1.drawing == r2.drawing
