import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simembed.depth2 import embed_depth2
from simembed.geom import (
    _BAD,
    Point,
    Relation,
    Segment,
    int_coords,
    int_on_segment,
    int_relation,
    segment_relation,
)
from simembed.model import Drawing, Instance, PathGraph, RootedTree
from simembed.planarity import (
    PlanarityError,
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
    def test_invalid_instance_rejected(self):
        # the path misses vertex 2: neither the check nor the search runs
        inst = Instance(RootedTree.from_parent([None, 0, 0]), PathGraph.of([0, 1]))
        d = drawing({0: (0, 0), 1: (1, 0), 2: (0, 1)})
        with pytest.raises(PlanarityError, match="path does not span"):
            check_simultaneous(inst, d)
        with pytest.raises(PlanarityError, match="invalid instance"):
            search_embedding(inst, [P(0, 0), P(1, 0), P(0, 1)])

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
               if v not in e and int_on_segment(
                   *int_coords((d.pos[v], d.pos[e[0]], d.pos[e[1]])))]
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


def grid_case(rng, plane):
    """A drawing on a random subset of a small integer or rational grid
    (sheared when den = 3), some of its points isolated, with a random
    edge set; with `plane` the edges are added greedily while the drawing
    stays plane (decided here by the integer kernel), and then one more
    random edge in a third of the cases."""
    w, den = rng.randrange(3, 6), rng.choice((1, 1, 2, 3))
    pts = rng.sample([(x, y) for x in range(w) for y in range(w)],
                     rng.randrange(2, 10))
    d = Drawing({v: P(Fraction(x, den), Fraction(y, den) + Fraction(x, 7) * (den == 3))
                 for v, (x, y) in enumerate(pts)})
    pairs = list(combinations(range(len(pts)), 2))
    rng.shuffle(pairs)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    if not plane:
        return pairs[:rng.randrange(min(len(pairs), 9) + 1)], d
    ic = dict(zip(d.pos, int_coords(d.pos.values())))
    edges = []
    for u, v in pairs[:rng.randrange(len(pairs) + 1)]:
        a, b = ic[u], ic[v]
        if not any(int_on_segment(ic[w], a, b) for w in ic if w not in (u, v)) \
                and not any(int_relation(a, b, ic[s], ic[t]) in _BAD for s, t in edges):
            edges.append((u, v))
    if pairs and rng.random() < 1 / 3:
        edges.append(rng.choice(pairs))
    return edges, d


def depth2_case(rng):
    """A depth-2 tree/path pair drawn by embed_depth2; in half the cases
    two vertices then trade places."""
    n = rng.randrange(3, 13)
    parent = [None] + [0] * rng.randrange(1, n)
    parent += [rng.randrange(1, len(parent)) for _ in range(n - len(parent))]
    order = list(range(n))
    rng.shuffle(order)
    inst = Instance(RootedTree.from_parent(parent), PathGraph.of(order))
    pos = dict(embed_depth2(inst).pos)
    if rng.random() < 0.5:
        u, v = rng.sample(range(n), 2)
        pos[u], pos[v] = pos[v], pos[u]
    return [inst.tree.edges(), inst.path.edges()], Drawing(pos)


def monotone_case(rng):
    """A path through points of increasing x, y from a small range (so
    collinear and horizontal runs occur); in a third of the cases two
    path positions trade places."""
    n = rng.randrange(2, 12)
    xs = sorted(rng.sample(range(3 * n), n))
    d = Drawing({v: P(Fraction(x, 2), rng.randrange(4)) for v, x in enumerate(xs)})
    order = list(range(n))
    if n > 2 and rng.random() < 1 / 3:
        i, j = rng.sample(range(n), 2)
        order[i], order[j] = order[j], order[i]
    return PathGraph.of(order).edges(), d


class TestSweepDifferential:
    def test_matches_all_pairs_on_plane_and_nonplane_inputs(self):
        rng = random.Random(11)
        cases = []
        for k in range(3000):
            cases.append(grid_case(rng, plane=k % 2 == 0))
        for _ in range(700):
            graphs, d = depth2_case(rng)
            cases += [(edges, d) for edges in graphs]
        for _ in range(800):
            cases.append(monotone_case(rng))
        grid = [P(x, y) for x in range(3) for y in range(3)]
        for _ in range(150):
            inst = random_instance(rng, rng.randrange(3, 6))
            res = search_embedding(inst, grid, budget=2000)
            if res.drawing is not None:
                cases += [(inst.tree.edges(), res.drawing),
                          (inst.path.edges(), res.drawing)]
        planar = 0
        for edges, d in cases:
            rep = check_drawing(edges, d)
            assert (rep.crossings, rep.vertex_on_edge) == \
                all_pairs_reference(edges, d)
            planar += rep.planar
        assert len(cases) >= 5000
        assert planar >= 0.4 * len(cases)


def depth2_star_instance(n, rng):
    # a root with sqrt(n) children sharing the other vertices
    k = int(n ** 0.5)
    parent = [None] + [0] * k + [1 + rng.randrange(k) for _ in range(n - k - 1)]
    order = list(range(n))
    rng.shuffle(order)
    return Instance(RootedTree.from_parent(parent), PathGraph.of(order))


class TestSweepScale:
    def test_depth2_pair_with_10000_vertices(self):
        inst = depth2_star_instance(10_000, random.Random(3))
        d = embed_depth2(inst)
        t0 = time.perf_counter()
        tr, pr = check_simultaneous(inst, d)
        assert time.perf_counter() - t0 < 3.0
        assert tr.planar and pr.planar


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
        r3 = search_embedding(inst, pts + pts)
        assert r1.status is SearchStatus.Found
        assert r1.drawing == r2.drawing == r3.drawing
        assert r1.nodes == r3.nodes


# the ten-vertex gadget and a path through it, as in the benchmark's
# search workload, and a leveling of the gadget whose ordering oracle
# needs more than 400 nodes
GADGET = RootedTree.from_parent([None, 0, 0, 0, 1, 2, 3, 1, 2, 3])
GADGET_INSTANCE = Instance(GADGET, PathGraph.of([9, 4, 8, 3, 7, 2, 6, 1, 5, 0]))
GRID4 = [P(x, y) for x in range(4) for y in range(4)]
LEVELED = (1, 3, 2, 4, 1, 4, 3, 1, 4, 1)


def _budget_case(path, budget):
    from simembed.leveltree import (LevelTree, RegionSystem, region_candidates,
                                    search_level_planar,
                                    search_region_level_planar)
    lt = LevelTree.of(GADGET, LEVELED)
    rs = RegionSystem.horizontal(range(4))
    if path == "embedding":
        return search_embedding(GADGET_INSTANCE, GRID4, budget=budget)
    if path == "region":
        grid = region_candidates(rs, per_axis=2, span=3)
        return search_region_level_planar(lt, rs, grid, budget=budget)
    if path == "flat-row":
        grid = [[P(Fraction(x), Fraction(2 * i - 1, 2)) for x in range(1, 8)]
                for i in range(4)]
        return search_region_level_planar(lt, rs, grid, budget=budget)
    return search_level_planar(lt, 10, budget=budget, method=path)


class TestPlacementFrontEnd:
    @pytest.mark.parametrize("path, budget", [
        ("embedding", 50), ("grid", 50), ("combinatorial", 50), ("auto", 50),
        ("region", 5), ("flat-row", 100)])
    def test_budget_exceeded_reports_the_budget(self, path, budget):
        # one rule on every path: a search that runs out of its budget
        # has spent exactly the budget
        res = _budget_case(path, budget)
        assert res.status.name == "BudgetExceeded"
        assert res.nodes == budget

    def test_gadget_exploration_order(self):
        # the node count pins the candidate order, the root cut and the
        # forward check; the drawing is the least under that order
        res = search_embedding(GADGET_INSTANCE, GRID4)
        assert (res.status, res.nodes) == (SearchStatus.Found, 254)
        tr, pr = check_simultaneous(GADGET_INSTANCE, res.drawing)
        assert tr.planar and pr.planar
