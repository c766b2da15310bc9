"""Top-level acceptance suite.

Each test here states a contract of the package as a whole and checks it
end to end against independent oracles: exhaustive enumeration, closed
formulas evaluated by hand, cross-checked algorithm pairs, and witness
drawings whose classifications were derived geometrically before being
encoded.  No expected value below was copied from program output.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

from simembed.analyzer import (
    ConnectionKind,
    CutKind,
    DoorStatus,
    classify_connections,
    compute_channels,
    detect_cuts,
    detect_passages,
    enumerate_doors,
    segment_of,
)
from simembed.counterexample import (
    CounterexampleParams,
    X_CAP,
    build_instance,
    compute_paper_parameters,
    size_report,
)
from simembed.geom import (
    Point,
    Segment,
    convex_hull,
    int_coords,
    int_cross,
    segment_relation,
)
from simembed.leveltree import (
    LevelStatus,
    LevelTree,
    RegionStatus,
    RegionSystem,
    lemma1_tree,
    search_level_planar,
    search_region_level_planar,
)
from simembed.model import Instance, PathGraph, RootedTree
from simembed.planarity import (
    SearchStatus,
    check_drawing,
    search_embedding,
)

from test_analyzer import (
    blocking_witness,
    connection_high_witness,
    connection_low_witness,
    double_cut_witness,
    passage_witness,
    zigzag_witness,
)
from test_depth2 import depth2_trees, enumerate_depth2_suite
from test_planarity import all_pairs_reference

GADGET = RootedTree.from_parent([None, 0, 0, 0, 1, 2, 3, 1, 2, 3])


class TestAcceptance1Depth2Suite:
    """Every depth-<=2 tree admits a simultaneous embedding with every
    spanning path: exhaustively for n <= 7, sampled for n = 8..12."""

    def test_full_suite_clean(self):
        start = time.monotonic()
        rep = enumerate_depth2_suite(12, trials=200, seed=0)
        elapsed = time.monotonic() - start
        assert rep.failures == []
        # coverage accounting, recomputed here independently: one tree
        # per partition shape, all n!/2 direction-reduced orders for
        # n <= 7, and exactly 200 sampled orders per larger tree
        expected_pairs = 0
        for n in range(1, 8):
            trees = sum(1 for _ in depth2_trees(n))
            orders = 1 if n == 1 else factorial(n) // 2
            expected_pairs += trees * orders
        for n in range(8, 13):
            expected_pairs += 200 * sum(1 for _ in depth2_trees(n))
        assert rep.pairs == expected_pairs
        assert elapsed < 600


class TestAcceptance2LevelScan:
    """The ten-vertex gadget admits four-level assignments that are not
    level planar, while permuting branches onto bands restores one."""

    def test_certified_nonplanar_leveling_exists(self):
        start = time.monotonic()
        tree, certified = lemma1_tree()
        assert len(certified) >= 1
        lt = LevelTree.of(tree, certified[0])
        res = search_level_planar(lt, grid_width=10)
        assert res.status is LevelStatus.ExhaustedNone
        assert time.monotonic() - start < 300

    def test_permuted_leveling_found(self):
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 3, 3, 3, 3, 3, 3))
        res = search_level_planar(lt, grid_width=10)
        assert res.status is LevelStatus.Found


class TestAcceptance3RegionLevel:
    """Region-relative exhaustion on a certified leveling, against an
    unconstrained success on the same tree."""

    def test_flat_row_grid_exhausts(self):
        start = time.monotonic()
        tree, certified = lemma1_tree()
        phi = (1, 2, 2, 2, 1, 1, 1, 1, 3, 4)
        assert phi in certified
        lt = LevelTree.of(tree, phi)
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = [[Point(Fraction(x), Fraction(2 * i - 1, 2))
                 for x in range(1, 37)] for i in range(4)]
        assert all(len(pts) >= 36 for pts in grid)
        res = search_region_level_planar(lt, rs, grid)
        assert res.status is RegionStatus.ExhaustedNoneOverGrid
        assert time.monotonic() - start < 600

    def test_same_tree_unconstrained_found(self):
        inst = Instance(GADGET, PathGraph.of([4, 1, 7, 0, 5, 2, 8, 6, 3, 9]))
        pts = [Point(x, y) for x in range(4) for y in range(4)]
        res = search_embedding(inst, pts, budget=2_000_000)
        assert res.status is SearchStatus.Found


class TestAcceptance4GeneratorCounts:
    """Per-cell population formulas over the (s, x) lattice, and the
    full-scale per-formation cell counts."""

    def test_cell_counts_formulas(self):
        for s in (2, 3):
            for x in (1, 2):
                p = CounterexampleParams(s=s, x=x, y=2 * x if x > 1 else 2)
                rep = size_report(p)
                assert rep.cell_head_counts == (
                    1, 3 * (s - 1), 3 * (s - 2) * (s - 1))
                assert rep.cell_tail_counts == (
                    3 * (s - 1) ** 2, 9 * (s - 1) ** 3,
                    9 * (s - 2) * (s - 1) ** 3)
                assert rep.cell_stabilizers == 9 * (s - 1) ** 4

    def test_full_scale_cells_per_formation(self):
        p = CounterexampleParams(s=2, x=1, y=2)
        rep = size_report(p)
        assert rep.cells_per_formation == 592
        assert rep.cells_per_formation_per_joint == 148


class TestAcceptance5GeneratedInstances:
    """Desk-scale generated instances are depth-4 trees with simple
    spanning paths sharing no edge with the tree."""

    def test_lattice(self):
        for s, x in ((2, 1), (2, 2), (3, 1), (3, 2)):
            p = CounterexampleParams(
                s=s, x=x, y=2 * x if x > 1 else 2, formation_reps=2,
                formation_outer=1, sef_tuple=2, sef_efs=2, sef_reps=4,
                cap=500_000)
            inst, _plan = build_instance(p)
            assert max(inst.tree.depth) == 4
            n = inst.tree.n
            assert sorted(inst.path.order) == list(range(n))
            tree_edges = {frozenset(e) for e in inst.tree.edges()}
            path_edges = {frozenset(e) for e in inst.path.edges()}
            assert len(path_edges) == n - 1  # simple: no repeated edge
            assert not tree_edges & path_edges


class TestAcceptance6CrossChecks:
    """The two crossing-detection strategies agree, and the geometric
    predicates satisfy their algebraic axioms on random rational data."""

    @staticmethod
    def _rand_point(rng):
        return Point(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                     Fraction(rng.randint(-50, 50), rng.randint(1, 9)))

    def test_check_drawing_vs_all_pairs_random(self):
        rng = random.Random(2024)
        from simembed.model import Drawing

        for _ in range(1000):
            n = rng.randrange(3, 13)
            parent = [None] + [rng.randrange(v) for v in range(1, n)]
            order = list(range(n))
            rng.shuffle(order)
            inst = Instance(RootedTree.from_parent(parent),
                            PathGraph.of(order))
            pts = rng.sample([(x, y) for x in range(8) for y in range(8)], n)
            d = Drawing({v: Point(*pts[v]) for v in range(n)})
            edges = inst.tree.edges() + inst.path.edges()
            rep = check_drawing(edges, d)
            assert (rep.crossings, rep.vertex_on_edge) == \
                all_pairs_reference(edges, d), (parent, order, pts)

    def test_orient_antisymmetry(self):
        rng = random.Random(7)
        for _ in range(10_000):
            p, q, r = (self._rand_point(rng) for _ in range(3))
            a, b, c = int_coords((p, q, r))
            assert int_cross(a, b, c) == -int_cross(a, c, b)

    def test_segment_relation_symmetry(self):
        rng = random.Random(8)
        checked = 0
        while checked < 10_000:
            pts = [self._rand_point(rng) for _ in range(4)]
            if pts[0] == pts[1] or pts[2] == pts[3]:
                continue
            s1, s2 = Segment(pts[0], pts[1]), Segment(pts[2], pts[3])
            assert segment_relation(s1, s2) is segment_relation(s2, s1)
            checked += 1

    def test_convex_hull_idempotent(self):
        rng = random.Random(9)
        for _ in range(10_000):
            pts = [self._rand_point(rng)
                   for _ in range(rng.randrange(1, 9))]
            h = convex_hull(pts)
            assert convex_hull(h) == h


class TestAcceptance7AnalyzerWitnesses:
    """The structural analyzer reproduces, on hand-built drawings, every
    classification the obstruction argument relies on."""

    def test_passages_cross_at_least_two_separator_edges(self):
        inst, d, plan = passage_witness()
        passages = detect_passages(inst, d, plan)
        assert passages
        for p in passages:
            assert len(p.crossed_sep_edges) >= 2

    def test_every_passage_has_a_closed_door(self):
        inst, d, plan = passage_witness()
        for p in detect_passages(inst, d, plan):
            doors = enumerate_doors(p, inst, d)
            assert any(dr.status is DoorStatus.Closed for dr in doors)

    def test_bend_count_bounded_by_three(self):
        inst, d = zigzag_witness()
        ch = compute_channels(inst, d, [1, 2, 3])[0]
        assert ch.x == 3  # the bound is attained ...
        rng = random.Random(11)
        from simembed.model import Drawing
        chain = Instance(
            RootedTree.from_parent([None, 0, 0, 0, 1, 4, 5, 3, 7, 8, 2]),
            PathGraph.of([6, 5, 4, 1, 0, 2, 10, 3, 7, 8, 9]))
        for _ in range(25):  # ... and never exceeded
            n = chain.tree.n
            pts = rng.sample([(x, y) for x in range(-9, 10)
                              for y in range(-9, 10)], n)
            d2 = Drawing({v: Point(*pts[v]) for v in range(n)})
            try:
                chs = compute_channels(chain, d2, [1, 2, 3])
            except ValueError:
                continue
            for c in chs:
                assert 0 <= c.x <= 3
                assert len(c.segments) == c.x + 1

    def test_double_cut_channel_occupies_third_segment(self):
        inst, d = blocking_witness()
        chs = compute_channels(inst, d, [1, 2, 3, 4])
        ch2 = next(c for c in chs if c.joint == 2)
        a, b = d.point(17), d.point(18)

        def on_edge(t):
            return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

        cut = {segment_of(ch2, on_edge(Fraction(13, 20))),
               segment_of(ch2, on_edge(Fraction(7, 10)))}
        assert cut == {2, 3}
        seen = {segment_of(ch2, d.point(v)) for v in (21, 19, 20)}
        assert cut <= seen and seen - cut

    def test_cut_taxonomy_witnessed(self):
        inst, d = blocking_witness()
        chs = compute_channels(inst, d, [1, 2, 3, 4])
        assert any(e.kind is CutKind.BlockingCut
                   for e in detect_cuts(inst, d, chs))
        inst, d = double_cut_witness()
        chs = compute_channels(inst, d, [1, 2, 3])
        kinds = {e.edge: e.kind for e in detect_cuts(inst, d, chs)}
        assert kinds[(10, 11)] is CutKind.DoubleCutSimple
        assert kinds[(11, 12)] is CutKind.DoubleCutNonSimple

    def test_three_connection_kinds(self):
        inst, d = zigzag_witness()
        rep = classify_connections(compute_channels(inst, d, [1, 2, 3]), d)[0]
        assert rep.entries[(1, 3)] is ConnectionKind.OneSide
        inst, d = connection_low_witness()
        rep = classify_connections(compute_channels(inst, d, [1, 2, 3]), d)[0]
        assert rep.entries[(1, 3)] is ConnectionKind.TwoSideLow
        inst, d = connection_high_witness()
        rep = classify_connections(compute_channels(inst, d, [1, 2, 3]), d)[0]
        assert rep.entries[(1, 3)] is ConnectionKind.TwoSideHigh


class TestAcceptance8FullScaleParameters:
    """Exact big-integer evaluation of the full-scale parameter
    formulas, across the admissible range of x."""

    def test_formulas_across_range(self):
        for x in (1, 2, 3, 17, 10_000, X_CAP // 2, X_CAP):
            pp = compute_paper_parameters(x)
            assert pp.r == 2 ** 7 * 3 * x
            assert pp.y == comb(2 ** 7 * 3 * x + 2, 3)

    def test_x1_flagged_degenerate(self):
        assert compute_paper_parameters(1).degenerate
        assert not compute_paper_parameters(2).degenerate

    def test_cap_value(self):
        assert X_CAP == 7 * 3 ** 2 * 2 ** 23
