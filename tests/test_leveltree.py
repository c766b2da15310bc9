import hashlib
import random
from fractions import Fraction
from itertools import permutations, product
from math import inf

import pytest

from simembed.geom import Line, Point
from simembed.leveltree import (
    LevelStatus,
    LevelTree,
    RegionStatus,
    RegionSystem,
    _ordering_oracle,
    _shape_ids,
    _sibling_cut,
    check_level_drawing,
    lemma1_tree,
    region_candidates,
    search_level_planar,
    search_region_level_planar,
)
from simembed.model import RootedTree

GADGET = RootedTree.from_parent([None, 0, 0, 0, 1, 2, 3, 1, 2, 3])


class TestLevelTree:
    def test_rejects_same_level_edge(self):
        t = RootedTree.from_parent([None, 0])
        with pytest.raises(ValueError):
            LevelTree.of(t, [1, 1])

    def test_rejects_wrong_length(self):
        t = RootedTree.from_parent([None, 0])
        with pytest.raises(ValueError):
            LevelTree.of(t, [1])

    def test_adjacent_only(self):
        t = RootedTree.from_parent([None, 0, 1])
        assert LevelTree.of(t, [1, 2, 3]).adjacent_only()
        assert not LevelTree.of(t, [1, 3, 2]).adjacent_only()

    def test_levels_grouping(self):
        t = RootedTree.from_parent([None, 0, 0])
        assert LevelTree.of(t, [1, 2, 2]).levels() == {1: [0], 2: [1, 2]}


class TestSearchLevelPlanar:
    def test_path_found(self):
        t = RootedTree.from_parent([None, 0, 1])
        res = search_level_planar(LevelTree.of(t, [1, 2, 3]), grid_width=3)
        assert res.status is LevelStatus.Found
        assert check_level_drawing(LevelTree.of(t, [1, 2, 3]), res.drawing).planar

    def test_certified_nonplanar_leveling(self):
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        res = search_level_planar(lt, grid_width=10)
        assert res.status is LevelStatus.ExhaustedNone
        assert "continuum" in res.note

    def test_grid_agrees_with_oracle_on_nonplanar(self):
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        res = search_level_planar(lt, grid_width=6, method="grid")
        assert res.status is LevelStatus.ExhaustedNone

    def test_width_too_small_rejected(self):
        t = RootedTree.from_parent([None, 0, 0, 0])
        with pytest.raises(ValueError):
            search_level_planar(LevelTree.of(t, [1, 2, 2, 2]), grid_width=2)

    def test_budget(self):
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        res = search_level_planar(lt, grid_width=6, budget=5, method="grid")
        assert res.status is LevelStatus.BudgetExceeded

    def test_unknown_method(self):
        t = RootedTree.from_parent([None, 0])
        with pytest.raises(ValueError):
            search_level_planar(LevelTree.of(t, [1, 2]), 2, method="nope")

    def test_combinatorial_vs_grid_random_adjacent_only(self):
        # on adjacent-level-only trees the ordering oracle is exact both
        # ways, so the two methods must agree on Found / ExhaustedNone
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(4, 9)
            parent = [None] + [rng.randrange(v) for v in range(1, n)]
            t = RootedTree.from_parent(parent)
            phi = [0] * n
            phi[0] = 3
            for v in range(1, n):
                lo = phi[parent[v]]
                phi[v] = lo + rng.choice((-1, 1))
                if phi[v] < 1:
                    phi[v] = lo + 1
            lt = LevelTree.of(t, phi)
            a = search_level_planar(lt, grid_width=n, method="combinatorial")
            b = search_level_planar(lt, grid_width=n, method="grid")
            assert a.status is b.status, (parent, phi)

    def test_auto_out_of_budget_in_the_oracle(self):
        # the oracle needs more than 400 nodes here, and the grid search
        # alone would find a drawing after 260: auto has no budget left
        lt = LevelTree.of(GADGET, (1, 3, 2, 4, 1, 4, 3, 1, 4, 1))
        for method in ("combinatorial", "auto"):
            res = search_level_planar(lt, 10, budget=400, method=method)
            assert res.status is LevelStatus.BudgetExceeded
            assert res.nodes == 400

    def test_auto_grid_gets_what_the_oracle_left(self):
        # long edges: the oracle is inconclusive and auto falls back to
        # the grid, which may spend only the rest of the one budget
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 1, 1, 3, 3, 3, 4))
        comb = search_level_planar(lt, 6, method="combinatorial")
        assert "inconclusive" in comb.note
        grid = search_level_planar(lt, 6, method="grid")
        assert grid.status is LevelStatus.Found
        total = comb.nodes + grid.nodes
        res = search_level_planar(lt, 6, budget=total)
        assert res.status is LevelStatus.Found and res.nodes == total
        res = search_level_planar(lt, 6, budget=total - 1)
        assert res.status is LevelStatus.BudgetExceeded


def _oracle_corpus():
    """300 surjective gadget 4-levelings and 300 random leveled trees with
    n <= 12, drawn from one seed."""
    rng = random.Random(2010)
    cases = []
    while len(cases) < 600:
        if len(cases) < 300:
            t, k = GADGET, 4
        else:
            n = rng.randint(2, 12)
            t = RootedTree.from_parent([None] + [rng.randrange(v) for v in range(1, n)])
            k = rng.randint(2, 6)
        phi = [rng.randint(1, k) for _ in range(t.n)]
        if t is GADGET and len(set(phi)) < 4:
            continue
        if all(phi[u] != phi[v] for u, v in t.edges()):
            cases.append(LevelTree.of(t, phi))
    return cases


def _subtree_shape(t: RootedTree, phi, v) -> tuple:
    """Reference: v's leveled subtree as nested tuples, children sorted."""
    return (phi[v], tuple(sorted(_subtree_shape(t, phi, c) for c in t.children(v))))


def _random_leveled_trees(count: int, seed: int):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 12)
        t = RootedTree.from_parent([None] + [rng.randrange(v) for v in range(1, n)])
        k = rng.randint(2, 5)
        phi = [rng.randint(1, k) for _ in range(n)]
        if all(phi[u] != phi[v] for u, v in t.edges()):
            cases.append(LevelTree.of(t, phi))
    return cases


class TestShapeIds:
    def test_equal_ids_exactly_for_equal_shapes(self):
        # one `ids` across every vertex of every leveling: equal reference
        # shapes get one id, and distinct shapes distinct ids
        ids, id_of = {}, {}
        for lt in _oracle_corpus() + _random_leveled_trees(500, 16):
            got = _shape_ids(lt.tree, lt.phi, ids)
            for v in range(lt.tree.n):
                ref = _subtree_shape(lt.tree, lt.phi, v)
                assert id_of.setdefault(ref, got[v]) == got[v]
        assert len(set(id_of.values())) == len(id_of) == len(ids)


class TestOracleExploration:
    # the digest of every answer, node count and drawing on the corpus,
    # recorded from the edge-pair oracle the frontier test replaced
    DIGEST = "8b4c678aea9791bee1f8a3f637d7294b4d714c781a191717240ffdda30f3a9b7"

    def test_answers_and_node_counts_are_pinned(self):
        h = hashlib.sha256()
        for lt in _oracle_corpus():
            res = search_level_planar(lt, lt.tree.n, budget=30_000,
                                      method="combinatorial")
            pos = res.drawing.pos if res.drawing else {}
            h.update(f"{res.status.value} {res.nodes} {res.note} "
                     f"{sorted(pos.items())}\n".encode())
        assert h.hexdigest() == self.DIGEST


def _leaf_subdivide(t: LevelTree):
    """Reference: the subdivision with each dummy's leaf (its tree edge's
    child) in place of the `after` map."""
    rank = {lv: i for i, lv in enumerate(sorted(set(t.phi)))}
    lev = [rank[x] for x in t.phi]
    levels = [[] for _ in rank]
    for v in range(t.tree.n):
        levels[lev[v]].append(v)
    up = [[] for _ in range(t.tree.n)]
    leaf = {}
    for u, v in t.tree.edges():
        a, b = (u, v) if lev[u] < lev[v] else (v, u)
        for level in range(lev[a] + 1, lev[b]):
            d = len(up)
            leaf[d] = v
            levels[level].append(d)
            up.append([a])
            a = d
        up[b].append(a)
    return levels, up, leaf


def _tagged_oracle(t: LevelTree, budget: int):
    """Reference: the ordering oracle that tags each vertex with its leaf
    and keeps, per open slot, the tags already on the level."""
    levels, up, leaf = _leaf_subdivide(t)
    sym_later = {v: u for v, u in _sibling_cut(t).items()
                 if not t.tree.children(v)}

    def tag(v):
        return leaf.get(v, v)

    slots = [(lv, k) for lv, members in enumerate(levels) for k in range(len(members))]
    pos, span, stack, nodes = {}, {}, [], 0
    while len(pos) < len(slots):
        lv, k = slots[len(pos)]
        if len(stack) == len(pos):
            if k == 0:
                for w in levels[lv]:
                    ps = [pos[u] for u in up[w]]
                    span[w] = (min(ps, default=inf), max(ps, default=-1))
            stack.append((iter(levels[lv]), max(hi, span[v][1]) if k else -1,
                          tags | {tag(v)} if k else set()))
        cursor, hi, tags = stack[-1]
        for v in cursor:
            if v in pos:
                continue
            nodes += 1
            if nodes > budget:
                return None, nodes
            first = sym_later.get(tag(v))
            if first is not None and first not in tags:
                continue
            if span[v][0] >= hi:
                break
        else:
            stack.pop()
            if not stack:
                return None, nodes
            pos.popitem()
            continue
        pos[v] = k
    return pos, nodes


def _twin_leaf_trees(count: int, seed: int):
    """Random leveled trees with n <= 13 and at most 7 levels; every other
    one hangs its last two or three vertices as leaves on one level from
    one vertex, with a used level strictly between them and that vertex."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n, k = rng.randint(2, 13), rng.randint(2, 7)
        parent = [None] + [rng.randrange(v) for v in range(1, n)]
        phi = [rng.randint(1, k) for _ in range(n)]
        if len(cases) % 2 == 0:
            m = rng.randint(2, 3)
            if n - m < 2:
                continue
            p, lv = rng.randrange(n - m), rng.randint(1, k)
            for v in range(n - m, n):
                parent[v], phi[v] = p, lv
            lo, hi = sorted((phi[p], lv))
            if not any(lo < x < hi for x in phi):
                continue
        t = RootedTree.from_parent(parent)
        if all(phi[u] != phi[v] for u, v in t.edges()):
            cases.append(LevelTree.of(t, phi))
    return cases


class TestOracleReference:
    def test_orderings_and_nodes_match_the_tagged_oracle(self):
        twins = 0
        for lt in _twin_leaf_trees(1200, 17):
            leaf = _leaf_subdivide(lt)[2]
            cut = {v for pair in _sibling_cut(lt).items() for v in pair
                   if not lt.tree.children(v)}
            twins += len(cut & set(leaf.values())) >= 2
            assert _ordering_oracle(lt, 5_000) == _tagged_oracle(lt, 5_000), lt
        assert twins >= 600


def gadget_automorphisms():
    # permute the three depth-1 subtrees and swap the two leaves within
    # each; 6 * 2^3 = 48 maps
    branches = [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
    autos = []
    for sigma in permutations(range(3)):
        for sw in product((0, 1), repeat=3):
            perm = {0: 0}
            for i in range(3):
                c1, a1, b1 = branches[i]
                c2, a2, b2 = branches[sigma[i]]
                perm[c1] = c2
                perm[a1], perm[b1] = (b2, a2) if sw[i] else (a2, b2)
            autos.append(tuple(perm[v] for v in range(10)))
    return autos


class TestLemma1Scan:
    def test_certified_list_nonempty_and_valid(self):
        tree, certified = lemma1_tree()
        assert tree.parent == GADGET.parent
        assert certified
        for phi in certified[:3]:
            lt = LevelTree.of(tree, phi)
            res = search_level_planar(lt, grid_width=10)
            assert res.status is LevelStatus.ExhaustedNone

    def test_permuted_leveling_planar(self):
        # pushing each branch onto its own band is drawable
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 3, 3, 3, 3, 3, 3))
        res = search_level_planar(lt, grid_width=10)
        assert res.status is LevelStatus.Found

    def test_certified_entries_are_canonical_and_surjective(self):
        _, certified = lemma1_tree()
        for phi in certified:
            assert set(phi) == {1, 2, 3, 4}
            rev = tuple(5 - x for x in phi)
            assert phi <= rev

    def test_one_least_leveling_per_orbit(self):
        # reference: the gadget's automorphisms written out by hand
        tree, certified = lemma1_tree()
        autos = gadget_automorphisms()
        edges = {frozenset(e) for e in tree.edges()}
        assert len(set(autos)) == 48
        for a in autos:
            assert {frozenset((a[u], a[v])) for u, v in edges} == edges
        assert len(certified) == 171 and certified == sorted(certified)
        seen = set()
        for phi in certified:
            orbit = set()
            for a in autos:
                img = [0] * 10
                for v in range(10):
                    img[a[v]] = phi[v]
                orbit |= {tuple(img), tuple(5 - x for x in img)}
            assert phi == min(orbit)
            assert not orbit & seen
            seen |= orbit


class TestRegionSystem:
    def test_horizontal_positions(self):
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        assert rs.positions() == [0, 1, 2, 3]

    def test_non_parallel_rejected(self):
        with pytest.raises(ValueError, match=r"lines cross \(non-parallel pair\)"):
            RegionSystem.of([Line(0, 1, 0), Line(1, 0, 1)])

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="lines 0 and 1 out of order"):
            RegionSystem.horizontal([1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty region system"):
            RegionSystem.of([])

    def test_candidates_strictly_interior(self):
        rs = RegionSystem.horizontal([0, 1, 2])
        grid = region_candidates(rs, per_axis=4, span=3)
        assert len(grid) == 3
        for i, pts in enumerate(grid):
            for p in pts:
                below = rs.lines[i].side(p)
                assert below < 0  # strictly before line i
                if i > 0:
                    assert rs.lines[i - 1].side(p) > 0

    def test_candidate_count(self):
        rs = RegionSystem.horizontal([0, 1])
        grid = region_candidates(rs, per_axis=6, span=6)
        assert all(len(pts) == 36 for pts in grid)


def _leveled_trees_with_rows(count: int, seed: int):
    """Random leveled trees with n <= 9 and at most 5 levels, each with a
    row width from its widest level to two more."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n, k = rng.randint(1, 9), rng.randint(2, 5)
        t = RootedTree.from_parent([None] + [rng.randrange(v) for v in range(1, n)])
        phi = [rng.randint(1, k) for _ in range(n)]
        if all(phi[u] != phi[v] for u, v in t.edges()):
            lt = LevelTree.of(t, phi)
            cases.append((lt, max(map(len, lt.levels().values())) + rng.randint(0, 2)))
    return cases


class TestOnePath:
    def test_level_search_and_flat_row_region_search_agree(self):
        # the level rows (x, l), x in 1..W, each strictly inside the strip
        # between the lines y = l - 1/2 and y = l + 1/2: both searches run
        # the oracle, then the placement search on the same lists
        same = {LevelStatus.Found: RegionStatus.Found,
                LevelStatus.ExhaustedNone: RegionStatus.ExhaustedNoneOverGrid,
                LevelStatus.BudgetExceeded: RegionStatus.BudgetExceeded}
        seen = set()
        for lt, w in _leveled_trees_with_rows(100, 21):
            rs = RegionSystem.horizontal([Fraction(2 * l + 1, 2) for l in range(1, lt.k + 1)])
            grid = [[Point(x, l) for x in range(1, w + 1)] for l in range(1, lt.k + 1)]
            for budget in (50, 500, 20_000):
                a = search_level_planar(lt, w, budget)
                b = search_region_level_planar(lt, rs, grid, budget)
                assert (same[a.status], a.nodes, a.drawing) == (b.status, b.nodes, b.drawing)
                assert a.metadata["oracle_nodes"] == b.metadata["oracle_nodes"]
                seen.add((a.status, lt.adjacent_only()))
        assert (LevelStatus.Found, True) in seen and len(seen) >= 4

    def test_flat_rows_draw_from_the_orderings(self):
        # an adjacent-level-only tree: the orderings are the drawing, each
        # row's points taken in lexicographic order, after the oracle's nodes
        lt = LevelTree.of(RootedTree.from_parent([None, 0]), (2, 1))
        rs = RegionSystem.horizontal([Fraction(3, 2), Fraction(5, 2)])
        grid = [[Point(x, l) for x in (3, 1, 2)] for l in (1, 2)]
        res = search_region_level_planar(lt, rs, grid)
        assert (res.status, res.nodes, res.note) == (RegionStatus.Found, 2, "ordering oracle")
        assert res.drawing.pos == {0: Point(1, 2), 1: Point(1, 1)}
        assert res.metadata["flat_rows"] and res.metadata["oracle_nodes"] == 2

    def test_flat_row_continuum_negative_carries_the_note(self):
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = [[Point(x, Fraction(2 * i - 1, 2)) for x in range(1, 8)] for i in range(4)]
        level = search_level_planar(lt, 7)
        res = search_region_level_planar(lt, rs, grid)
        assert res.status is RegionStatus.ExhaustedNoneOverGrid
        assert res.note == level.note == "ordering oracle: nonplanar over the continuum"
        assert res.metadata["claim"].startswith("flat-row grid")

    def test_level_answers_report_the_oracle_nodes(self):
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 1, 1, 3, 3, 3, 4))
        comb = search_level_planar(lt, 6, method="combinatorial")
        assert comb.metadata["oracle_nodes"] == comb.nodes
        auto = search_level_planar(lt, 6)
        assert auto.metadata["oracle_nodes"] == comb.nodes < auto.nodes
        assert "oracle_nodes" not in search_level_planar(lt, 6, method="grid").metadata


class TestRegionSearch:
    def test_small_found(self):
        t = RootedTree.from_parent([None, 0, 1])
        lt = LevelTree.of(t, [1, 2, 3])
        rs = RegionSystem.horizontal([0, 1, 2])
        grid = region_candidates(rs, per_axis=3, span=3)
        res = search_region_level_planar(lt, rs, grid)
        assert res.status is RegionStatus.Found

    def test_level_planar_implies_region_planar(self):
        # any level-planar leveling must stay drawable in regions, which
        # are strictly more permissive than lines
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 3, 3, 3, 3, 3, 3))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = region_candidates(rs, per_axis=3, span=4)
        res = search_region_level_planar(lt, rs, grid)
        assert res.status is RegionStatus.Found

    def test_flat_row_grid_on_certified_leveling_exhausts(self):
        # one horizontal row of candidates per region: every placement is
        # a level drawing, so the continuum certificate empties the grid
        tree, certified = lemma1_tree()
        phi = (1, 2, 2, 2, 1, 1, 1, 1, 3, 4)
        assert phi in certified
        lt = LevelTree.of(tree, phi)
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = [[Point(Fraction(x), Fraction(2 * i - 1, 2))
                 for x in range(1, 37)] for i in range(4)]
        res = search_region_level_planar(lt, rs, grid)
        assert res.status is RegionStatus.ExhaustedNoneOverGrid
        assert res.metadata["flat_rows"]
        assert all(c == 36 for c in res.metadata["per_region_candidates"])

    def test_wide_grid_admits_drawing_for_same_leveling(self):
        # with two interior rows per region the same leveling becomes
        # drawable: regions are strictly weaker than lines
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = region_candidates(rs, per_axis=4, span=4)
        res = search_region_level_planar(lt, rs, grid, budget=50_000_000)
        assert res.status is RegionStatus.Found

    def test_flat_rows_spend_one_budget(self):
        # the ordering oracle spends 485 nodes and finds orderings, then
        # the placement search finds a drawing after 112 more
        lt = LevelTree.of(GADGET, (1, 3, 2, 4, 1, 4, 3, 1, 4, 1))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = [[Point(Fraction(x), Fraction(2 * i - 1, 2)) for x in range(1, 8)]
                for i in range(4)]
        res = search_region_level_planar(lt, rs, grid, budget=597)
        assert (res.status, res.nodes) == (RegionStatus.Found, 597)
        assert res.metadata["oracle_nodes"] == 485
        res = search_region_level_planar(lt, rs, grid, budget=596)
        assert res.status is RegionStatus.BudgetExceeded
        res = search_region_level_planar(lt, rs, grid, budget=100)
        assert (res.status, res.nodes) == (RegionStatus.BudgetExceeded, 100)

    def test_flat_rows_out_of_budget_report_the_budget(self):
        # the oracle runs out: its nodes and the answer's are the budget
        lt = LevelTree.of(GADGET, (1, 3, 2, 4, 1, 4, 3, 1, 4, 1))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = [[Point(Fraction(x), Fraction(2 * i - 1, 2)) for x in range(1, 8)]
                for i in range(4)]
        res = search_region_level_planar(lt, rs, grid, budget=100)
        assert (res.status, res.nodes) == (RegionStatus.BudgetExceeded, 100)
        assert res.metadata["flat_rows"]
        assert res.metadata["oracle_nodes"] == res.metadata["nodes"] == 100

    def test_rejects_a_region_that_repeats_a_candidate(self):
        lt = LevelTree.of(RootedTree.from_parent([None, 0, 1]), [1, 2, 3])
        rs = RegionSystem.horizontal([0, 1, 2])
        grid = region_candidates(rs, per_axis=3, span=3)
        grid[1] = grid[1] + grid[1][:1]
        with pytest.raises(ValueError, match="region 2 repeats a candidate"):
            search_region_level_planar(lt, rs, grid)

    def test_an_empty_candidate_list_answers_at_once(self):
        # region 4 takes a vertex and has no point: no placement, 0 nodes
        lt = LevelTree.of(GADGET, (1, 2, 2, 2, 3, 3, 3, 3, 3, 4))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = region_candidates(rs, per_axis=3, span=3)
        grid[3] = []
        for budget in (10, 10_000):
            res = search_region_level_planar(lt, rs, grid, budget=budget)
            assert (res.status, res.nodes) == (RegionStatus.ExhaustedNoneOverGrid, 0)
            assert res.metadata["per_region_candidates"] == [9, 9, 9, 0]

    def test_rejects_a_grid_without_one_list_per_region(self):
        lt = LevelTree.of(RootedTree.from_parent([None, 0, 1]), [1, 2, 3])
        rs = RegionSystem.horizontal([0, 1, 2])
        grid = region_candidates(rs, per_axis=3, span=3)
        with pytest.raises(ValueError, match="one candidate list per region"):
            search_region_level_planar(lt, rs, grid[:2])

    def test_rejects_a_level_without_a_region(self):
        # phi names level 3 of a 2-line system: a ValueError, not a KeyError
        lt = LevelTree.of(RootedTree.from_parent([None, 0]), (1, 3))
        rs = RegionSystem.horizontal([1, 2])
        grid = region_candidates(rs, per_axis=2, span=2)
        with pytest.raises(ValueError, match="level 3 has no region"):
            search_region_level_planar(lt, rs, grid)

    def test_rejects_a_candidate_outside_its_region(self):
        lt = LevelTree.of(RootedTree.from_parent([None, 0, 1]), [1, 2, 3])
        rs = RegionSystem.horizontal([0, 1, 2])
        grid = region_candidates(rs, per_axis=3, span=3)
        grid[2] = grid[2] + [Point(1, 1)]  # on line 2, not inside region 3
        with pytest.raises(ValueError, match="not strictly inside region 3"):
            search_region_level_planar(lt, rs, grid)

    def test_exhausted_reports_grid_metadata(self):
        lt = LevelTree.of(GADGET, (2, 4, 4, 3, 1, 1, 1, 1, 1, 1))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        grid = region_candidates(rs, per_axis=3, span=3)
        res = search_region_level_planar(lt, rs, grid)
        assert res.status is RegionStatus.ExhaustedNoneOverGrid
        assert "grid" in str(res.metadata).lower()
