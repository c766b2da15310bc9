"""The placement engine against its per-point predecessor, and its
blocking masks against the predicates they cache.

`reference_place` is the engine as it was before blocking masks: every
placement re-tests every remaining point of every unplaced domain with
fresh predicate calls (`_blocked`).  The masked engine must explore the
same nodes in the same order, so status, node count and drawing agree on
every input, whether its mask memo starts empty or warm.
"""

import random
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import simembed.geom as geom
import simembed.leveltree as leveltree
import simembed.planarity as planarity
from simembed.geom import (_BAD, Point, Segment, int_coords, int_on_segment,
                           int_relation, segment_relation)
from simembed.leveltree import (LevelTree, RegionSystem, region_candidates,
                                search_level_planar, search_region_level_planar)
from simembed.model import Drawing, Instance, PathGraph, RootedTree
from simembed.planarity import (SearchResult, _Masks, _square_symmetries,
                                check_drawing, search_embedding)


def _blocked(q, p, ends, segs) -> bool:
    """Whether an unplaced vertex can no longer take q once a vertex is
    placed at p: q is p, or on a new edge from p to one of `ends`, or one
    of its segments (s, edges, points) meets an edge other than at a
    shared endpoint or passes through a point."""
    if q == p:
        return True
    for a in ends:
        if int_on_segment(q, a, p):
            return True
    for s, edges, points in segs:
        if q == s:
            return True
        for e, f in edges:
            if int_relation(s, q, e, f) in _BAD:
                return True
        for r in points:
            if int_on_segment(r, s, q):
                return True
    return False


def reference_place(order, cand, graphs, budget, none, after=None, icand=None):
    """The placement engine with per-point forward checking."""
    n = len(order)
    after = after or {}
    takers = Counter(map(id, cand))
    if any(len(c) < takers[id(c)] for c in cand):  # pigeonhole: no placement
        return SearchResult(none)
    if icand is None:
        lists = {id(c): c for c in cand}
        flat = iter(int_coords(p for c in lists.values() for p in c))
        ints = {k: [next(flat) for _ in c] for k, c in lists.items()}
        icand = [ints[id(c)] for c in cand]
    syms = _square_symmetries(icand)
    meta = {"square_symmetries": len(syms), "sibling_cuts": len(after)}
    nbrs = [[[] for _ in range(n)] for _ in graphs]
    for g, es in enumerate(graphs):
        for u, v in es:
            nbrs[g][u].append(v)
            nbrs[g][v].append(u)
    pos: list = [None] * n
    idx = [0] * n
    fixed: list[list] = [[] for _ in graphs]
    dom = [(1 << len(c)) - 1 for c in icand]
    root = order[0]
    at = {p: i for i, p in enumerate(icand[root])}
    dom[root] = sum(1 << i for i, p in enumerate(icand[root])
                    if all(i <= at[s[p]] for s in syms))
    nodes = 0

    def prune(v, p):
        pos[v] = p
        new = [(g, pos[x]) for g, nb in enumerate(nbrs) for x in nb[v]
               if pos[x] is not None]
        ends = [a for _, a in new]
        others = [q for q in pos if q is not None and q != p]
        saved = []
        for w in range(n):
            if pos[w] is not None:
                continue
            segs = [(p, fixed[g], others) if y == v else
                    (pos[y], [(a, p) for h, a in new if h == g], (p,))
                    for g, nb in enumerate(nbrs) for y in nb[w]
                    if pos[y] is not None]
            c, d, keep = icand[w], dom[w], dom[w]
            while d:
                bit = d & -d
                d ^= bit
                if _blocked(c[bit.bit_length() - 1], p, ends, segs):
                    keep ^= bit
            if keep != dom[w]:
                saved.append((w, dom[w]))
                dom[w] = keep
                if not keep:
                    undo(v, saved, ())
                    return None
        for g, a in new:
            fixed[g].append((a, p))
        return saved, new

    def undo(v, saved, new):
        for w, d in saved:
            dom[w] = d
        for g, _ in new:
            fixed[g].pop()
        pos[v] = None

    status, rest, steps = type(none), [], []
    while len(steps) < n:
        k = len(steps)
        v = order[k]
        if len(rest) == k:
            rest.append(dom[v] & (-2 << idx[after[v]]) if v in after else dom[v])
        d = rest[k]
        if not d:
            if not k:
                return SearchResult(none, None, nodes, metadata=meta)
            rest.pop()
            undo(order[k - 1], *steps.pop())
            continue
        i = (d & -d).bit_length() - 1
        rest[k] = d & (d - 1)
        nodes += 1
        if nodes > budget:
            return SearchResult(status.BudgetExceeded, None, budget, metadata=meta)
        idx[v] = i
        if (step := prune(v, icand[v][i])) is not None:
            steps.append(step)
    d = Drawing({v: cand[v][idx[v]] for v in range(n)})
    assert all(check_drawing(es, d).planar for es in graphs)
    return SearchResult(status.Found, d, nodes, metadata=meta)


def _tree(rng, lo, hi):
    n = rng.randint(lo, hi)
    return RootedTree.from_parent([None] + [rng.randrange(v) for v in range(1, n)])


def _leveled(rng):
    # up to 5 levels, so that long edges pass placed vertices and edges on
    # the rows between their ends
    t = _tree(rng, 2, 7)
    levels = range(1, rng.choice((2, 3, 4, 5)) + 1)
    phi = [rng.choice(levels)]
    for v in range(1, t.n):
        phi.append(rng.choice([x for x in levels if x != phi[t.parent[v]]]))
    return LevelTree.of(t, phi)


def _budget(rng):
    # a third of the cases run out of budget early
    return rng.randint(1, 12) if rng.random() < 1 / 3 else 400


def _cases(seed: int, count: int):
    """Seeded (label, thunk) pairs; each thunk runs one search through
    whichever engine is installed."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = i % 4
        budget = _budget(rng)
        if kind == 0:
            t = _tree(rng, 3, 5)
            inst = Instance(t, PathGraph.of(rng.sample(range(t.n), t.n)))
            w, h = rng.choice(((3, 3), (4, 3), (4, 4), (8, 1), (4, 2)))
            pts = [Point(x, y) for x in range(w) for y in range(h)]
            pts = rng.sample(pts, rng.randint(t.n, min(9, len(pts))))
            out.append(("embedding", lambda inst=inst, pts=pts, b=budget:
                        search_embedding(inst, pts, b)))
        elif kind == 1:
            lt = _leveled(rng)
            width = max(map(len, lt.levels().values())) + rng.randint(0, 2)
            out.append(("grid", lambda lt=lt, w=width, b=budget:
                        search_level_planar(lt, w, b, method="grid")))
        elif kind == 2:
            lt = _leveled(rng)
            rs = RegionSystem.horizontal(range(lt.k))
            grid = region_candidates(rs, per_axis=2, span=rng.choice((2, 3)))
            out.append(("region", lambda lt=lt, rs=rs, g=grid, b=budget:
                        search_region_level_planar(lt, rs, g, b)))
        else:
            # one shared list in a shuffled, non-lexicographic order, with
            # rational coordinates half of the time
            t = _tree(rng, 3, 5)
            graphs = [t.edges(), PathGraph.of(rng.sample(range(t.n), t.n)).edges()]
            scale = Fraction(1, rng.choice((1, 3)))
            pts = [Point(x * scale, y * scale) for x in range(3) for y in range(3)]
            rng.shuffle(pts)
            out.append(("shuffled", lambda t=t, g=graphs, pts=pts, b=budget:
                        planarity._place(t.preorder(), [pts] * t.n, g, b,
                                         planarity.SearchStatus.ProvedNone)))
    return out


def _answer(res):
    return (res.status, res.nodes, res.drawing and res.drawing.pos)


class TestAgainstReference:
    def test_same_answers_cold_and_warm(self, monkeypatch):
        cases = _cases(seed=18, count=2000)
        got = []
        for _, run in cases:
            planarity._shared.cache_clear()
            cold = run()
            got.append((_answer(cold), _answer(run())))
        monkeypatch.setattr(planarity, "_place", reference_place)
        monkeypatch.setattr(leveltree, "_place", reference_place)
        kinds = {}
        for (label, run), (cold, warm) in zip(cases, got):
            expect = _answer(run())
            assert cold == expect, label
            assert warm == expect, label
            kinds.setdefault(label, set()).add(expect[0].name)
        # each search meets all three outcomes, but for the shuffled 3x3
        # cases, where no tree of 5 or fewer vertices is proved none
        assert {k: len(v) for k, v in kinds.items()} == {
            "embedding": 3, "grid": 3, "region": 3, "shuffled": 2}

    def test_gadget_counts_are_the_same_cold_and_warm(self):
        inst = Instance(RootedTree.from_parent([None, 0, 0, 0, 1, 2, 3, 1, 2, 3]),
                        PathGraph.of([9, 4, 8, 3, 7, 2, 6, 1, 5, 0]))
        grid = [Point(x, y) for x in range(4) for y in range(4)]
        planarity._shared.cache_clear()
        cold = search_embedding(inst, grid)
        warm = search_embedding(inst, grid)
        assert cold.nodes == warm.nodes == 254
        assert cold.metadata["masks_filled"] > 0 == warm.metadata["masks_filled"]
        total = cold.metadata["masks_filled"] + cold.metadata["masks_reused"]
        assert warm.metadata["masks_reused"] == total


class TestRecheck:
    def test_a_drawing_that_fails_the_recheck_raises(self, monkeypatch):
        # masks that block nothing let K1,3 put a leaf on the edge from
        # the centre to another leaf; the closing sweep must catch it
        inst = Instance(RootedTree.from_parent([None, 0, 0, 0]), PathGraph.of([1, 0, 2, 3]))
        grid = [Point(x, y) for x in range(3) for y in range(3)]
        planarity._shared.cache_clear()
        monkeypatch.setattr(_Masks, "fill", lambda self, key, v, need: v | need << self.m)
        try:
            with pytest.raises(AssertionError):
                search_embedding(inst, grid)
        finally:
            planarity._shared.cache_clear()


def _grids():
    shift = (Fraction(1, 3), Fraction(2, 7))
    return {"3x3": [Point(x, y) for x in range(3) for y in range(3)],
            "4x4": [Point(x, y) for x in range(4) for y in range(4)],
            "rational": [Point(Fraction(x, 3) + shift[0], Fraction(y, 5) + shift[1])
                         for x in range(4) for y in range(3)]}


class TestMasksExhaustive:
    @pytest.mark.parametrize("name", ["3x3", "4x4", "rational"])
    def test_every_mask_is_its_predicate(self, name):
        pts = _grids()[name]
        c = int_coords(pts)
        m = len(c)
        table = _Masks(c)
        full = (1 << m) - 1
        evens = sum(1 << j for j in range(0, m, 2))

        def masks(key):
            # filled whole, and in two halves: both give the mask, with
            # every point marked as tested above it
            whole = table.fill(key, 0, full)
            assert table.fill(key, table.fill(key, 0, evens), full & ~evens) == whole
            assert whole >> m == full
            return whole & full

        def bits(pred):
            return sum(1 << j for j, q in enumerate(c) if pred(q))

        for e, f in product(range(m), repeat=2):
            a, b = c[e], c[f]
            assert masks(e * m + f) == bits(lambda q: int_on_segment(q, a, b))
            for s in range(m):
                x = c[s]
                assert masks((m + 1) * m * m + s * m + e) == bits(
                    lambda q: q == x or int_on_segment(a, x, q))
                if e != f:
                    assert masks((s + 1) * m * m + e * m + f) == bits(
                        lambda q: q == x or int_relation(x, q, a, b) in _BAD)
        if name == "rational":
            # the points scaled once agree with the Point predicates, which
            # scale their own arguments
            for s, e, f in product(range(m), repeat=3):
                if e == f:
                    continue
                want = sum(1 << j for j, q in enumerate(pts) if q == pts[s] or
                           segment_relation(Segment(pts[s], q),
                                            Segment(pts[e], pts[f])) in _BAD)
                assert masks((s + 1) * m * m + e * m + f) == want


class TestMaskMemo:
    def test_bounded_over_many_grids(self):
        inst = Instance(RootedTree.from_parent([None, 0, 0, 1, 1]),
                        PathGraph.of([3, 1, 4, 0, 2]))
        planarity._shared.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for k in range(50):
                grid = [Point(x + k, y) for x in range(4) for y in range(4)]
                search_embedding(inst, grid)
            size = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert planarity._shared.cache_info().currsize <= planarity._MEMO_LISTS
        # the last grids' tables come back from the memo (a new one is
        # empty), each within the cap
        for k in range(50 - planarity._MEMO_LISTS, 50):
            grid = [Point(x + k, y) for x in range(4) for y in range(4)]
            table = planarity._shared(tuple(int_coords(grid)))[0]
            assert 0 < len(table) <= planarity._MEMO_MASKS
        assert size < 2 * 2 ** 20

    def test_a_search_keeps_at_most_the_cap(self, monkeypatch):
        # past the cap a search fills masks without keeping them, so its
        # memory on a 10x10 grid does not grow with the budget, and its
        # answer is that of a search that keeps them all
        inst = Instance(RootedTree.from_parent([None, 0, 0, 1, 0, 3, 3, 3, 6, 3, 1, 7]),
                        PathGraph.of([9, 3, 4, 8, 1, 5, 2, 7, 11, 10, 6, 0]))
        grid = [Point(x, y) for x in range(10) for y in range(10)]
        planarity._shared.cache_clear()
        expect = _answer(search_embedding(inst, grid, budget=2000))
        cap = 500
        monkeypatch.setattr(planarity, "_MEMO_MASKS", cap)
        for budget in (1000, 2000):
            planarity._shared.cache_clear()
            tracemalloc.start()
            try:
                res = search_embedding(inst, grid, budget=budget)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.metadata["masks_filled"] > 2 * cap
            assert planarity._shared.cache_info().currsize == 1
            table = planarity._shared(tuple(int_coords(grid)))[0]
            assert len(table) == cap
            # 83 KB on Python 3.11 at either budget; 244 KB with the
            # default cap at budget 2,000
            assert peak < 120 * 2 ** 10
        assert _answer(res) == expect

    def test_the_cap_holds_across_searches(self, monkeypatch):
        # the cap bounds each memo table, not each search: a later search
        # on the same grid reuses the kept masks and keeps no new ones
        inst = Instance(RootedTree.from_parent([None, 0, 0, 1, 0, 3, 3, 3, 6, 3, 1, 7]),
                        PathGraph.of([9, 3, 4, 8, 1, 5, 2, 7, 11, 10, 6, 0]))
        grid = [Point(x, y) for x in range(10) for y in range(10)]
        budgets = (1000, 2000)
        expect = []
        for budget in budgets:
            planarity._shared.cache_clear()
            expect.append(_answer(search_embedding(inst, grid, budget=budget)))
        cap = 500
        monkeypatch.setattr(planarity, "_MEMO_MASKS", cap)
        planarity._shared.cache_clear()
        key = tuple(int_coords(grid))
        for budget, want in zip(budgets, expect):
            res = search_embedding(inst, grid, budget=budget)
            assert len(planarity._shared(key)[0]) == cap
            assert _answer(res) == want
        assert planarity._shared.cache_info().currsize == 1
        assert res.metadata["masks_reused"] > 0 and res.metadata["masks_filled"] > cap


class TestMemoThreads:
    def test_threads_share_the_memo(self):
        # more threads than cores, and more grids than the memo keeps, so
        # that lookups, fills and evictions interleave
        inst = Instance(RootedTree.from_parent([None, 0, 0, 1, 1]),
                        PathGraph.of([3, 1, 4, 0, 2]))
        grids = [[Point(x + k, y) for x in range(3 + k % 2) for y in range(4)]
                 for k in range(6)]
        planarity._shared.cache_clear()
        def answer(res):
            # every search counts its own mask lookups and fills
            meta = res.metadata
            assert meta["masks_filled"] >= 0 and meta["masks_reused"] >= 0
            return _answer(res), meta["masks_filled"] + meta["masks_reused"]

        expect = [answer(search_embedding(inst, g)) for g in grids]
        got, errors = [], []

        def work(shift):
            try:
                for r in range(10):
                    k = (shift + r) % len(grids)
                    got.append((k, answer(search_embedding(inst, grids[k]))))
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(got) == 40 and all(a == expect[k] for k, a in got)
        assert planarity._shared.cache_info().currsize <= planarity._MEMO_LISTS


def _chain(n: int) -> LevelTree:
    return LevelTree.of(RootedTree.from_parent([None] + list(range(n - 1))),
                        list(range(1, n + 1)))


class TestChainGridSearch:
    def test_predicate_calls_grow_linearly(self, monkeypatch):
        # one node per level; the masks of far rows are never filled
        calls = [0]

        def counted(f):
            def g(*args):
                calls[0] += 1
                return f(*args)
            return g

        monkeypatch.setattr(planarity, "int_relation", counted(geom.int_relation))
        monkeypatch.setattr(planarity, "int_on_segment", counted(geom.int_on_segment))
        counts = []
        for n in (200, 400):
            calls[0] = 0
            res = search_level_planar(_chain(n), 2, method="grid")
            assert (res.status.name, res.nodes) == ("Found", n)
            counts.append(calls[0])
        assert 0 < counts[1] <= 2.1 * counts[0]
