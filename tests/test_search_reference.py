"""Differential tests of the three exhaustive searches against brute force.

The reference tries every injective map of the vertices to their
candidate points and judges each one with check_drawing, the definition
of a valid drawing.  Inputs stay small (n <= 5, at most 8 points per
vertex) so that the full enumeration is cheap; collinear point rows are
drawn on purpose, because they are where a wrong symmetry cut or a wrong
vertex-on-edge test shows.
"""

from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from simembed.geom import Point
from simembed.leveltree import (
    LevelStatus,
    LevelTree,
    RegionStatus,
    RegionSystem,
    region_candidates,
    search_level_planar,
    search_region_level_planar,
)
from simembed.model import Drawing, Instance, PathGraph, RootedTree
from simembed.planarity import SearchStatus, check_drawing, search_embedding


def brute_force(cands, graphs) -> bool:
    """Whether some injective map v -> cands[v] draws every edge list in
    `graphs` planar."""
    for pick in product(*cands):
        if len(set(pick)) < len(pick):
            continue
        d = Drawing(dict(enumerate(pick)))
        if all(check_drawing(edges, d).planar for edges in graphs):
            return True
    return False


@st.composite
def trees(draw, min_n=1):
    n = draw(st.integers(min_n, 5))
    return RootedTree.from_parent(
        [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)])


@st.composite
def embedding_cases(draw):
    t = draw(trees(min_n=3))
    path = draw(st.permutations(range(t.n)))
    # a 4x3 block, or one or two collinear rows
    height = draw(st.sampled_from((3, 1, 2)))
    width = 4 if height == 3 else 8 // height
    pts = draw(st.sets(st.tuples(st.integers(0, width - 1),
                                 st.integers(0, height - 1)),
                       min_size=t.n, max_size=min(8, width * height)))
    return Instance(t, PathGraph.of(path)), [Point(x, y) for x, y in sorted(pts)]


@st.composite
def levelings(draw):
    t = draw(trees(min_n=2))
    levels = range(1, draw(st.sampled_from((2, 3))) + 1)
    phi = [draw(st.sampled_from(levels))]
    for v in range(1, t.n):
        lv = phi[t.parent[v]]
        phi.append(draw(st.sampled_from([x for x in levels if x != lv])))
    return LevelTree.of(t, phi)


class TestAgainstBruteForce:
    @settings(max_examples=100)
    @given(embedding_cases())
    def test_search_embedding(self, case):
        inst, pts = case
        res = search_embedding(inst, pts)
        expect = brute_force([pts] * inst.tree.n,
                             [inst.tree.edges(), inst.path.edges()])
        assert res.status is (SearchStatus.Found if expect
                              else SearchStatus.ProvedNone)
        if expect:
            assert set(res.drawing.pos.values()) <= set(pts)

    @settings(max_examples=200)
    @given(levelings(), st.integers(0, 2))
    def test_grid_level_search(self, lt, extra):
        width = max(len(vs) for vs in lt.levels().values()) + extra
        res = search_level_planar(lt, grid_width=width, method="grid")
        cands = [[Point(x, lt.phi[v]) for x in range(1, width + 1)]
                 for v in range(lt.tree.n)]
        expect = brute_force(cands, [lt.tree.edges()])
        assert res.status is (LevelStatus.Found if expect
                              else LevelStatus.ExhaustedNone)

    @settings(max_examples=200)
    @given(levelings(), st.integers(2, 3))
    def test_region_search(self, lt, span):
        # two rows of candidates per region: not flat, so the placement
        # search runs, with its mirror and sibling cuts
        rs = RegionSystem.horizontal(range(lt.k))
        grid = region_candidates(rs, per_axis=2, span=span)
        res = search_region_level_planar(lt, rs, grid)
        assert res.metadata["square_symmetries"] >= 1
        expect = brute_force([grid[lv - 1] for lv in lt.phi], [lt.tree.edges()])
        assert res.status is (RegionStatus.Found if expect
                              else RegionStatus.ExhaustedNoneOverGrid)

    @settings(max_examples=300)
    @given(levelings(), st.integers(0, 2))
    # levelings() makes no level-nonplanar adjacent-level-only tree; this
    # subdivided K1,3 on two levels is a smallest one
    @example(LevelTree.of(RootedTree.from_parent([None, 0, 0, 0, 1, 2, 3]),
                          [1, 2, 2, 2, 1, 1, 1]), 0)
    def test_combinatorial_level_search(self, lt, extra):
        # the ordering oracle is exact on adjacent-level-only trees; with
        # long edges only its negative answer is claimed
        width = max(len(vs) for vs in lt.levels().values()) + extra
        res = search_level_planar(lt, grid_width=width, method="combinatorial")
        cands = [[Point(x, lt.phi[v]) for x in range(1, width + 1)]
                 for v in range(lt.tree.n)]
        expect = brute_force(cands, [lt.tree.edges()])
        if lt.adjacent_only():
            assert (res.status is LevelStatus.Found) == expect
        elif expect:
            assert res.status is not LevelStatus.ExhaustedNone
