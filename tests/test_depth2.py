import random

import pytest

from simembed.depth2 import (
    DepthExceeded,
    _partitions,
    depth2_trees,
    embed_depth2,
    enumerate_depth2_suite,
    plan_depth2,
    verify_conditions,
)
from simembed.geom import Point
from simembed.model import Drawing, Instance, PathGraph, RootedTree
from simembed.planarity import check_simultaneous


def inst(parent, order):
    return Instance(RootedTree.from_parent(parent), PathGraph.of(order))


def assert_good(i):
    d = embed_depth2(i)
    assert verify_conditions(i, d).valid
    tr, pr = check_simultaneous(i, d)
    assert tr.planar and pr.planar
    return d


class TestEmbed:
    def test_two_children_path_through_root(self):
        d = assert_good(inst([None, 0, 0], [1, 0, 2]))
        assert d.point(1).x == 1 and d.point(2).x == 2

    def test_star5_root_endpoint(self):
        assert_good(inst([None] + [0] * 5, [0, 1, 2, 3, 4, 5]))

    def test_depth2_zigzag(self):
        # r; children 1,2; grandchildren 3,4 under 1 and 5,6 under 2
        assert_good(inst([None, 0, 0, 1, 1, 2, 2], [3, 1, 5, 0, 4, 2, 6]))

    def test_single_vertex(self):
        d = embed_depth2(inst([None], [0]))
        assert d.point(0).x == 0

    def test_two_vertices(self):
        assert_good(inst([None, 0], [0, 1]))

    def test_u_and_v_in_same_subtree(self):
        # both path neighbours of the root live under child 1
        assert_good(inst([None, 0, 0, 1, 1], [3, 0, 4, 1, 2]))

    def test_depth3_refused(self):
        i = inst([None, 0, 1, 2], [3, 2, 1, 0])
        with pytest.raises(DepthExceeded):
            embed_depth2(i)

    def test_deterministic(self):
        i = inst([None, 0, 0, 1, 2], [3, 1, 0, 2, 4])
        assert embed_depth2(i).pos == embed_depth2(i).pos

    def test_denominators_polynomial(self):
        # wedge slopes are integers, so every coordinate is an integer
        i = inst([None] + [0] * 6, [3, 1, 5, 0, 4, 2, 6])
        d = embed_depth2(i)
        assert all(p.x.denominator == 1 and p.y.denominator == 1
                   for p in d.pos.values())

    @pytest.mark.parametrize("n", [600, 1000])
    def test_integer_grid_at_scale(self, n):
        # a seeded random depth-<=2 tree with a random path: integer
        # coordinates below 2n^3, all conditions met, both graphs planar
        rng = random.Random(n)
        parent, children = [None], []
        for v in range(1, n):
            if not children or rng.random() < 0.2:
                parent.append(0)
                children.append(v)
            else:
                parent.append(rng.choice(children))
        order = list(range(n))
        rng.shuffle(order)
        i = inst(parent, order)
        d = assert_good(i)
        assert all(q.denominator == 1 and abs(q) < 2 * n ** 3
                   for p in d.pos.values() for q in (p.x, p.y))


class TestVerifyConditions:
    # tree - 0 0 1 2 1 with path 3 1 0 5 2 4: u = 1, v = 5, P1 = 1 3 and
    # P2 = 5 2 4; one vertex of its drawing moves by (dx, dy)
    @pytest.mark.parametrize("v,dx,dy,messages", [
        (1, 50, 0, ["condition 1: u is not the leftmost non-root vertex",
                    "condition 2: P1 not x-increasing at (1, 3)",
                    "condition 3: v is not the rightmost vertex",
                    "condition 4: P2 not entirely right of P1",
                    "wedge: vertex 1 outside its wedge"]),
        (2, 100, 0, ["condition 3: v is not the rightmost vertex",
                     "condition 4: P2 not x-decreasing at (5, 2)"]),
        (1, 0, -100, ["condition 5: vertex 1 not above segment rv",
                      "wedge: vertex 1 outside its wedge"]),
    ])
    def test_each_rejection(self, v, dx, dy, messages):
        i = inst([None, 0, 0, 1, 2, 1], [3, 1, 0, 5, 2, 4])
        pos = dict(embed_depth2(i).pos)
        assert verify_conditions(i, Drawing(pos)).valid
        pos[v] = Point(pos[v].x + dx, pos[v].y + dy)
        assert verify_conditions(i, Drawing(pos)).violations == messages


class TestPlan:
    def test_ranks_are_permutation(self):
        i = inst([None, 0, 0, 1, 1], [3, 1, 0, 2, 4])
        plan = plan_depth2(i)
        assert sorted(plan.ranks.values()) == [1, 2, 3, 4]
        assert plan.ranks[plan.u] == 1
        assert plan.ranks[plan.v] == 4

    def test_u_first_subtree_v_last(self):
        i = inst([None, 0, 0, 1, 2], [3, 1, 0, 2, 4])
        plan = plan_depth2(i)
        assert plan.assignment[plan.u] == 0
        assert plan.assignment[plan.v] == plan.t - 1


class TestTreeEnumeration:
    def test_counts_are_partition_numbers(self):
        # rooted depth-<=2 trees up to isomorphism = partitions of n-1
        assert len(list(depth2_trees(5))) == 5
        assert len(list(depth2_trees(7))) == 11

    def test_partitions_in_reverse_lexicographic_order(self):
        def reference(n, largest):
            if n == 0:
                yield ()
            for head in range(min(n, largest), 0, -1):
                for rest in reference(n - head, head):
                    yield (head,) + rest

        for n in range(16):
            assert list(_partitions(n)) == list(reference(n, n))

    def test_all_depth_at_most_two(self):
        for t in depth2_trees(6):
            assert max(t.depth) <= 2


class TestSuite:
    def test_exhaustive_n5(self):
        rep = enumerate_depth2_suite(5)
        assert rep.ok and rep.pairs > 0
