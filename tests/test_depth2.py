import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

import pytest

from simembed.depth2 import (
    DepthExceeded,
    embed_depth2,
    plan_depth2,
    verify_conditions,
)
from simembed.geom import Point
from simembed.model import Drawing, Instance, PathGraph, RootedTree
from simembed.planarity import check_simultaneous


# --- the systematic exerciser -------------------------------------------

@dataclass
class SuiteReport:
    trees: int = 0
    pairs: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _partitions(n):
    """The partitions of n, parts non-increasing, in reverse lexicographic
    order: each next one lowers the last part above 1 by one and refills
    the parts after it greedily with parts no larger."""
    part = [n] * (n > 0)
    while True:
        yield tuple(part)
        rest = 1  # what the refill must sum to: the unit and the trailing ones
        while part and part[-1] == 1:
            rest += part.pop()
        if not part:
            return
        head = part.pop() - 1
        q, r = divmod(rest, head)
        part += [head] * (q + 1) + [r] * (r > 0)


def depth2_trees(n: int):
    """One representative per isomorphism class: a partition of n - 1
    into subtree sizes, each subtree a star."""
    for part in _partitions(n - 1):
        parent = [None]
        for size in part:
            c = len(parent)
            parent.append(0)
            parent.extend([c] * (size - 1))
        yield RootedTree.from_parent(parent)


def enumerate_depth2_suite(n_max: int, trials: int = 200,
                           seed: int = 0) -> SuiteReport:
    rep = SuiteReport()
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for tree in depth2_trees(n):
            rep.trees += 1
            if n <= 7:
                orders = [list(p) for p in permutations(range(n))
                          if n == 1 or p[0] < p[-1]]
            else:
                orders = []
                for _ in range(trials):
                    o = list(range(n))
                    rng.shuffle(o)
                    orders.append(o)
            for order in orders:
                rep.pairs += 1
                inst = Instance(tree, PathGraph.of(order))
                d = embed_depth2(inst)
                cond = verify_conditions(inst, d)
                tr, pr = check_simultaneous(inst, d)
                if not (cond.valid and tr.planar and pr.planar):
                    rep.failures.append((tree.parent, tuple(order),
                                         cond.violations,
                                         tr.crossings, pr.crossings))
    return rep


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
        # the 7-vertex path rooted at an end: radius 3
        i = inst([None, 0, 1, 2, 3, 4, 5], [6, 5, 4, 3, 2, 1, 0])
        with pytest.raises(DepthExceeded, match="radius 3"):
            embed_depth2(i)

    def test_path_rooted_at_an_end_embeds(self):
        # the 5-vertex path rooted at an end has depth 4 but radius 2: it
        # is drawn rooted at its center, vertex 2, and the drawing is
        # checked against the end-rooted tree
        d = assert_good(inst([None, 0, 1, 2, 3], [0, 2, 4, 1, 3]))
        assert d.point(2) == Point(0, 0)

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

    @pytest.mark.parametrize("v,dx,dy", [(1, 0, 0), (1, 50, 0), (2, 100, 0),
                                         (1, 0, -100), (4, -7, 3)])
    def test_same_report_under_scaling(self, v, dx, dy):
        # q -> (3/7)q keeps the origin, every x order, every side of a
        # line through the origin and every slope, so the report stays
        i = inst([None, 0, 0, 1, 2, 1], [3, 1, 0, 5, 2, 4])
        pos = dict(embed_depth2(i).pos)
        pos[v] = Point(pos[v].x + dx, pos[v].y + dy)
        k = Fraction(3, 7)
        scaled = Drawing({w: Point(k * p.x, k * p.y) for w, p in pos.items()})
        want = verify_conditions(i, Drawing(pos)).violations
        assert verify_conditions(i, scaled).violations == want
        assert bool(want) == ((dx, dy) != (0, 0))


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


# --- every rooting of every tree of radius <= 2 ---------------------------

def rooted_at(n, edges, r):
    """The parent list and the distance list of the tree `edges` on
    0..n-1 rooted at r, by a breadth-first walk."""
    parent, dist, order = [None] * n, [None] * n, [r]
    dist[r] = 0
    for v in order:
        for a, b in edges:
            w = b if a == v else a if b == v else None
            if w is not None and dist[w] is None:
                parent[w], dist[w] = v, dist[v] + 1
                order.append(w)
    return parent, dist


def free_trees(n):
    """One edge list per isomorphism class of trees on 0..n-1.  Every
    class has a labelling with parent[v] < v; a class is named by the
    least canonical string over the rootings of its members."""
    def canon(parent, v):
        kids = [w for w in range(n) if parent[w] == v]
        return "(" + "".join(sorted(canon(parent, w) for w in kids)) + ")"

    seen = set()
    for parents in product(*(range(v) for v in range(1, n))):
        edges = list(enumerate(parents, start=1))
        key = min(canon(rooted_at(n, edges, r)[0], r) for r in range(n))
        if key not in seen:
            seen.add(key)
            yield edges


class TestRadiusTwo:
    def test_free_tree_counts(self):
        # OEIS A000055
        assert [len(list(free_trees(n))) for n in range(1, 8)] == \
            [1, 1, 1, 2, 3, 6, 11]

    def test_every_rooting_against_every_path(self):
        # each tree of radius <= 2 with n <= 6, rooted at each vertex,
        # against each path up to reversal; a rooting of depth <= 2 keeps
        # its root at the origin
        trees, pairs, failures = 0, 0, []
        for n in range(1, 7):
            for edges in free_trees(n):
                if min(max(rooted_at(n, edges, r)[1]) for r in range(n)) > 2:
                    continue
                trees += 1
                for r in range(n):
                    parent, dist = rooted_at(n, edges, r)
                    tree = RootedTree.from_parent(parent)
                    for order in permutations(range(n)):
                        if n > 1 and order[0] > order[-1]:
                            continue
                        pairs += 1
                        i = Instance(tree, PathGraph.of(order))
                        d = embed_depth2(i)
                        tr, pr = check_simultaneous(i, d)
                        if not (verify_conditions(i, d).valid and tr.planar
                                and pr.planar and (max(dist) > 2
                                                   or d.point(r) == Point(0, 0))):
                            failures.append((parent, order))
        assert (trees, pairs, failures) == (13, 11_808, [])
