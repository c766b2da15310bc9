"""Constructive simultaneous embedding of a depth-2 tree with any path.

The root goes to the origin and each root subtree into its own wedge
of integer slopes, the wedges stacked one below the other.  The two
subpaths leaving the root are laid out x-monotonically, one after the
other, and the long closing edge from the root runs along the convex
hull underneath everything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations

from .geom import Point
from .model import Drawing, Instance, PathGraph, RootedTree, ValidationReport
from .planarity import check_simultaneous


class DepthExceeded(ValueError):
    pass


@dataclass(frozen=True)
class WedgePlan:
    t: int
    wedges: tuple      # per subtree index: (low slope, high slope)
    assignment: dict   # VertexId -> wedge index (0-based)
    ranks: dict        # VertexId -> x-rank, a permutation of 1..n-1
    u: int | None      # first vertex of the subpath P1
    v: int | None      # first vertex of the subpath P2


def _subpaths(i: Instance) -> tuple[list, list]:
    """The two subpaths leaving the root, in walking order, root excluded.
    If the root is a path endpoint the second list is empty."""
    order = list(i.path.order)
    k = order.index(i.tree.root)
    p1 = list(reversed(order[:k]))
    p2 = order[k + 1:]
    if not p1:
        p1, p2 = p2, p1
    return p1, p2


def plan_depth2(i: Instance) -> WedgePlan:
    t_ = i.tree
    depth = max(t_.depth)
    if depth > 2:
        raise DepthExceeded(
            f"tree has depth {depth}; this construction handles depth at most 2"
            " (already at depth 4 a tree and a path can fail to embed together)")
    p1, p2 = _subpaths(i)
    ranks = {}
    for k, w in enumerate(p1, start=1):
        ranks[w] = k
    for k, w in enumerate(reversed(p2), start=len(p1) + 1):
        ranks[w] = k
    u = p1[0] if p1 else None
    v = p2[0] if p2 else (p1[-1] if p1 else None)

    children = t_.children(t_.root)
    t = len(children)
    top = {}  # vertex -> owning child subtree
    for c in children:
        top[c] = c
        for g in t_.children(c):
            top[g] = c
    first = top.get(u)
    last = top.get(v)
    mid = [c for c in children if c != first and c != last]
    if first == last:
        ordered = mid + [first] if first is not None else []
    else:
        ordered = ([first] if first is not None else []) + mid \
            + ([last] if last is not None else [])
    wedge_of_child = {c: j for j, c in enumerate(ordered)}
    assignment = {w: wedge_of_child[c] for w, c in top.items()}
    wedges = tuple(((t - 2 * j - 2) * t_.n, (t - 2 * j - 1) * t_.n)
                   for j in range(t))
    return WedgePlan(t, wedges, assignment, ranks, u, v)


def embed_depth2(i: Instance) -> Drawing:
    """Place rank k at x = k on a strictly concave curve inside its wedge.

    A wedge (lo, hi) spans n integer slopes, more than any rank, and rank
    k goes to (k, (hi - k)k): its slope hi - k is strictly inside the
    wedge and strictly decreasing in k, so each wedge's points lie on the
    strictly concave parabola y = hi*x - x^2 (no three collinear) and the
    final path vertex is the unique lowest-slope point, putting the
    closing root edge on the hull.  Integer coordinates, below n^3.
    """
    plan = plan_depth2(i)
    pos = {i.tree.root: Point(0, 0)}
    for w, k in plan.ranks.items():
        hi = plan.wedges[plan.assignment[w]][1]
        pos[w] = Point(k, (hi - k) * k)
    return Drawing(pos)


def verify_conditions(i: Instance, d: Drawing) -> ValidationReport:
    """Syntactic check of the five placement conditions, independent of
    any planarity test."""
    rep = ValidationReport()
    plan = plan_depth2(i)
    r = i.tree.root
    p1, p2 = _subpaths(i)
    xs = {w: d.point(w).x for w in d.pos}
    others = [w for w in d.pos if w != r]
    if plan.u is not None and any(xs[w] < xs[plan.u] for w in others):
        rep.add("condition 1: u is not the leftmost non-root vertex")
    for a, b in zip(p1, p1[1:]):
        if not xs[a] < xs[b]:
            rep.add(f"condition 2: P1 not x-increasing at ({a}, {b})")
    if plan.v is not None and any(xs[w] > xs[plan.v] for w in others):
        rep.add("condition 3: v is not the rightmost vertex")
    for a, b in zip(p2, p2[1:]):
        if not xs[a] > xs[b]:
            rep.add(f"condition 4: P2 not x-decreasing at ({a}, {b})")
    if p1 and p2 and not min(xs[w] for w in p2) > max(xs[w] for w in p1):
        rep.add("condition 4: P2 not entirely right of P1")
    if plan.v is not None:
        pv = d.point(plan.v)
        for w in others:
            if w == plan.v:
                continue
            p = d.point(w)
            # above the segment rv <=> left of the directed line r -> v
            if (pv.x * p.y - pv.y * p.x) <= 0:
                rep.add(f"condition 5: vertex {w} not above segment rv")
    for w in others:
        lo, hi = plan.wedges[plan.assignment[w]]
        p = d.point(w)
        if not (p.x > 0 and lo * p.x < p.y < hi * p.x):
            rep.add(f"wedge: vertex {w} outside its wedge")
    return rep


# --- systematic exerciser -------------------------------------------------

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
