"""Constructive simultaneous embedding of a tree of radius at most 2
with any path.

A tree deeper than 2 is first rooted at a center, keeping its vertex
ids and edges, so a drawing of the re-rooted tree draws the given one.
The root goes to the origin and each root subtree into its own wedge
of integer slopes, the wedges stacked one below the other.  The two
subpaths leaving the root are laid out x-monotonically, one after the
other, and the long closing edge from the root runs along the convex
hull underneath everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .geom import Point
from .model import Drawing, Instance, ValidationReport


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
    root: int          # the tree's root, or a center if the root is deeper


def _subpaths(order: tuple, root: int) -> tuple[list, list]:
    """The two subpaths leaving the root, in walking order, root excluded.
    If the root is a path endpoint the second list is empty."""
    order = list(order)
    k = order.index(root)
    p1 = list(reversed(order[:k]))
    p2 = order[k + 1:]
    if not p1:
        p1, p2 = p2, p1
    return p1, p2


def _centered(i: Instance) -> Instance:
    """i itself if its tree has depth at most 2, else i with the tree
    rooted at a center, where its depth is its radius."""
    if max(i.tree.depth) <= 2:
        return i
    c, radius = i.tree.center()
    if radius > 2:
        raise DepthExceeded(
            f"tree has radius {radius}; the wedge construction covers the"
            " trees of radius at most 2, each rooted at a center")
    return replace(i, tree=i.tree.rerooted(c))


def plan_depth2(i: Instance) -> WedgePlan:
    i = _centered(i)
    t_ = i.tree
    p1, p2 = _subpaths(i.path.order, t_.root)
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
    return WedgePlan(t, wedges, assignment, ranks, u, v, t_.root)


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
    pos = {plan.root: Point(0, 0)}
    for w, k in plan.ranks.items():
        hi = plan.wedges[plan.assignment[w]][1]
        pos[w] = Point(k, (hi - k) * k)
    return Drawing(pos)


def verify_conditions(i: Instance, d: Drawing) -> ValidationReport:
    """Syntactic check of the five placement conditions, independent of
    any planarity test, for the tree rooted as plan_depth2 roots it."""
    rep = ValidationReport()
    plan = plan_depth2(i)
    r = plan.root
    p1, p2 = _subpaths(i.path.order, r)
    # d.ints is d scaled about the origin, the root, by one positive
    # factor: it keeps x orders, sides of lines through the origin, wedges
    ic = d.ints
    xs = {w: p[0] for w, p in ic.items()}
    others = [w for w in ic if w != r]
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
        vx, vy = ic[plan.v]
        for w in others:
            if w == plan.v:
                continue
            x, y = ic[w]
            # above the segment rv <=> left of the directed line r -> v
            if (vx * y - vy * x) <= 0:
                rep.add(f"condition 5: vertex {w} not above segment rv")
    for w in others:
        lo, hi = plan.wedges[plan.assignment[w]]
        x, y = ic[w]
        if not (x > 0 and lo * x < y < hi * x):
            rep.add(f"wedge: vertex {w} outside its wedge")
    return rep
