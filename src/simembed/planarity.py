"""Exact planarity checking of straight-line drawings and a small-instance
simultaneous-embedding search oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .geom import _BAD, Point, int_coords, int_on_segment, int_relation
from .model import Drawing, Instance, validate_instance

Edge = tuple[int, int]


class PlanarityError(ValueError):
    pass


class UndrawnVertex(PlanarityError):
    pass


class CoincidentPoints(PlanarityError):
    pass


@dataclass
class CrossingReport:
    crossings: list = field(default_factory=list)  # (edge, edge, Relation)
    vertex_on_edge: list = field(default_factory=list)  # (vertex, edge)

    @property
    def planar(self) -> bool:
        return not self.crossings and not self.vertex_on_edge


def check_drawing(edges: Sequence[Edge], d: Drawing) -> CrossingReport:
    """Report every violating edge pair and every vertex on a foreign edge.

    SharedEndpointOnly contacts are allowed; ProperCrossing, Touching and
    Overlapping are violations, as is any vertex in the closed interior of
    a non-incident edge.
    """
    for u, v in edges:
        if u not in d.pos or v not in d.pos:
            raise UndrawnVertex(f"edge ({u},{v}) has an undrawn endpoint")
        if d.pos[u] == d.pos[v]:
            raise CoincidentPoints(f"edge ({u},{v}) has coincident endpoints")

    rep = CrossingReport()
    vs = sorted(d.pos)
    ic = dict(zip(vs, int_coords(d.pos[v] for v in vs)))
    segs = [(ic[u], ic[v]) for u, v in edges]
    spans = [(min(a[0], b[0]), max(a[0], b[0])) for a, b in segs]
    # sweep over x: only pairs whose closed x-intervals overlap can meet
    hits = []
    active: list[int] = []
    for i in sorted(range(len(edges)), key=spans.__getitem__):
        lo = spans[i][0]
        active = [j for j in active if spans[j][1] >= lo]
        for j in active:
            e, f = min(i, j), max(i, j)
            rel = int_relation(*segs[e], *segs[f])
            if rel in _BAD:
                hits.append((e, f, rel))
        active.append(i)
    rep.crossings = [(edges[e], edges[f], rel) for e, f, rel in sorted(hits)]
    for v in vs:
        for e, (a, b) in zip(edges, segs):
            if v not in e and int_on_segment(ic[v], a, b):
                rep.vertex_on_edge.append((v, e))
    return rep


def check_simultaneous(i: Instance, d: Drawing):
    """Check tree and path independently on the shared placement."""
    rep = validate_instance(i)
    if not rep.valid:
        raise PlanarityError("invalid instance: " + "; ".join(rep.violations))
    missing = set(range(i.tree.n)) - set(d.pos)
    if missing:
        raise UndrawnVertex(f"vertices not drawn: {sorted(missing)}")
    return (check_drawing(i.tree.edges(), d),
            check_drawing(i.path.edges(), d))


class SearchStatus(Enum):
    Found = "found"
    ProvedNone = "proved-none"
    BudgetExceeded = "budget-exceeded"


@dataclass
class SearchResult:
    status: SearchStatus
    drawing: Optional[Drawing] = None
    nodes: int = 0


def _bfs_order(tree) -> list[int]:
    order, queue = [], [tree.root]
    while queue:
        v = queue.pop(0)
        order.append(v)
        queue.extend(tree.children(v))
    return order


def search_embedding(i: Instance, candidate_points: Sequence[Point],
                     budget: int = 10**7) -> SearchResult:
    """Exhaustive backtracking over vertex-to-point assignments.

    Vertices are placed in tree-BFS order; a partial placement is pruned
    as soon as either graph shows a violation among its completed edges.
    Deterministic: candidates tried in lexicographic order, so the first
    drawing found is the least one under that exploration order.
    """
    rep = validate_instance(i)
    if not rep.valid:
        raise PlanarityError("invalid instance: " + "; ".join(rep.violations))
    n = i.tree.n
    pts = sorted(set(candidate_points), key=Point.sortkey)
    if len(pts) < n:
        return SearchResult(SearchStatus.ProvedNone)

    order = _bfs_order(i.tree)
    rank = {v: k for k, v in enumerate(order)}
    tree_edges = [tuple(sorted((u, v), key=rank.get)) for u, v in i.tree.edges()]
    path_edges = [tuple(sorted((u, v), key=rank.get)) for u, v in i.path.edges()]
    # edges grouped by the later-placed endpoint, per graph
    closing: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(n)}
    for g, es in enumerate((tree_edges, path_edges)):
        for u, v in es:
            closing[v].append((g, u, v))

    ipts = int_coords(pts)
    to_point = dict(zip(ipts, pts))

    # symmetry reduction: first vertex pinned to the least candidate;
    # second kept weakly above it when the candidate set is mirror-symmetric
    # about that horizontal axis (otherwise the cut would lose completeness)
    y0 = ipts[0][1]
    mirrored = {(x, 2 * y0 - y) for x, y in ipts} == set(ipts)

    pos: dict[int, tuple[int, int]] = {}
    used: set[tuple[int, int]] = set()
    nodes = 0
    done_edges: list[list[tuple[int, int]]] = [[], []]  # per graph

    def ok(v: tuple[int, int], placed_v: int) -> bool:
        # check the newly completed edges against prior ones (and against
        # each other), plus vertex-on-edge both ways
        fresh: list[list[tuple[int, int]]] = [[], []]
        for g, a, b in closing[placed_v]:
            pa, pb = pos[a], v
            for (u, w) in done_edges[g] + fresh[g]:
                pu = pos[u] if u != placed_v else v
                pw = pos[w] if w != placed_v else v
                if int_relation(pa, pb, pu, pw) in _BAD:
                    return False
            fresh[g].append((a, b))
        # vertex-on-edge: new point vs all done edges; new edges vs all points
        for g in (0, 1):
            for (u, w) in done_edges[g]:
                if placed_v not in (u, w) and int_on_segment(v, pos[u], pos[w]):
                    return False
        for g, a, b in closing[placed_v]:
            for w, pw in pos.items():
                if w not in (a, placed_v) and int_on_segment(pw, pos[a], v):
                    return False
        return True

    def rec(k: int) -> Optional[SearchResult]:
        nonlocal nodes
        if k == n:
            d = Drawing({w: to_point[p] for w, p in pos.items()})
            tr, pr = check_simultaneous(i, d)
            assert tr.planar and pr.planar
            return SearchResult(SearchStatus.Found, d, nodes)
        v = order[k]
        for p in ipts:
            if p in used:
                continue
            if k == 0 and p != ipts[0]:
                break
            if k == 1 and mirrored and p[1] < y0:
                continue
            nodes += 1
            if nodes > budget:
                return SearchResult(SearchStatus.BudgetExceeded, None, nodes)
            if not ok(p, v):
                continue
            pos[v] = p
            used.add(p)
            for g, a, b in closing[v]:
                done_edges[g].append((a, b))
            res = rec(k + 1)
            for g, a, b in closing[v]:
                done_edges[g].pop()
            used.discard(p)
            del pos[v]
            if res is not None:
                return res
        return None

    res = rec(0)
    if res is None:
        return SearchResult(SearchStatus.ProvedNone, None, nodes)
    return res
