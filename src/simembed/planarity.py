"""Exact planarity checking of straight-line drawings and a small-instance
simultaneous-embedding search oracle."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cmp_to_key
from typing import Optional, Sequence

from .geom import (_BAD, Point, _sign, int_coords, int_cross, int_on_segment,
                   int_relation)
from .model import Drawing, Instance, validate_instance

Edge = tuple[int, int]

DEFAULT_BUDGET = 10_000_000  # search nodes, for every search and the CLI


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


# segments leaving one point in counterclockwise order, lowest first
_CCW = cmp_to_key(lambda s, t: -_sign(int_cross(*s, t[1])))


def _plane(segs, points) -> bool:
    """Whether no two segments meet but at a shared endpoint and no point
    lies inside a segment: an exact integer Shamos–Hoey sweep (1976).

    Each segment (a, b) has a < b lexicographically, and every endpoint is
    one of the distinct `points`.  The sweep visits the points in
    lexicographic order, keeping the segments that cross the sweep line
    bottom to top.  At p, the segments through p must all end at p; they
    leave, the segments starting at p enter in counterclockwise order, and
    only the newly adjacent pairs are tested (equal directions overlap).
    Two segments meeting left of every other violation are adjacent at
    some earlier point, so a plane answer is exact.
    """
    starts: dict = {}
    for s in segs:
        starts.setdefault(s[0], []).append(s)
    status: list = []
    for p in sorted(points):
        def side(s, p=p):  # < 0, 0, > 0: s passes below, through, above p
            return -int_cross(*s, p)

        lo = bisect_left(status, 0, key=side)
        hi = bisect_right(status, 0, lo, key=side)
        if any(s[1] != p for s in status[lo:hi]):
            return False
        new = sorted(starts.get(p, ()), key=_CCW)
        status[lo:hi] = new
        window = status[max(lo - 1, 0):lo + len(new) + 1]
        if any(int_relation(*s, *t) in _BAD for s, t in zip(window, window[1:])):
            return False
    return True


def check_drawing(edges: Sequence[Edge], d: Drawing) -> CrossingReport:
    """Report every violating edge pair and every vertex on a foreign edge.

    SharedEndpointOnly contacts are allowed; ProperCrossing, Touching and
    Overlapping are violations, as is any vertex in the closed interior of
    a non-incident edge.  The sweep of _plane decides first, with
    O((V + E) log V) orientation tests, and a plane drawing gets the empty
    report at once.  Only a drawing with a violation pays for the report:
    every edge pair whose closed x-intervals overlap, and every vertex
    against every edge whose closed x-interval holds it.
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
    points = set(ic.values())
    # the sweep needs distinct points, which a Drawing has when built
    if len(points) == len(vs) and _plane([(min(s), max(s)) for s in segs], points):
        return rep
    spans = [(min(a[0], b[0]), max(a[0], b[0])) for a, b in segs]
    # sweep over x: only edges whose closed x-intervals overlap can meet,
    # and only an edge whose x-interval holds a vertex's x can carry it;
    # at one x, edges enter (kind 0) before vertices are tested (kind 1)
    events = sorted([(lo, 0, i) for i, (lo, _) in enumerate(spans)]
                    + [(ic[v][0], 1, r) for r, v in enumerate(vs)])
    hits, on, active = [], [], []
    for x, kind, i in events:
        active = [j for j in active if spans[j][1] >= x]
        if kind:
            on += [(i, j) for j in active if vs[i] not in edges[j]
                   and int_on_segment(ic[vs[i]], *segs[j])]
            continue
        for j in active:
            e, f = min(i, j), max(i, j)
            rel = int_relation(*segs[e], *segs[f])
            if rel in _BAD:
                hits.append((e, f, rel))
        active.append(i)
    rep.crossings = [(edges[e], edges[f], rel) for e, f, rel in sorted(hits)]
    rep.vertex_on_edge = [(vs[r], edges[j]) for r, j in sorted(on)]
    return rep


def check_simultaneous(i: Instance, d: Drawing):
    """Check tree and path independently on the shared placement."""
    rep = validate_instance(i)
    if not rep.valid:
        raise PlanarityError("invalid instance: " + "; ".join(rep.violations))
    check_vertex_set(i, d)
    return (check_drawing(i.tree.edges(), d),
            check_drawing(i.path.edges(), d))


def check_vertex_set(i: Instance, d: Drawing) -> None:
    """Raise unless d draws exactly the vertices 0..n-1 of i."""
    drawn, vertices = set(d.pos), set(range(i.tree.n))
    if vertices - drawn:
        raise UndrawnVertex(f"vertices not drawn: {sorted(vertices - drawn)}")
    if drawn - vertices:
        raise PlanarityError(f"drawing names vertices outside 0..{i.tree.n - 1}:"
                             f" {sorted(drawn - vertices)}")


class SearchStatus(Enum):
    Found = "found"
    ProvedNone = "proved-none"
    BudgetExceeded = "budget-exceeded"


@dataclass
class SearchResult:
    """The answer of every exhaustive search: search_embedding (statuses
    from SearchStatus) and the level and region searches of leveltree."""
    status: Enum
    drawing: Optional[Drawing] = None
    nodes: int = 0
    note: str = ""
    metadata: dict = field(default_factory=dict)


# the 7 non-identity symmetries of a square about its centre, each as the
# integer matrix (a, b, c, d) taking (u, w) to (a u + b w, c u + d w)
_SQUARE = ((-1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, -1), (0, 1, 1, 0),
           (0, -1, -1, 0), (0, -1, 1, 0), (0, 1, -1, 0))


def _square_symmetries(cand) -> list[dict]:
    """Those non-identity symmetries of the candidates' bounding-box square
    that map every vertex's candidate list onto itself, each as a map from
    point to image.  They carry valid placements to valid placements."""
    lists = list({id(c): c for c in cand}.values())
    pts = {p for c in lists for p in c}
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    cx = min(xs, default=0) + max(xs, default=0)
    cy = min(ys, default=0) + max(ys, default=0)
    # doubled coordinates about the centre, so the maps stay integral
    back = {(2 * x - cx, 2 * y - cy): (x, y) for x, y in pts}
    out = []
    for a, b, c, d in _SQUARE:
        img = {p: back.get((a * u + b * w, c * u + d * w))
               for (u, w), p in back.items()}
        if all({img[p] for p in c} == set(c) for c in lists):
            out.append(img)
    return out


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


def _place(order, cand, graphs, budget, none, after=None, icand=None) -> SearchResult:
    """Forward-checking backtracking over vertex-to-candidate maps: the one
    placement engine of the three searches.

    Vertex v takes one of the points cand[v], vertices in the given order;
    a list may be shared between vertices.  The search runs on integers:
    `icand` if given, else all lists with denominators cleared at once.
    Edges of one graph may not meet other than at a shared endpoint;
    edges of different graphs may cross; no vertex may lie on an edge of
    any graph it is not an endpoint of.  Each unplaced vertex keeps a
    bitmask domain: placing a vertex removes from every domain its point,
    the points on its new edges, and the points whose edges to placed
    neighbours would meet a placed edge of their graph or a placed vertex.
    A point taken from a domain is therefore consistent with the whole
    placement so far, and an emptied domain backtracks (Haralick and
    Elliott, 1980).

    Two cuts, each sound for every caller: order[0] takes only the first
    point of its list in each orbit of the square symmetries that map
    every list onto itself (_square_symmetries); a vertex v in `after`
    takes a larger index in its list than vertex after[v], placed before
    it in the same list.

    Returns the SearchResult, with statuses from the enum of `none`, the
    caller's negative answer.  Found carries the drawing on the given
    points, re-checked by check_drawing on every graph.  Once `budget`
    nodes are spent the answer is BudgetExceeded with nodes == budget.
    metadata counts the square symmetries and the sibling cuts.
    """
    n = len(order)
    after = after or {}
    if icand is None:
        lists = {id(c): c for c in cand}  # shared lists stay shared
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
    fixed: list[list] = [[] for _ in graphs]  # placed edges per graph
    dom = [(1 << len(c)) - 1 for c in icand]
    root = order[0]
    at = {p: i for i, p in enumerate(icand[root])}
    dom[root] = sum(1 << i for i, p in enumerate(icand[root])
                    if all(i <= at[s[p]] for s in syms))
    nodes = 0

    def prune(v, p):
        # place v at p; return the domains to restore and the new edges,
        # or None (and undo the placement) when some domain empties
        pos[v] = p
        new = [(g, pos[x]) for g, nb in enumerate(nbrs) for x in nb[v]
               if pos[x] is not None]
        ends = [a for _, a in new]
        others = [q for q in pos if q is not None and q != p]
        saved = []
        for w in range(n):
            if pos[w] is not None:
                continue
            # segments from w's placed neighbours, each with the edges and
            # points it must avoid (an edge at p is covered by `ends` and
            # `others`)
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

    # depth-first over k = len(steps), order[:k] placed: rest[k] holds the
    # indices order[k] has still to try, and steps[k] undoes its placement
    status, rest, steps = type(none), [], []
    while len(steps) < n:
        k = len(steps)
        v = order[k]
        if len(rest) == k:  # order[k] comes up: the cut of `after` applies
            rest.append(dom[v] & (-2 << idx[after[v]]) if v in after else dom[v])
        d = rest[k]
        if not d:  # order[k] has tried everything: back to order[k - 1]
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


def search_embedding(i: Instance, candidate_points: Sequence[Point],
                     budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exhaustive search over injective vertex-to-point assignments.

    Runs the placement search (_place) on tree and path together,
    vertices in tree preorder, candidates in lexicographic order, so the
    first drawing found is the least one under that exploration order.
    Its one cut keeps the root to one point per orbit of the symmetries of
    the candidates' bounding-box square that map the candidate set onto
    itself, so ProvedNone holds for the whole set.  A drawing found passes
    check_drawing on tree and path; BudgetExceeded reports the budget as
    its nodes.
    """
    rep = validate_instance(i)
    if not rep.valid:
        raise PlanarityError("invalid instance: " + "; ".join(rep.violations))
    n = i.tree.n
    # de-duplicated and sorted on integer coordinates: one positive scale
    # keeps the lexicographic order, and _place searches on these
    pts = list(candidate_points)
    by_int = dict(zip(int_coords(pts), pts))
    ints = sorted(by_int)
    if len(ints) < n:
        return SearchResult(SearchStatus.ProvedNone)
    return _place(i.tree.preorder(), [[by_int[k] for k in ints]] * n,
                  [i.tree.edges(), i.path.edges()], budget,
                  SearchStatus.ProvedNone, icand=[ints] * n)
