"""Exact planarity checking of straight-line drawings and a small-instance
simultaneous-embedding search oracle."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cmp_to_key, lru_cache, reduce
from math import inf
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
    ic = d.ints
    for u, v in edges:
        if u not in ic or v not in ic:
            raise UndrawnVertex(f"edge ({u},{v}) has an undrawn endpoint")
        if u == v:  # a drawing is injective: only a loop's ends coincide
            raise CoincidentPoints(f"edge ({u},{v}) has coincident endpoints")

    rep = CrossingReport()
    vs = sorted(ic)
    segs = [(ic[u], ic[v]) for u, v in edges]
    if _plane([(min(s), max(s)) for s in segs], set(ic.values())):
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


def _first_in_orbits(c, syms) -> int:
    """The bitmask of the points of c that come first in their orbit."""
    at = {p: i for i, p in enumerate(c)}
    return sum(1 << i for i, p in enumerate(c) if all(i <= at[s[p]] for s in syms))


def _box(pts) -> tuple:
    """The bounding box (x0, y0, x1, y1) of the points."""
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    return min(xs, default=0), min(ys, default=0), max(xs, default=0), max(ys, default=0)


def _join(b, c) -> tuple:
    """The bounding box of the boxes b and c; a point p is the box p * 2,
    and _NOWHERE the box of no point."""
    return (b[0] if b[0] < c[0] else c[0], b[1] if b[1] < c[1] else c[1],
            b[2] if b[2] > c[2] else c[2], b[3] if b[3] > c[3] else c[3])


_NOWHERE = (inf, inf, -inf, -inf)


def _meets(b, c) -> bool:
    """Whether the closed boxes b and c share a point."""
    return b[0] <= c[2] and c[0] <= b[2] and b[1] <= c[3] and c[1] <= b[3]


class _Masks(dict):
    """The blocking masks over a search's point table `pts`: for one
    obstacle, the bitmask of the points q of the table that it rules out.

    A point's id is its place in the table.  With m = len(pts), a mask's
    key names its obstacle by point ids:
    - e m + f: q lies on the edge (e, f) (int_on_segment);
    - (s + 1) m^2 + e m + f: q is s, or the segment sq meets the edge
      (e, f) other than at a shared endpoint (int_relation in _BAD);
    - (m + 1) m^2 + s m + r: q is s, or r lies on the segment sq
      (int_on_segment).
    A mask is filled point by point, as domains ask for points: its value
    holds the mask in the low m bits and, above them, the bits of the
    points tested so far.
    """

    def __init__(self, pts):
        self.pts, self.m = pts, len(pts)

    def fill(self, key, v, need) -> int:
        """The value v of `key` with the points of the bitmask `need`
        tested as well; the caller stores it."""
        m, pts = self.m, self.pts
        s, ef = divmod(key, m * m)
        e, f = pts[ef // m], pts[ef % m]
        a = pts[s - 1] if 0 < s <= m else None
        v |= need << m
        while need:
            b = need & -need
            need ^= b
            q = pts[b.bit_length() - 1]
            if not s:
                hit = int_on_segment(q, e, f)
            elif a is not None:
                hit = q == a or int_relation(a, q, e, f) in _BAD
            else:  # e is the anchor, f the point
                hit = q == e or int_on_segment(f, e, q)
            if hit:
                v |= b
        return v


def _table(pts, lists=None) -> tuple:
    """A new table for a search on the point table pts, whose candidate
    lists are `lists` (by default the one list pts): its masks, none filled
    yet, the bits of the points first in their orbit under the square
    symmetries (_square_symmetries), and the count of those symmetries."""
    syms = _square_symmetries(lists or [pts])
    return _Masks(pts), _first_in_orbits(pts, syms), len(syms)


# The tables of searches whose vertices all share one candidate list,
# keyed by its integer points in order, for later searches on that list.
# Every table keeps a newly filled mask only while it holds fewer than
# _MEMO_MASKS, so the memo retains at most _MEMO_LISTS * _MEMO_MASKS.
_MEMO_LISTS = 4        # candidate lists kept
_MEMO_MASKS = 16_384   # masks kept by one table
_shared = lru_cache(maxsize=_MEMO_LISTS)(_table)


def _place(order, cand, graphs, budget, none, after=None) -> SearchResult:
    """Forward-checking backtracking over vertex-to-candidate maps: the one
    placement engine of the three searches.

    Vertex v takes one of the points cand[v], vertices in the given order;
    a list may be shared between vertices.  Precondition: any two lists
    are the same list object or share no point, and no list repeats a
    point.  The distinct lists, one after another in order of first use,
    form the search's point table, cleared of denominators by one
    int_coords call; a point's id is its place in the table, and domains,
    masks, the sibling cut and the answer all use these ids.
    Edges of one graph may not meet other than at a shared endpoint;
    edges of different graphs may cross; no vertex may lie on an edge of
    any graph it is not an endpoint of.  Each unplaced vertex keeps a
    bitmask domain: placing a vertex removes from every domain its point,
    the points on its new edges, and the points whose edges to placed
    neighbours would meet a placed edge of their graph or a placed vertex.
    A point taken from a domain is therefore consistent with the whole
    placement so far, and an emptied domain backtracks (Haralick and
    Elliott, 1980).

    Each obstacle's effect on the table is a blocking mask (_Masks); a
    domain loses the OR of its obstacles' masks.  A mask is kept for the
    whole search and filled by the integer predicates only at the points
    a domain still holds and no earlier obstacle removed, so no point is
    tested twice against one obstacle.  A vertex with no placed neighbour
    whose list neither holds the new point nor meets a new edge's
    bounding box is skipped, and the segments from the new point to a
    neighbour's list skip the placed edges and points when the bounding
    box of the placed points misses that of the segments, so a chain of
    level rows costs a linear number of predicate calls.
    The masks, the symmetry count and the root's orbit bits form the
    search's table (_table).  When every vertex shares one list, the
    table comes from an lru_cache over the last _MEMO_LISTS such lists
    (_shared), and later searches on that list reuse its masks.  A table
    keeps a newly filled mask only while it holds fewer than _MEMO_MASKS;
    past that, masks are filled without being kept.

    Two cuts, each sound for every caller: order[0] takes only the first
    point of its list in each orbit of the square symmetries that map
    every list onto itself (_square_symmetries); a vertex v in `after`
    takes a larger index in its list than vertex after[v], placed before
    it in the same list.

    Returns the SearchResult, with statuses from the enum of `none`, the
    caller's negative answer, which a list with fewer points than the
    vertices that take it (an empty list among them) gets at once with 0
    nodes.  Found carries the drawing on the given points, re-checked on
    the integer points by the sweep of check_drawing (_plane) on every
    graph.  Once `budget` nodes are spent the answer is BudgetExceeded
    with nodes == budget.  metadata counts the square symmetries, the
    sibling cuts, this search's mask lookups that called a predicate
    (`masks_filled`) and those that did not (`masks_reused`).
    """
    n = len(order)
    after = after or {}
    lists = list({id(c): c for c in cand}.values())  # shared lists stay shared
    takers = Counter(map(id, cand))
    if any(len(c) < takers[id(c)] for c in lists):  # pigeonhole: no placement
        return SearchResult(none)
    given = [p for c in lists for p in c]
    pts = tuple(int_coords(given))  # the point table
    own, lo = {}, 0  # each list's integer points, bits in the table and box
    for c in lists:
        ic = pts[lo:lo + len(c)]
        own[id(c)] = ic, (1 << lo + len(c)) - (1 << lo), _box(ic)
        lo += len(c)
    _, full, box = zip(*(own[id(c)] for c in cand))
    root = order[0]
    masks, first, nsyms = (_shared(pts) if len(lists) == 1 else
                           _table(pts, [ic for ic, _, _ in own.values()]))
    first &= full[root]
    m, cap = len(pts), _MEMO_MASKS
    meta = {"square_symmetries": nsyms, "sibling_cuts": len(after)}
    adj: list[list] = [[] for _ in range(n)]  # (graph, neighbour) pairs
    for g, es in enumerate(graphs):
        for u, v in es:
            adj[u].append((g, v))
            adj[v].append((g, u))
    # mask keys (_Masks): edge e m + f, then offset by the anchor
    m2 = m * m
    thru = (m + 1) * m2
    pos: list = [None] * n       # point id of each placed vertex
    placed: list = []            # the point ids of order[:k + 1], in order
    near = [0] * n               # placed neighbours, over all graphs
    fixed: list[list] = [[] for _ in graphs]  # placed edges' keys per graph
    hull = [_NOWHERE]            # hull[k] boxes the points of placed[:k]
    dom = list(full)
    dom[root] = first
    nodes = looks = fills = 0
    get = masks.get

    def prune(k, p):
        # place v = order[k] at point id p; return the new edges, or None
        # (and undo the placement) when some domain empties
        nonlocal looks, fills
        v = order[k]
        pos[v] = p
        placed.append(p)
        new = [(g, pos[x] * m + p) for g, x in adj[v] if pos[x] is not None]
        ons = [ef for _, ef in new]
        for _, x in adj[v]:
            near[x] += 1
        pb = pts[p] * 2
        hull.append(_join(hull[k], pb))
        reach = None  # the box of the new edges, made when first needed
        from_p, thru_p, gone = (p + 1) * m2, thru + p * m, ~(1 << p)
        saved = []
        # by vertex id, as the point-by-point prune went: on most large
        # searches measured, that meets an emptied domain sooner than
        # preorder, and so tests fewer points
        for w in sorted(order[k + 1:]):
            if not (full[w] >> p & 1 or near[w]):
                # w's list misses p, and only a new edge can block it
                if not ons:
                    continue
                reach = reach or reduce(_join, [pts[ef // m] * 2 for ef in ons], pb)
                if not _meets(box[w], reach):
                    continue
            keys = ons.copy()
            for g, y in adj[w] if near[w] else ():
                s = pos[y]
                if s is None:
                    continue
                if y != v:
                    # from s: the new edges of g and the new point
                    keys += [(s + 1) * m2 + ef for h, ef in new if h == g]
                    keys.append(thru + s * m + p)
                    continue
                # from p: the placed edges of g and the placed points,
                # unless they all lie outside the box of the segments
                if _meets(hull[k], _join(pb, box[w])):
                    keys += [from_p + ef for ef in fixed[g]]
                    keys += [thru_p + r for r in placed[:k]]
            live = dom[w] & gone
            for key in keys:
                if not live:
                    break
                looks += 1
                got = get(key, 0)
                need = live & ~(got >> m)  # the live points not yet tested
                if need:
                    fills += 1
                    val = masks.fill(key, got, need)
                    if got or len(masks) < cap:
                        masks[key] = val
                    got = val
                live &= ~got
            if live != dom[w]:
                saved.append((w, dom[w]))
                dom[w] = live
                if not live:
                    undo(v, saved, ())
                    return None
        for g, ef in new:
            fixed[g].append(ef)
        return saved, new

    def undo(v, saved, new):
        for w, d in saved:
            dom[w] = d
        for g, _ in new:
            fixed[g].pop()
        placed.pop()
        hull.pop()
        for _, x in adj[v]:
            near[x] -= 1
        pos[v] = None

    def done(status, d=None):
        # the answer, with the mask counts
        meta.update(masks_filled=fills, masks_reused=looks - fills)
        return SearchResult(status, d, min(nodes, budget), metadata=meta)

    # depth-first over k = len(steps), order[:k] placed: rest[k] holds the
    # point ids order[k] has still to try, and steps[k] undoes its placement
    status, rest, steps = type(none), [], []
    while len(steps) < n:
        k = len(steps)
        v = order[k]
        if len(rest) == k:  # order[k] comes up: the cut of `after` applies
            rest.append(dom[v] & (-2 << pos[after[v]]) if v in after else dom[v])
        d = rest[k]
        if not d:  # order[k] has tried everything: back to order[k - 1]
            if not k:
                return done(none)
            rest.pop()
            undo(order[k - 1], *steps.pop())
            continue
        rest[k] = d & (d - 1)
        nodes += 1
        if nodes > budget:
            return done(status.BudgetExceeded)
        if (step := prune(k, (d & -d).bit_length() - 1)) is not None:
            steps.append(step)
    at = [pts[p] for p in pos]
    assert all(_plane([(min(at[u], at[v]), max(at[u], at[v])) for u, v in es], set(at))
               for es in graphs)
    return done(status.Found, Drawing({v: given[p] for v, p in enumerate(pos)}))


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
    # keeps the lexicographic order
    pts = list(candidate_points)
    by_int = dict(zip(int_coords(pts), pts))
    return _place(i.tree.preorder(), [[by_int[k] for k in sorted(by_int)]] * n,
                  [i.tree.edges(), i.path.edges()], budget, SearchStatus.ProvedNone)
