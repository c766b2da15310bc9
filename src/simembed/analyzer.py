"""Executable geometric predicates over structured drawings.

Given a drawing together with the sequencing plan that names its cells,
these functions detect and classify passages (a cell path separating two
non-linearly-separable cells of another joint), doors (triangles a
root-polyline must traverse), channels (the region between the bending
paths of neighbouring joints), cuts (path edges connecting or slicing
channel segments), and connections between channel segments.

Everything is exact; nothing here searches for drawings.  Each entry
point clears the denominators of the whole drawing at once and runs every
sign test on integer points; Points appear only in the objects returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .geom import (
    _BAD,
    _features,
    _sign,
    DegenerateTriangle,
    Point,
    Position,
    Relation,
    int_convex_hull,
    int_coords,
    int_cross,
    int_on_segment,
    int_point_in_convex_polygon,
    int_point_in_triangle,
    int_relation,
    int_separable,
)
from .model import Drawing, FormatError, Instance


class AnalyzerError(ValueError):
    pass


class PlanMismatch(AnalyzerError):
    pass


class UnorderableJoints(AnalyzerError):
    pass


class TooFewJoints(AnalyzerError):
    pass


class DoorStatus(Enum):
    Open = "open"
    Closed = "closed"


class PassageRelation(Enum):
    Independent = "independent"
    Nested = "nested"
    Interconnected = "interconnected"


class CutKind(Enum):
    BlockingCut = "blocking-cut"
    DoubleCutSimple = "double-cut-simple"
    DoubleCutNonSimple = "double-cut-non-simple"


class ConnectionKind(Enum):
    OneSide = "1-side"
    TwoSideLow = "2-side-low"
    TwoSideHigh = "2-side-high"


class _Ints(dict):
    """Vertex -> integer point for all of d, and Point -> integer point
    (`of`) for the `extra` points, from one int_coords call."""

    def __init__(self, d: Drawing, extra=()):
        pts = [*d.pos.values(), *extra]
        ints = int_coords(pts)
        super().__init__(zip(d.pos, ints))
        self.of = dict(zip(pts[len(d.pos):], ints[len(d.pos):]))

    def __missing__(self, v):
        raise FormatError(f"vertex {v} is not drawn")


# --- passages -------------------------------------------------------------

@dataclass(frozen=True)
class Passage:
    c1: int
    c2: int
    c_sep: int
    joint: int
    sep_joint: int
    c1_vertices: tuple = ()
    c2_vertices: tuple = ()
    sep_vertices: tuple = ()
    polyline: tuple = ()
    crossed_sep_edges: tuple = ()


def _relations(a, b, polyline) -> list[Relation]:
    """The relation of segment ab with each edge of the polyline."""
    return [int_relation(a, b, p, q) for p, q in zip(polyline, polyline[1:])]


def _check_plan(i: Instance, d: Drawing, plan) -> list[list[int]]:
    """Each cell's path order, once every vertex it and its joint name
    is checked to be a drawn vertex of the tree."""
    orders = []
    for idx, cell in enumerate(plan.cells):
        orders.append(cell.path_order())
        for v in orders[-1] + [cell.joint]:
            if not (0 <= v < i.tree.n):
                raise PlanMismatch(f"cell {idx} names vertex {v} outside the tree")
            if v not in d.pos:
                raise PlanMismatch(f"cell {idx} vertex {v} is not drawn")
    return orders


def detect_passages(i: Instance, d: Drawing, plan) -> list[Passage]:
    """All triples (c1, c2, c') where c1, c2 share a joint, admit no
    separating line, and the drawn path of c' (another joint) separates
    their vertex sets.

    Separation is decided by crossing parity against the polyline: every
    straight segment from a c1 vertex to a c2 vertex crosses it an odd
    number of times, while segments inside one cell cross it evenly.
    Degenerate contacts disqualify the candidate polyline.
    """
    orders = _check_plan(i, d, plan)
    ic = _Ints(d)
    pts = [[ic[v] for v in vs] for vs in orders]
    polylines = [tuple(d.point(v) for v in vs) for vs in orders]
    joint = [cell.joint for cell in plan.cells]
    tree_edges = i.tree.edges()
    out = []
    for a, b in combinations(range(len(orders)), 2):
        if joint[a] != joint[b] or int_separable(pts[a], pts[b]):
            continue
        for s, poly in enumerate(pts):
            if (joint[s] == joint[a] or len(poly) < 3
                    or not _separates(pts[a], pts[b], poly)):
                continue
            crossed = _crossed_polyline_edges(
                tree_edges, set(orders[a]), set(orders[b]), ic, poly)
            out.append(Passage(
                c1=a, c2=b, c_sep=s, joint=joint[a], sep_joint=joint[s],
                c1_vertices=tuple(orders[a]), c2_vertices=tuple(orders[b]),
                sep_vertices=tuple(orders[s]), polyline=polylines[s],
                crossed_sep_edges=crossed))
    return out


def _separates(pa: list, pb: list, poly: list) -> bool:
    def parity(p, q):
        """Proper crossings of pq with the polyline mod 2, or None on a
        degenerate contact (touch/overlap/vertex hit)."""
        rels = _relations(p, q, poly)
        if Relation.Touching in rels or Relation.Overlapping in rels:
            return None
        return rels.count(Relation.ProperCrossing) % 2

    if any(parity(p, q) != 1 for p in pa for q in pb):
        return False
    return all(parity(p, q) == 0 for g in (pa, pb) for p, q in combinations(g, 2))


def _crossed_polyline_edges(tree_edges, set1, set2, ic, poly) -> tuple:
    """Indices of polyline edges properly crossed by tree edges joining
    the two cell vertex sets."""
    hit = set()
    for u, v in tree_edges:
        if not ((u in set1 and v in set2) or (u in set2 and v in set1)):
            continue
        rels = _relations(ic[u], ic[v], poly)
        hit.update(e for e, rel in enumerate(rels)
                   if rel is Relation.ProperCrossing)
    return tuple(sorted(hit))


# --- doors ----------------------------------------------------------------

@dataclass(frozen=True)
class Door:
    apex: int
    base: tuple  # (w1 in c1, w2 in c2)
    status: DoorStatus


def _tree_distance(i: Instance, a: int, b: int) -> int:
    da = {}
    v, k = a, 0
    while v is not None:
        da[v] = k
        v = i.tree.parent[v]
        k += 1
    v, k = b, 0
    while v not in da:
        v = i.tree.parent[v]
        k += 1
    return da[v] + k


def enumerate_doors(p: Passage, i: Instance, d: Drawing) -> list[Door]:
    """Every door of the passage: a vertex of the separating cell inside
    hull(c1 ∪ c2) plus one base vertex per cell, whose triangle strictly
    contains no other c1/c2 vertex and no separating-cell vertex at
    smaller tree distance from the separating joint.  The door is closed
    when a tree edge at the apex crosses the base segment.
    """
    ic = _Ints(d)
    hull = int_convex_hull([ic[v] for v in p.c1_vertices + p.c2_vertices])
    dist = {v: _tree_distance(i, v, p.sep_joint) for v in p.sep_vertices}
    others = set(p.c1_vertices) | set(p.c2_vertices)
    tree_edges = i.tree.edges()
    out = []
    for apex in sorted(p.sep_vertices):
        pv = ic[apex]
        if int_point_in_convex_polygon(pv, hull) is not Position.Inside:
            continue
        nearer = [ic[w] for w in p.sep_vertices
                  if w != apex and dist[w] < dist[apex]]
        ends = [ic[v if u == apex else u] for u, v in tree_edges if apex in (u, v)]
        for w1 in sorted(p.c1_vertices):
            for w2 in sorted(p.c2_vertices):
                tri = (pv, ic[w1], ic[w2])
                if int_cross(*tri) == 0:
                    continue
                inner = [ic[w] for w in others if w not in (w1, w2)] + nearer
                if any(int_point_in_triangle(q, tri) is Position.Inside
                       for q in inner):
                    continue
                closed = any(int_relation(pv, q, tri[1], tri[2]) in _BAD
                             for q in ends)
                out.append(Door(apex, (w1, w2),
                                DoorStatus.Closed if closed else DoorStatus.Open))
    return out


# --- passage pairs --------------------------------------------------------

def classify_index_pairs(first: tuple, second: tuple) -> PassageRelation:
    """Classify two passages given as (joint, separating joint) index
    pairs.  Pure interval comparison; any coincidence among the relevant
    indices is refused."""
    a1, b1 = sorted(first)
    a2, b2 = sorted(second)
    if a1 > a2:
        (a1, b1), (a2, b2) = (a2, b2), (a1, b1)
    if a1 == a2 or b1 in (a2, b2):
        raise UnorderableJoints(f"indices {first} / {second} cannot be ordered")
    if b1 < a2:
        return PassageRelation.Independent
    if b2 < b1:
        return PassageRelation.Nested
    return PassageRelation.Interconnected


# --- channels -------------------------------------------------------------

@dataclass(frozen=True)
class ChannelSegment:
    index: int
    vertices: tuple          # polygon boundary (bounded) or gate pair
    rays: Optional[tuple] = None  # ((origin, direction), (origin, direction))


@dataclass(frozen=True)
class Channel:
    joint: int
    path_a: tuple
    path_b: tuple
    x: int
    gates: tuple            # per bend: (Point on path_a, Point on path_b)
    segments: tuple
    root: Point = None


def _encloses(ic: _Ints, path: tuple, c: int, q: int) -> bool:
    """Whether the bend at the end of path, continued to its child c,
    strictly encloses the vertex q."""
    tri = (ic[path[-2]], ic[path[-1]], ic[c])
    try:
        return int_point_in_triangle(ic[q], tri) is Position.Inside
    except DegenerateTriangle:  # a straight bend encloses nothing
        return False


def _least_leaf_path(kids, path: tuple) -> tuple:
    """The lexicographically least root-leaf path that extends path: the
    least child at every step."""
    while kids[path[-1]]:
        path += (min(kids[path[-1]]),)
    return path


def _deepest_pair(i: Instance, ic: _Ints, a: int, b: int) -> tuple:
    """(x, pa, pb) for the channel between joints a and b; see
    compute_channels."""
    kids, root = i.tree._kids, i.tree.root
    pairs = [((root, a), (root, b))]
    best = (0, _least_leaf_path(kids, pairs[0][0]),
            _least_leaf_path(kids, pairs[0][1]))
    k = 0
    while pairs:
        k += 1
        deeper, least = [], []
        for pa, pb in pairs:
            ka, kb = kids[pa[-1]], kids[pb[-1]]
            if not (ka and kb):
                continue
            # one side's bend encloses the other side's bendpoint: decided
            # per child, since the other side's bendpoint is fixed
            sa = {c for c in ka if _encloses(ic, pa, c, pb[-1])}
            sb = {c for c in kb if _encloses(ic, pb, c, pa[-1])}
            if sa:
                least.append((_least_leaf_path(kids, pa + (min(sa),)),
                              _least_leaf_path(kids, pb + (min(kb),))))
            if sb:
                least.append((_least_leaf_path(kids, pa + (min(ka),)),
                              _least_leaf_path(kids, pb + (min(sb),))))
            deeper += [(pa + (c,), pb + (e,)) for c in ka if kids[c]
                       for e in kb if kids[e] and (c in sa or e in sb)]
        if least:
            best = (k, *min(least))
        pairs = deeper
    return best


def _build_segments(d: Drawing, pa: tuple, pb: tuple, x: int):
    root = d.point(pa[0])
    ga = [d.point(pa[k]) for k in range(1, x + 1)]
    gb = [d.point(pb[k]) for k in range(1, x + 1)]
    gates = tuple(zip(ga, gb))
    segs = []
    if x == 0:
        segs.append(ChannelSegment(
            1, (root,),
            ((root, d.point(pa[1]) - root), (root, d.point(pb[1]) - root))))
        return gates, tuple(segs)
    segs.append(ChannelSegment(1, (root, ga[0], gb[0])))
    for h in range(2, x + 1):
        segs.append(ChannelSegment(
            h, (ga[h - 2], ga[h - 1], gb[h - 1], gb[h - 2])))
    da = d.point(pa[x + 1]) - ga[x - 1]
    db = d.point(pb[x + 1]) - gb[x - 1]
    segs.append(ChannelSegment(
        x + 1, (ga[x - 1], gb[x - 1]),
        ((ga[x - 1], da), (gb[x - 1], db))))
    return gates, tuple(segs)


def compute_channels(i: Instance, d: Drawing, joints: Sequence[int]) -> list[Channel]:
    """One channel per interior joint: the pair of root-leaf paths through
    its two neighbours with the longest initial run of mutually enclosing
    bendpoints (x), cut into x+1 explicit segment regions.  Ties go to
    the lexicographically least path pair.

    Bend k of a path pair passes when the triangle of one path's
    vertices k-1, k, k+1 strictly contains the other path's vertex k.
    The pair's x counts the passing bends from bend 1 on, so it depends
    only on prefixes: the walk keeps the prefix pairs, k+2 vertices
    each, whose bends 1..k all pass.  Each side's test at bend k fixes
    the other side's vertex k, so it is made once per child of a
    prefix's last vertex, not once per pair of children; only pairs of
    non-leaf prefixes go one bend deeper.  x is the deepest bend that
    some prefix pair passes, and the path pairs with that x are exactly
    the leaf-path pairs extending the prefix pairs that pass it.  Their
    least pair is the least (least leaf path through the first prefix,
    least leaf path through the second) over those prefix pairs, and
    over the pairs of root-joint prefixes when no bend 1 passes: the
    pair that the least (-x, pa, pb) over all root-leaf path pairs
    names.
    """
    if len(joints) < 3:
        raise TooFewJoints("channels need at least three joints")
    ic = _Ints(d)
    out = []
    for idx in range(1, len(joints) - 1):
        x, pa, pb = _deepest_pair(i, ic, joints[idx - 1], joints[idx + 1])
        gates, segs = _build_segments(d, pa, pb, x)
        out.append(Channel(joints[idx], pa, pb, x, gates, segs,
                           d.point(i.tree.root)))
    return out


def _channel_points(ch: Channel) -> list:
    """ch's root and every point of its segments, ray directions included."""
    return [ch.root] + [p for s in ch.segments
                        for p in s.vertices + sum(s.rays or (), ())]


@dataclass(frozen=True)
class _Region:
    """A channel segment on integer points, with its boundary edges and,
    when bounded, its bounding box (least x, greatest x, least y,
    greatest y) built once."""
    index: int
    vertices: tuple
    rays: Optional[tuple]
    edges: list
    box: Optional[tuple]


def _region(s: ChannelSegment, of: dict) -> _Region:
    vs = tuple(of[p] for p in s.vertices)
    if s.rays:
        return _Region(s.index, vs, tuple((of[o], of[v]) for o, v in s.rays),
                       _features(vs), None)
    xs, ys = [p[0] for p in vs], [p[1] for p in vs]
    return _Region(s.index, vs, None, _features(vs),
                   (min(xs), max(xs), min(ys), max(ys)))


def _on_ints(ch: Channel, of: dict):
    """ch's root and segment regions on integer points: every point, ray
    directions included, mapped through `of`."""
    return of[ch.root], [_region(s, of) for s in ch.segments]


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _side(anchor, direction, q) -> int:
    return _cross(direction, _sub(q, anchor))


def _in_polygon(q, seg: _Region) -> bool:
    """Strict even-odd membership in a bounded region; boundary points
    count as outside.  A point strictly inside lies strictly inside the
    bounding box, and the crossing count decides before the boundary
    test, which only turns an odd count into outside."""
    x0, x1, y0, y1 = seg.box
    if not (x0 < q[0] < x1 and y0 < q[1] < y1):
        return False
    inside = False
    for p, r in seg.edges:
        if (p[1] > q[1]) != (r[1] > q[1]):
            c = int_cross(p, r, q)  # q lies left of the edge's crossing
            inside ^= c != 0 and (c > 0) == (r[1] > p[1])
    return inside and not any(int_on_segment(q, p, r) for p, r in seg.edges)


def _contains(root, seg: _Region, q) -> bool:
    """Strict membership of a point in a channel segment region."""
    if seg.rays is None:
        return _in_polygon(q, seg)
    (oa, da), (ob, db) = seg.rays
    if len(seg.vertices) == 1:  # bend-free channel: the root wedge
        sa = _side(oa, da, (ob[0] + db[0], ob[1] + db[1]))
        sb = _side(ob, db, (oa[0] + da[0], oa[1] + da[1]))
        return (_side(oa, da, q) * sa > 0) and (_side(ob, db, q) * sb > 0)
    ga, gb = seg.vertices
    if int_cross(ga, gb, q) * int_cross(ga, gb, root) >= 0:
        return False
    return (_side(oa, da, q) * _side(oa, da, ob) > 0
            and _side(ob, db, q) * _side(ob, db, oa) > 0)


def _segment_of(root, segs, q) -> Optional[int]:
    return next((s.index for s in segs if _contains(root, s, q)), None)


def segment_of(ch: Channel, q: Point) -> Optional[int]:
    """The index of the segment of ch that strictly contains q, or None."""
    pts = [q, *_channel_points(ch)]
    of = dict(zip(pts, int_coords(pts)))
    return _segment_of(*_on_ints(ch, of), of[q])


def _line_hits_segment_region(a, b, seg: _Region) -> bool:
    """Does the full line through a, b meet the (convex) region?"""
    signs = {_sign(int_cross(a, b, q)) for q in seg.vertices}
    for origin, direction in (seg.rays or ()):
        signs.add(_sign(int_cross(a, b, origin)))
        cd = _cross(_sub(b, a), direction)
        if cd != 0:
            signs.add(_sign(cd))
    return 0 in signs or (1 in signs and -1 in signs)


def _ray_segment_hit(origin, direction, a, b) -> bool:
    e = _sub(b, a)
    den = _cross(direction, e)
    if den == 0:
        return False  # parallel; degenerate overlaps ignored
    w = _sub(a, origin)
    t, u = _cross(w, e), _cross(w, direction)
    if den < 0:
        den, t, u = -den, -t, -u
    return t >= 0 and 0 <= u <= den


def _ray_ray_hit(o1, d1, o2, d2) -> bool:
    den = _cross(d1, d2)
    w = _sub(o2, o1)
    if den == 0:
        return _cross(w, d1) == 0 and (
            w[0] * d1[0] + w[1] * d1[1] >= 0 or w[0] * d2[0] + w[1] * d2[1] <= 0)
    t, s = _cross(w, d2), _cross(w, d1)
    return t * den >= 0 and s * den >= 0


def _segment_hits_region(root, a, b, seg: _Region) -> bool:
    return (_contains(root, seg, a) or _contains(root, seg, b)
            or any(int_relation(a, b, *s) is Relation.ProperCrossing
                   for s in seg.edges)
            or any(_ray_segment_hit(o, v, a, b) for o, v in seg.rays or ()))


def _ray_hits_region(root, origin, direction, seg: _Region) -> bool:
    return (_contains(root, seg, origin)
            or any(_ray_segment_hit(origin, direction, *s)
                   for s in seg.edges)
            or any(_ray_ray_hit(origin, direction, o, v) for o, v in seg.rays or ()))


# --- cuts -----------------------------------------------------------------

@dataclass(frozen=True)
class CutEvent:
    kind: CutKind
    edge: tuple
    channel: int            # joint of the channel hit
    segments: tuple
    extremal: bool = False


def _gap(gate, a, b) -> Fraction:
    """Four times the squared distance from the midpoint of gate to the
    closed segment ab: doubled, the points stay integral."""
    w = (gate[0][0] + gate[1][0] - 2 * a[0], gate[0][1] + gate[1][1] - 2 * a[1])
    e = (2 * (b[0] - a[0]), 2 * (b[1] - a[1]))
    t, n = w[0] * e[0] + w[1] * e[1], e[0] ** 2 + e[1] ** 2
    if t >= n:  # nearest to b
        w, t = _sub(w, e), 0
    return Fraction((w[0] ** 2 + w[1] ** 2) * n - max(t, 0) ** 2, n)


def _vertex_to_ef(plan) -> dict:
    if plan is None:
        return {}
    owner = {}
    for ef_idx, ef in enumerate(plan.efs):
        for f_idx in ef["formations"]:
            for cell_id in plan.formations[f_idx]["cells"]:
                for v in plan.cells[cell_id].path_order():
                    owner[v] = ef_idx
    return owner


def detect_cuts(i: Instance, d: Drawing, channels: Sequence[Channel],
                plan=None) -> list[CutEvent]:
    """Classify every path edge against every channel.

    Blocking cut: the edge joins two consecutive segments of one channel
    while properly crossing the bounding paths of another channel at
    least twice.  Double cut: the edge crosses a wall of segment h and
    its supporting line meets segment h+1 — simple when the edge itself
    stays out of segment h+1.  Double cuts are flagged extremal when no
    double cut of the same group (same extended formation when a plan is
    given) lies closer to the bending area between the two segments.
    """
    ic = _Ints(d, [p for ch in channels for p in _channel_points(ch)])
    regions = [_on_ints(ch, ic.of) for ch in channels]
    # per channel: the segment holding each drawn vertex, the two bounding
    # paths and the gates on integer points
    where = [{v: _segment_of(root, segs, q) for v, q in ic.items()}
             for root, segs in regions]
    walls = [[[ic[w] for w in path] for path in (ch.path_a, ch.path_b)]
             for ch in channels]
    gates = [[[ic.of[g] for g in gate] for gate in ch.gates] for ch in channels]
    events = []
    doubles = []
    owner = _vertex_to_ef(plan)
    for u, v in i.path.edges():
        if u not in d.pos or v not in d.pos:
            continue
        a, b = ic[u], ic[v]
        homes = []
        for ch, at in zip(channels, where):
            su, sv = at[u], at[v]
            if su is not None and sv is not None and abs(su - sv) == 1:
                homes.append((ch, tuple(sorted((su, sv)))))
        for ch, span in homes:
            for other, polys in zip(channels, walls):
                if other.joint == ch.joint:
                    continue
                rels = [rel for poly in polys for rel in _relations(a, b, poly)]
                if rels.count(Relation.ProperCrossing) >= 2:
                    events.append(CutEvent(CutKind.BlockingCut, (u, v),
                                           other.joint, span))
        for ch, (root, segs), (wa, wb), gs in zip(channels, regions, walls, gates):
            for h in range(1, len(segs)):
                # the two walls bounding segment h
                if (int_relation(a, b, wa[h - 1], wa[h]) is not Relation.ProperCrossing
                        and int_relation(a, b, wb[h - 1], wb[h])
                        is not Relation.ProperCrossing):
                    continue
                nxt = segs[h]
                if not _line_hits_segment_region(a, b, nxt):
                    continue
                simple = not _segment_hits_region(root, a, b, nxt)
                kind = CutKind.DoubleCutSimple if simple \
                    else CutKind.DoubleCutNonSimple
                dist = _gap(gs[h - 1], a, b)
                group = (ch.joint, h, owner.get(u, owner.get(v)))
                doubles.append((group, dist, CutEvent(kind, (u, v),
                                                      ch.joint, (h, h + 1))))
    best = {}
    for group, dist, ev in doubles:
        if group not in best or dist < best[group]:
            best[group] = dist
    for group, dist, ev in doubles:
        events.append(CutEvent(ev.kind, ev.edge, ev.channel, ev.segments,
                               extremal=(dist == best[group])))
    events.sort(key=lambda ev: (ev.kind.value, ev.edge, ev.channel, ev.segments))
    return events


# --- connections ----------------------------------------------------------

@dataclass
class ConnectionReport:
    joint: int
    entries: dict = field(default_factory=dict)  # (a, b) -> ConnectionKind


def classify_connections(channels: Sequence[Channel],
                         d: Drawing) -> list[ConnectionReport]:
    """For every non-consecutive ordered segment pair (a, b) of each
    channel with a bounded by an outer gate: 1-side when neither wall
    elongation of segment a reaches segment b, otherwise 2-side, low or
    high depending on whether a reaching elongation starts at the gate
    bendpoint closer to the root.  Consecutive pairs are omitted (they
    share a gate and never form a 2-side connection).
    """
    ic = _Ints(d, [p for ch in channels for p in _channel_points(ch)])
    out = []
    for ch in channels:
        root, segs = _on_ints(ch, ic.of)
        rep = ConnectionReport(ch.joint)
        n = len(segs)
        for a in range(1, min(n, ch.x + 1)):  # segments with an outer gate
            # the two wall-extension rays of segment a beyond its outer gate
            rays = [(ic[p[a]], _sub(ic[p[a]], ic[p[a - 1]]))
                    for p in (ch.path_a, ch.path_b)]
            dist2 = [(o[0] - root[0]) ** 2 + (o[1] - root[1]) ** 2 for o, _ in rays]
            for b in range(1, n + 1):
                if abs(a - b) < 2:
                    continue
                hits = [dd for (o, v), dd in zip(rays, dist2)
                        if _ray_hits_region(root, o, v, segs[b - 1])]
                if not hits:
                    rep.entries[(a, b)] = ConnectionKind.OneSide
                elif min(hits) == min(dist2):
                    rep.entries[(a, b)] = ConnectionKind.TwoSideLow
                else:
                    rep.entries[(a, b)] = ConnectionKind.TwoSideHigh
        out.append(rep)
    return out


def disjoint_intersections(first: tuple, second: tuple) -> bool:
    """Whether intersections I_(a,b) and I_(c,d) are disjoint: a and d in
    {1, 2} while b and c are in {3, 4}."""
    a, b = first
    c, dd = second
    return a in (1, 2) and dd in (1, 2) and b in (3, 4) and c in (3, 4)
