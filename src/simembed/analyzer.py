"""Executable geometric predicates over structured drawings.

Given a drawing together with the sequencing plan that names its cells,
these functions detect and classify passages (a cell path separating two
non-linearly-separable cells of another joint), doors (triangles a
root-polyline must traverse), channels (the region between the bending
paths of neighbouring joints), cuts (path edges connecting or slicing
channel segments), and connections between channel segments.

Everything is exact; nothing here searches for drawings.  Each entry
point clears the drawing's denominators once: it runs every sign test on
`Drawing.ints`, built with the drawing, and rebuilds channel regions from
their vertex ids there.  Points appear only in the objects returned;
`segment_of`, which takes a Point, clears its own points' denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

from .geom import (
    _BAD,
    _features,
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
from .model import Drawing, Instance


class AnalyzerError(ValueError):
    pass


class PlanMismatch(AnalyzerError):
    pass


class TooFewJoints(AnalyzerError):
    pass


class DoorStatus(Enum):
    Open = "open"
    Closed = "closed"


class CutKind(Enum):
    BlockingCut = "blocking-cut"
    DoubleCutSimple = "double-cut-simple"
    DoubleCutNonSimple = "double-cut-non-simple"


class ConnectionKind(Enum):
    OneSide = "1-side"
    TwoSideLow = "2-side-low"
    TwoSideHigh = "2-side-high"


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
    crossed_sep_edges: tuple = ()


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
    Degenerate contacts disqualify the candidate polyline.  Before that
    exact test, ray parities (`_Rays`) reject the candidates that some
    c1-c2 segment is sure to cross evenly; whether a line separates the
    two cells is asked only once a candidate survives them.
    """
    orders = _check_plan(i, d, plan)
    ic = d.ints
    pts = [[ic[v] for v in vs] for vs in orders]
    joint = [cell.joint for cell in plan.cells]
    parent = i.tree.parent
    rays = [_Rays(poly) for poly in pts]
    out = []
    for a, b in combinations(range(len(orders)), 2):
        if joint[a] != joint[b]:
            continue
        if not set(orders[a]).isdisjoint(orders[b]):
            int_separable(pts[a], pts[b])  # raises SharedPoint
        separable = None  # asked on the first candidate the rays keep
        for s, poly in enumerate(pts):
            if (joint[s] == joint[a] or len(poly) < 3
                    or rays[s].rejects(orders[a], pts[a], orders[b], pts[b])):
                continue
            if separable is None:
                separable = int_separable(pts[a], pts[b])
            if separable:
                break
            if not _separates(pts[a], pts[b], poly):
                continue
            # a tree edge joining the cells is (parent[v], v) for its
            # child end v, a cell vertex
            crossed = _crossed_polyline_edges(
                [(parent[v], v) for v in orders[a] + orders[b]],
                set(orders[a]), set(orders[b]), ic, poly)
            out.append(Passage(
                c1=a, c2=b, c_sep=s, joint=joint[a], sep_joint=joint[s],
                c1_vertices=tuple(orders[a]), c2_vertices=tuple(orders[b]),
                sep_vertices=tuple(orders[s]),
                crossed_sep_edges=crossed))
    return out


def _sides(p, r, pts) -> list[int]:
    """int_cross(p, r, q) for each point q of pts: each point's side of
    the line pr, computed once."""
    px, py = p
    ux, uy = r[0] - px, r[1] - py
    return [ux * (y - py) - uy * (x - px) for x, y in pts]


_TOUCH = (Relation.Touching, Relation.Overlapping)


def _crossings(p, r, pts, side=None) -> tuple[list[int], bool]:
    """(ks, touched) for the segment pr against the polyline pts, whose
    points lie on the sides `side` of the line pr (computed when not
    given): pr properly crosses the edge (pts[k], pts[k+1]) exactly for
    the k in ks, and touched tells whether it touches or overlaps some
    edge.  An edge with both ends strictly on one side misses pr; on an
    edge whose ends lie strictly on opposite sides, pr's ends are tested
    against the edge's line inline; int_relation decides only where an
    orientation is 0."""
    if side is None:
        side = _sides(p, r, pts)
    (px, py), (rx, ry) = p, r
    ks, touched = [], False
    for k in [k for k, s0, s1 in zip(range(len(side)), side, side[1:])
              if not (s0 > 0 < s1 or s0 < 0 > s1)]:
        (ax, ay), (bx, by) = pts[k], pts[k + 1]
        if side[k] and side[k + 1]:
            vx, vy = bx - ax, by - ay
            o3 = vx * (py - ay) - vy * (px - ax)
            o4 = vx * (ry - ay) - vy * (rx - ax)
            if o3 > 0 < o4 or o3 < 0 > o4:
                continue
            if o3 and o4:
                ks.append(k)
                continue
        touched |= int_relation(p, r, pts[k], pts[k + 1]) in _TOUCH
    return ks, touched


def _parity(p, q, poly) -> Optional[int]:
    """Proper crossings of pq with the polyline mod 2, or None on a
    degenerate contact (touch/overlap/vertex hit)."""
    ks, touched = _crossings(p, q, poly)
    return None if touched else len(ks) % 2


def _separates(pa: list, pb: list, poly: list) -> bool:
    if any(_parity(p, q, poly) != 1 for p in pa for q in pb):
        return False
    return all(_parity(p, q, poly) == 0 for g in (pa, pb) for p, q in combinations(g, 2))


class _Rays:
    """One polyline's crossing parity with the upward vertical ray from
    each vertex's point, computed on first use.

    For a segment pq with p.x < q.x, let R be the open region above pq
    between the verticals through p and q.  When the polyline meets R's
    boundary only where it crosses it, the polyline's proper crossings
    with pq, mod 2, are w(p) + w(q) + [e0 in R] + [e1 in R], where w is
    the ray parity and e0, e1 are the polyline's ends (the Jordan curve
    theorem on R's boundary).  w is None when a polyline vertex lies on
    the vertical through the point or an edge passes through the point;
    a segment with p.x = q.x is not judged.  A polyline vertex on pq
    itself is a touch, which fails the exact test anyway."""

    def __init__(self, poly: list):
        self.ends = (poly[0], poly[-1])
        self.xs = {x for x, _ in poly}
        # the non-vertical edges, left end first
        self.edges = [(*r, *s) if r[0] < s[0] else (*s, *r)
                      for r, s in zip(poly, poly[1:]) if r[0] != s[0]]
        self.w = {}  # vertex -> ray parity of its point, or None

    def at(self, v: int, q) -> Optional[int]:
        if v not in self.w:
            qx, qy = q
            # the crossed edges, each by q's side of it: below when < 0
            cs = None if qx in self.xs else [
                (x1 - x0) * (qy - y0) - (y1 - y0) * (qx - x0)
                for x0, y0, x1, y1 in self.edges if x0 < qx < x1]
            self.w[v] = (None if cs is None or 0 in cs
                         else len([c for c in cs if c < 0]) % 2)
        return self.w[v]

    def rejects(self, va, pa, vb, pb) -> bool:
        """Whether some segment from a point of pa to a point of pb (of
        the vertices va and vb) is sure to cross the polyline an even
        number of times, or to touch it: then the polyline does not
        separate pa from pb."""
        for u, p in zip(va, pa):
            wp = self.at(u, p)
            if wp is None:
                continue
            for v, q in zip(vb, pb):
                wq = self.at(v, q)
                if wq is None or p[0] == q[0]:
                    continue
                (lx, ly), (rx, ry) = (p, q) if p[0] < q[0] else (q, p)
                odd = wp ^ wq
                for ex, ey in self.ends:
                    odd ^= lx < ex < rx and (rx - lx) * (ey - ly) > (ry - ly) * (ex - lx)
                if not odd:
                    return True
        return False


def _crossed_polyline_edges(edges, set1, set2, ic, poly) -> tuple:
    """Indices of polyline edges properly crossed by those of the given
    tree edges that join the two cell vertex sets."""
    hit = set()
    for u, v in edges:
        if not ((u in set1 and v in set2) or (u in set2 and v in set1)):
            continue
        hit.update(_crossings(ic[u], ic[v], poly)[0])
    return tuple(sorted(hit))


# --- doors ----------------------------------------------------------------

@dataclass(frozen=True)
class Door:
    apex: int
    base: tuple  # (w1 in c1, w2 in c2)
    status: DoorStatus


def _tree_distance(i: Instance, a: int, b: int) -> int:
    """The tree edges between a and b: the deeper end climbs till they meet."""
    depth, parent = i.tree.depth, i.tree.parent
    k = 0
    while a != b:
        if depth[a] < depth[b]:
            a, b = b, a
        a = parent[a]
        k += 1
    return k


def enumerate_doors(p: Passage, i: Instance, d: Drawing) -> list[Door]:
    """Every door of the passage: a vertex of the separating cell inside
    hull(c1 ∪ c2) plus one base vertex per cell, whose triangle strictly
    contains no other c1/c2 vertex and no separating-cell vertex at
    smaller tree distance from the separating joint.  The door is closed
    when a tree edge at the apex crosses the base segment.
    """
    ic = d.ints
    hull = int_convex_hull([ic[v] for v in p.c1_vertices + p.c2_vertices])
    dist = {v: _tree_distance(i, v, p.sep_joint) for v in p.sep_vertices}
    others = [ic[w] for w in set(p.c1_vertices) | set(p.c2_vertices)]
    out = []
    for apex in sorted(p.sep_vertices):
        pv = ic[apex]
        if int_point_in_convex_polygon(pv, hull) is not Position.Inside:
            continue
        # a triangle never strictly contains its own corners, so one
        # obstacle list serves every base pair of this apex
        inner = others + [ic[w] for w in p.sep_vertices
                          if w != apex and dist[w] < dist[apex]]
        ends = [ic[w] for w in i.tree._kids[apex] + (i.tree.parent[apex],)
                if w is not None]
        for w1 in sorted(p.c1_vertices):
            for w2 in sorted(p.c2_vertices):
                tri = (pv, ic[w1], ic[w2])
                if int_cross(*tri) == 0:
                    continue
                if any(int_point_in_triangle(q, tri) is Position.Inside
                       for q in inner):
                    continue
                closed = any(int_relation(pv, q, tri[1], tri[2]) in _BAD
                             for q in ends)
                out.append(Door(apex, (w1, w2),
                                DoorStatus.Closed if closed else DoorStatus.Open))
    return out


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


def _encloses(ic: dict, path: tuple, c: int, q: int) -> bool:
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


def _deepest_pair(i: Instance, ic: dict, a: int, b: int) -> tuple:
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


def _build_segments(at, sub, pa: tuple, pb: tuple, x: int):
    """The gates and segments of the channel (pa, pb, x), on the points
    at(v) of its vertices, a ray direction being sub(p, q) = p - q."""
    root = at(pa[0])
    ga = [at(pa[k]) for k in range(1, x + 1)]
    gb = [at(pb[k]) for k in range(1, x + 1)]
    gates = tuple(zip(ga, gb))
    segs = []
    if x == 0:
        segs.append(ChannelSegment(
            1, (root,), ((root, sub(at(pa[1]), root)), (root, sub(at(pb[1]), root)))))
        return gates, tuple(segs)
    segs.append(ChannelSegment(1, (root, ga[0], gb[0])))
    for h in range(2, x + 1):
        segs.append(ChannelSegment(
            h, (ga[h - 2], ga[h - 1], gb[h - 1], gb[h - 2])))
    da = sub(at(pa[x + 1]), ga[x - 1])
    db = sub(at(pb[x + 1]), gb[x - 1])
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
    out = []
    for idx in range(1, len(joints) - 1):
        x, pa, pb = _deepest_pair(i, d.ints, joints[idx - 1], joints[idx + 1])
        gates, segs = _build_segments(d.point, Point.__sub__, pa, pb, x)
        out.append(Channel(joints[idx], pa, pb, x, gates, segs,
                           d.point(i.tree.root)))
    return out


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


def _region(s: ChannelSegment) -> _Region:
    """s, a segment on integer points, as a _Region."""
    vs = s.vertices
    if s.rays:
        return _Region(s.index, vs, s.rays, _features(vs), None)
    xs, ys = [p[0] for p in vs], [p[1] for p in vs]
    return _Region(s.index, vs, None, _features(vs),
                   (min(xs), max(xs), min(ys), max(ys)))


def _on_ints(ch: Channel, ints: dict):
    """ch's root, gates and segment regions on the drawing's integer
    points, built from ch's vertex ids as compute_channels builds them."""
    gates, segs = _build_segments(ints.__getitem__, _sub, ch.path_a, ch.path_b, ch.x)
    return ints[ch.path_a[0]], gates, [_region(s) for s in segs]


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _side(anchor, direction, q) -> int:
    return _cross(direction, _sub(q, anchor))


def _in_polygon(q, seg: _Region, cs=None) -> bool:
    """Strict even-odd membership in a bounded region; boundary points
    count as outside.  cs[j], when given, is int_cross(p, r, q) for the
    region's j-th edge (p, r).  A point strictly inside lies strictly
    inside the bounding box, and the crossing count decides before the
    boundary test, which only turns an odd count into outside."""
    x0, x1, y0, y1 = seg.box
    if not (x0 < q[0] < x1 and y0 < q[1] < y1):
        return False
    if cs is None:
        cs = [int_cross(p, r, q) for p, r in seg.edges]
    inside = False
    for (p, r), c in zip(seg.edges, cs):
        if (p[1] > q[1]) != (r[1] > q[1]):  # q lies left of the edge's crossing
            inside ^= c != 0 and (c > 0) == (r[1] > p[1])
    return inside and not any(c == 0 and int_on_segment(q, p, r)
                              for (p, r), c in zip(seg.edges, cs))


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
    """The index of the segment of ch that strictly contains q, or None.
    Like geom's Point predicates, it clears its own points' denominators."""
    pts = [q, ch.root, *(p for s in ch.segments
                         for p in s.vertices + sum(s.rays or (), ()))]
    of = dict(zip(pts, int_coords(pts))).__getitem__
    segs = [_region(ChannelSegment(s.index, tuple(map(of, s.vertices)),
                                   s.rays and tuple(tuple(map(of, r)) for r in s.rays)))
            for s in ch.segments]
    return _segment_of(of(ch.root), segs, of(q))


def _line_hits_segment_region(a, b, seg: _Region) -> bool:
    """Does the full line through a, b meet the (convex) region?  A ray's
    origin is a vertex of its region, so the vertices' sides and the
    rays' directions decide."""
    sides = _sides(a, b, seg.vertices)
    sides += [c for c in (_cross(_sub(b, a), v) for _, v in seg.rays or ()) if c]
    return min(sides) <= 0 <= max(sides)


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


def _crosses_boundary(a, b, seg: _Region) -> bool:
    """Whether the segment ab properly crosses an edge of the region or
    meets one of its rays; with an end of ab strictly inside, this is
    whether ab meets the region."""
    return (any(int_relation(a, b, *s) is Relation.ProperCrossing
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


def _gap(gate, a, b) -> tuple[int, int]:
    """(num, den), den > 0: four times the squared distance from the
    midpoint of gate to the closed segment ab is num / den.  Doubled, the
    points stay integral; gaps compare by cross-multiplying."""
    w = (gate[0][0] + gate[1][0] - 2 * a[0], gate[0][1] + gate[1][1] - 2 * a[1])
    e = (2 * (b[0] - a[0]), 2 * (b[1] - a[1]))
    t, n = w[0] * e[0] + w[1] * e[1], e[0] ** 2 + e[1] ** 2
    if t >= n:  # nearest to b
        w, t = _sub(w, e), 0
    return (w[0] ** 2 + w[1] ** 2) * n - max(t, 0) ** 2, n


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


def _inside(root, wa, wb, segs, sa, sb, sg, pts) -> list[set]:
    """For each segment of the channel, in index order, the set of k
    whose point pts[k] it strictly contains (as _contains tells), read
    off the points' sides of the channel's walls and gates: sa[h-1] and
    sb[h-1] hold their sides of wall edge h of either bounding path (wa
    or wb, h = 1..x+1), and sg[h-1] their sides of gate h (h = 1..x)."""
    x = len(sg)
    # the unbounded segment x+1 (the root wedge when x = 0): sign tests
    if x == 0:
        ka, kb = int_cross(wa[0], wa[1], wb[1]), int_cross(wb[0], wb[1], wa[1])
        inner = [k for k, s, t in zip(range(len(pts)), sa[0], sb[0])
                 if s * ka > 0 and t * kb > 0]
    else:
        ka, kb = int_cross(wa[x], wa[x + 1], wb[x]), int_cross(wb[x], wb[x + 1], wa[x])
        g = int_cross(wa[x], wb[x], root)  # beyond the gate: the other side
        inner = [k for k, s, t, c in zip(range(len(pts)), sa[x], sb[x], sg[x - 1])
                 if s * ka > 0 and t * kb > 0 and c * g < 0]
    out = []
    # the bounded ones: each edge's side list, negated for an edge run
    # backwards
    for h in range(1, x + 1):
        seg = segs[h - 1]
        lines = [(sa[h - 1], 1), (sg[h - 1], 1), (sb[h - 1], -1)]
        if h > 1:
            lines.append((sg[h - 2], -1))
        x0, x1, y0, y1 = seg.box
        out.append({k for k, (qx, qy) in enumerate(pts)
                    if x0 < qx < x1 and y0 < qy < y1
                    and _in_polygon(pts[k], seg, [sign * side[k] for side, sign in lines])})
    return out + [set(inner)]


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

    Each channel computes every path vertex's side of each of its wall
    and gate lines once; the segment holding each vertex and the path
    edges crossing each wall are read off those sides.
    """
    ic = d.ints
    order = i.path.order
    pts = [ic[v] for v in order] if len(order) > 1 else []
    walls = [[[ic[w] for w in path] for path in (ch.path_a, ch.path_b)]
             for ch in channels]
    homes = {}  # path edge k -> [(channel, segment pair)]
    events, least = [], {}  # least: each group's least gap, and its cuts
    owner = _vertex_to_ef(plan)
    for ch, (wa, wb) in zip(channels, walls):
        root, gs, segs = _on_ints(ch, ic)
        sa, sb = ([_sides(w[h - 1], w[h], pts) for h in range(1, ch.x + 2)]
                  for w in (wa, wb))
        sg = [_sides(ga, gb, pts) for ga, gb in gs]
        inside = _inside(root, wa, wb, segs, sa, sb, sg, pts)
        # the segment holding each path vertex, as _segment_of tells: the
        # least index holding it
        at = [None] * len(pts)
        for h in range(len(segs), 0, -1):
            for k in inside[h - 1]:
                at[k] = h
        for k, su, sv in zip(range(len(at)), at, at[1:]):
            if su is not None and sv is not None and abs(su - sv) == 1:
                homes.setdefault(k, []).append((ch, (min(su, sv), max(su, sv))))
        for h in range(1, len(segs)):
            # the path edges crossing either wall bounding segment h
            crossed = set(_crossings(wa[h - 1], wa[h], pts, sa[h - 1])[0])
            crossed.update(_crossings(wb[h - 1], wb[h], pts, sb[h - 1])[0])
            nxt, span = segs[h], (h, h + 1)
            for k in crossed:
                a, b = pts[k], pts[k + 1]
                if not _line_hits_segment_region(a, b, nxt):
                    continue
                simple = not (k in inside[h] or k + 1 in inside[h]
                              or _crosses_boundary(a, b, nxt))
                kind = CutKind.DoubleCutSimple if simple \
                    else CutKind.DoubleCutNonSimple
                num, den = _gap(gs[h - 1], a, b)
                u, v = order[k], order[k + 1]
                group = (ch.joint, h, owner.get(u, owner.get(v)))
                best = least.get(group)
                if best is None or num * best[1] < best[0] * den:
                    least[group] = (num, den, [len(events)])
                elif num * best[1] == best[0] * den:
                    best[2].append(len(events))
                events.append(CutEvent(kind, (u, v), ch.joint, span))
    for *_, nearest in least.values():
        for e in nearest:
            events[e] = replace(events[e], extremal=True)
    for k, spans in homes.items():
        a, b = pts[k], pts[k + 1]
        for ch, span in spans:
            for other, polys in zip(channels, walls):
                if other.joint == ch.joint:
                    continue
                if sum(len(_crossings(a, b, poly)[0]) for poly in polys) >= 2:
                    events.append(CutEvent(CutKind.BlockingCut,
                                           (order[k], order[k + 1]),
                                           other.joint, span))
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
    ic = d.ints
    out = []
    for ch in channels:
        root, _, segs = _on_ints(ch, ic)
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
