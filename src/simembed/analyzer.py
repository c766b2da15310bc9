"""Executable geometric predicates over structured drawings.

Given a drawing together with the sequencing plan that names its cells,
these functions detect and classify passages (a cell path separating two
non-linearly-separable cells of another joint), doors (triangles a
root-polyline must traverse), channels (the region between the bending
paths of neighbouring joints), cuts (path edges connecting or slicing
channel segments), and connections between channel segments.

Everything is exact; nothing here searches for drawings.  The intended
inputs are small hand-built witness configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

from .geom import (
    _closest_point_on_segment,
    _features,
    _on_closed_segment,
    Point,
    Position,
    Relation,
    Segment,
    cross3,
    convex_hull,
    linear_separator,
    point_in_convex_polygon,
    point_in_triangle,
    segment_relation,
)
from .model import Drawing, Instance


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


def _relations(e: Segment, polyline: Sequence[Point]) -> list[Relation]:
    """The relation of segment e with each edge of the polyline."""
    return [segment_relation(e, Segment(p, q))
            for p, q in zip(polyline, polyline[1:])]


def _check_plan(i: Instance, d: Drawing, plan) -> None:
    for idx, cell in enumerate(plan.cells):
        for v in cell.path_order() + [cell.joint]:
            if not (0 <= v < i.tree.n):
                raise PlanMismatch(f"cell {idx} names vertex {v} outside the tree")
            if v not in d.pos:
                raise PlanMismatch(f"cell {idx} vertex {v} is not drawn")


def detect_passages(i: Instance, d: Drawing, plan) -> list[Passage]:
    """All triples (c1, c2, c') where c1, c2 share a joint, admit no
    separating line, and the drawn path of c' (another joint) separates
    their vertex sets.

    Separation is decided by crossing parity against the polyline: every
    straight segment from a c1 vertex to a c2 vertex crosses it an odd
    number of times, while segments inside one cell cross it evenly.
    Degenerate contacts disqualify the candidate polyline.
    """
    _check_plan(i, d, plan)
    tree_edges = i.tree.edges()
    out = []
    for a in range(len(plan.cells)):
        for b in range(a + 1, len(plan.cells)):
            ca, cb = plan.cells[a], plan.cells[b]
            if ca.joint != cb.joint:
                continue
            va, vb = ca.path_order(), cb.path_order()
            pa = [d.point(v) for v in va]
            pb = [d.point(v) for v in vb]
            if linear_separator(pa, pb) is not None:
                continue
            for s, cs in enumerate(plan.cells):
                if cs.joint == ca.joint:
                    continue
                vs = cs.path_order()
                poly = [d.point(v) for v in vs]
                if len(poly) < 3:
                    continue
                if not _separates(pa, pb, poly):
                    continue
                crossed = _crossed_polyline_edges(
                    tree_edges, set(va), set(vb), d, poly)
                out.append(Passage(
                    c1=a, c2=b, c_sep=s, joint=ca.joint, sep_joint=cs.joint,
                    c1_vertices=tuple(va), c2_vertices=tuple(vb),
                    sep_vertices=tuple(vs), polyline=tuple(poly),
                    crossed_sep_edges=crossed))
    return out


def _separates(pa: list, pb: list, poly: list) -> bool:
    def parity(p, q):
        """Proper crossings of pq with the polyline mod 2, or None on a
        degenerate contact (touch/overlap/vertex hit)."""
        rels = _relations(Segment(p, q), poly)
        if Relation.Touching in rels or Relation.Overlapping in rels:
            return None
        return rels.count(Relation.ProperCrossing) % 2

    if any(parity(p, q) != 1 for p in pa for q in pb):
        return False
    return all(parity(p, q) == 0 for g in (pa, pb) for p, q in combinations(g, 2))


def _crossed_polyline_edges(tree_edges, set1, set2, d, poly) -> tuple:
    """Indices of polyline edges properly crossed by tree edges joining
    the two cell vertex sets."""
    hit = set()
    for u, v in tree_edges:
        if not ((u in set1 and v in set2) or (u in set2 and v in set1)):
            continue
        rels = _relations(Segment(d.point(u), d.point(v)), poly)
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
    hull = convex_hull([d.point(v) for v in p.c1_vertices + p.c2_vertices])
    dist = {v: _tree_distance(i, v, p.sep_joint) for v in p.sep_vertices}
    others = set(p.c1_vertices) | set(p.c2_vertices)
    adj = [e for e in i.tree.edges()]
    out = []
    for apex in sorted(p.sep_vertices):
        pv = d.point(apex)
        if point_in_convex_polygon(pv, hull) is not Position.Inside:
            continue
        nearer = [d.point(w) for w in p.sep_vertices
                  if w != apex and dist[w] < dist[apex]]
        for w1 in sorted(p.c1_vertices):
            for w2 in sorted(p.c2_vertices):
                tri = (pv, d.point(w1), d.point(w2))
                if cross3(*tri) == 0:
                    continue
                blocked = any(
                    point_in_triangle(d.point(w), tri) is Position.Inside
                    for w in others if w not in (w1, w2))
                if blocked or any(point_in_triangle(q, tri) is Position.Inside
                                  for q in nearer):
                    continue
                base = Segment(d.point(w1), d.point(w2))
                closed = False
                for u, v in adj:
                    if apex not in (u, v):
                        continue
                    other = v if u == apex else u
                    rel = segment_relation(Segment(pv, d.point(other)), base)
                    if rel in (Relation.ProperCrossing, Relation.Touching,
                               Relation.Overlapping):
                        closed = True
                        break
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


def classify_passage_pair(p1: Passage, p2: Passage) -> PassageRelation:
    return classify_index_pairs((p1.joint, p1.sep_joint),
                                (p2.joint, p2.sep_joint))


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


def _root_leaf_paths(i: Instance, joint: int) -> list[tuple]:
    paths = []

    def walk(v, acc):
        ch = i.tree.children(v)
        if not ch:
            paths.append((i.tree.root, joint) + tuple(acc))
            return
        for c in ch:
            walk(c, acc + [c])

    walk(joint, [])
    return sorted(paths)


def _encloses(d: Drawing, path: tuple, k: int, q: Point) -> bool:
    u, v, w = (d.point(path[k - 1]), d.point(path[k]), d.point(path[k + 1]))
    if cross3(u, v, w) == 0:
        return False
    return point_in_triangle(q, (u, v, w)) is Position.Inside


def _mutual_prefix(d: Drawing, pa: tuple, pb: tuple) -> int:
    """Length of the initial run of bend indices at which one path's bend
    strictly encloses the other's."""
    x = 0
    for k in range(1, min(len(pa), len(pb)) - 1):
        if _encloses(d, pa, k, d.point(pb[k])) \
                or _encloses(d, pb, k, d.point(pa[k])):
            x += 1
        else:
            break
    return x


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
    """
    if len(joints) < 3:
        raise TooFewJoints("channels need at least three joints")
    out = []
    for idx in range(1, len(joints) - 1):
        best = None
        right = _root_leaf_paths(i, joints[idx + 1])
        for pa in _root_leaf_paths(i, joints[idx - 1]):
            for pb in right:
                if len(pa) < 2 or len(pb) < 2:
                    continue
                x = _mutual_prefix(d, pa, pb)
                key = (-x, pa, pb)
                if best is None or key < best[0]:
                    best = (key, pa, pb, x)
        if best is None:
            raise TooFewJoints(f"joint {joints[idx]} has no neighbouring paths")
        _, pa, pb, x = best
        gates, segs = _build_segments(d, pa, pb, x)
        out.append(Channel(joints[idx], pa, pb, x, gates, segs,
                           d.point(i.tree.root)))
    return out


def _side(anchor: Point, direction: Point, q: Point):
    return cross3(anchor, anchor + direction, q)


def _in_polygon(q: Point, poly: tuple) -> bool:
    """Strict even-odd membership; boundary points count as outside."""
    for p, r in zip(poly, poly[1:] + poly[:1]):
        if _on_closed_segment(q, Segment(p, r)):
            return False
    inside = False
    for p, r in zip(poly, poly[1:] + poly[:1]):
        if (p.y > q.y) != (r.y > q.y):
            t = (q.y - p.y) / (r.y - p.y)
            if q.x < p.x + t * (r.x - p.x):
                inside = not inside
    return inside


def segment_contains(ch: Channel, seg: ChannelSegment, q: Point) -> bool:
    """Strict membership of a point in a channel segment region."""
    if seg.rays is None:
        return _in_polygon(q, seg.vertices)
    (oa, da), (ob, db) = seg.rays
    if len(seg.vertices) == 1:  # bend-free channel: the root wedge
        sa, sb = _side(oa, da, ob + db), _side(ob, db, oa + da)
        return (_side(oa, da, q) * sa > 0) and (_side(ob, db, q) * sb > 0)
    ga, gb = seg.vertices
    root_side = cross3(ga, gb, ch.root)
    if cross3(ga, gb, q) * root_side >= 0:
        return False
    return (_side(oa, da, q) * _side(oa, da, ob) > 0
            and _side(ob, db, q) * _side(ob, db, oa) > 0)


def segment_of(ch: Channel, q: Point) -> Optional[int]:
    for seg in ch.segments:
        if segment_contains(ch, seg, q):
            return seg.index
    return None


def _line_hits_segment_region(a: Point, b: Point, seg: ChannelSegment) -> bool:
    """Does the full line through a, b meet the (convex) region?"""
    pts, rays = seg.vertices, seg.rays or ()
    signs = set()
    for q in pts:
        c = cross3(a, b, q)
        signs.add((c > 0) - (c < 0))
    for origin, direction in rays:
        c0 = cross3(a, b, origin)
        cd = (b - a).cross(direction)
        signs.add((c0 > 0) - (c0 < 0))
        if cd != 0:
            signs.add((cd > 0) - (cd < 0))
    return 0 in signs or (1 in signs and -1 in signs)


def _ray_segment_hit(origin: Point, direction: Point, s: Segment) -> bool:
    d2 = s.b - s.a
    den = direction.cross(d2)
    if den == 0:
        return False  # parallel; degenerate overlaps ignored
    w = s.a - origin
    t = w.cross(d2) / den
    u = w.cross(direction) / den
    return t >= 0 and 0 <= u <= 1


def _ray_ray_hit(o1: Point, d1: Point, o2: Point, d2: Point) -> bool:
    den = d1.cross(d2)
    w = o2 - o1
    if den == 0:
        return w.cross(d1) == 0 and (w.dot(d1) >= 0 or w.dot(d2) <= 0)
    t = w.cross(d2) / den
    s = w.cross(d1) / den
    return t >= 0 and s >= 0


def _segment_hits_region(ch: Channel, e: Segment, seg: ChannelSegment) -> bool:
    if segment_contains(ch, seg, e.a) or segment_contains(ch, seg, e.b):
        return True
    for s in _features(seg.vertices):
        if segment_relation(e, s) is Relation.ProperCrossing:
            return True
    for origin, direction in (seg.rays or ()):
        if _ray_segment_hit(origin, direction, e):
            return True
    return False


def _ray_hits_region(ch: Channel, origin: Point, direction: Point,
                     seg: ChannelSegment) -> bool:
    if segment_contains(ch, seg, origin):
        return True
    for s in _features(seg.vertices):
        if _ray_segment_hit(origin, direction, s):
            return True
    for o2, d2 in (seg.rays or ()):
        if _ray_ray_hit(origin, direction, o2, d2):
            return True
    return False


# --- cuts -----------------------------------------------------------------

@dataclass(frozen=True)
class CutEvent:
    kind: CutKind
    edge: tuple
    channel: int            # joint of the channel hit
    segments: tuple
    extremal: bool = False


def _wall(ch: Channel, d: Drawing, h: int):
    """The two wall segments bounding channel segment h (1-based)."""
    pa = [d.point(v) for v in ch.path_a]
    pb = [d.point(v) for v in ch.path_b]
    return Segment(pa[h - 1], pa[h]), Segment(pb[h - 1], pb[h])


def _vertex_to_ef(plan) -> dict:
    if plan is None:
        return {}
    owner = {}
    for ef_idx, ef in enumerate(plan.efs):
        for f_idx in ef.get("formations", []):
            for cell_id in plan.formations[f_idx].get("cells", []):
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
    events = []
    doubles = []
    owner = _vertex_to_ef(plan)
    for u, v in i.path.edges():
        if u not in d.pos or v not in d.pos:
            continue
        e = Segment(d.point(u), d.point(v))
        homes = []
        for ch in channels:
            su, sv = segment_of(ch, e.a), segment_of(ch, e.b)
            if su is not None and sv is not None and abs(su - sv) == 1:
                homes.append((ch, tuple(sorted((su, sv)))))
        for ch, span in homes:
            for other in channels:
                if other.joint == ch.joint:
                    continue
                pa = [d.point(w) for w in other.path_a]
                pb = [d.point(w) for w in other.path_b]
                rels = _relations(e, pa) + _relations(e, pb)
                if rels.count(Relation.ProperCrossing) >= 2:
                    events.append(CutEvent(CutKind.BlockingCut, (u, v),
                                           other.joint, span))
        for ch in channels:
            for h in range(1, len(ch.segments)):
                wa, wb = _wall(ch, d, h)
                crossed = any(
                    segment_relation(e, w) is Relation.ProperCrossing
                    for w in (wa, wb))
                if not crossed:
                    continue
                nxt = ch.segments[h]
                if not _line_hits_segment_region(e.a, e.b, nxt):
                    continue
                simple = not _segment_hits_region(ch, e, nxt)
                kind = CutKind.DoubleCutSimple if simple \
                    else CutKind.DoubleCutNonSimple
                gate = ch.gates[h - 1]
                mid = Point((gate[0].x + gate[1].x) / 2,
                            (gate[0].y + gate[1].y) / 2)
                near = _closest_point_on_segment(mid, e)
                dist = (near - mid).dot(near - mid)
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


def _elongations(ch: Channel, d: Drawing, a: int):
    """The two wall-extension rays of segment a beyond its outer gate."""
    pa = [d.point(v) for v in ch.path_a]
    pb = [d.point(v) for v in ch.path_b]
    ga, gb = pa[a], pb[a]
    return ((ga, ga - pa[a - 1]), (gb, gb - pb[a - 1]))


def classify_connections(channels: Sequence[Channel],
                         d: Drawing) -> list[ConnectionReport]:
    """For every non-consecutive ordered segment pair (a, b) of each
    channel with a bounded by an outer gate: 1-side when neither wall
    elongation of segment a reaches segment b, otherwise 2-side, low or
    high depending on whether a reaching elongation starts at the gate
    bendpoint closer to the root.  Consecutive pairs are omitted (they
    share a gate and never form a 2-side connection).
    """
    out = []
    for ch in channels:
        rep = ConnectionReport(ch.joint)
        n = len(ch.segments)
        for a in range(1, min(n, ch.x + 1)):  # segments with an outer gate
            ra, rb = _elongations(ch, d, a)
            da2 = (ra[0] - ch.root).dot(ra[0] - ch.root)
            db2 = (rb[0] - ch.root).dot(rb[0] - ch.root)
            for b in range(1, n + 1):
                if abs(a - b) < 2:
                    continue
                hits = []
                for origin_dir, dist2 in ((ra, da2), (rb, db2)):
                    if _ray_hits_region(ch, origin_dir[0], origin_dir[1],
                                        ch.segments[b - 1]):
                        hits.append(dist2)
                if not hits:
                    rep.entries[(a, b)] = ConnectionKind.OneSide
                elif min(hits) == min(da2, db2):
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
