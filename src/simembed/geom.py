"""Exact rational 2D geometry kernel.

Every predicate has one implementation, on integer points: a caller with
exact rationals (``fractions.Fraction``) clears the denominators of all
its points at once (``int_coords``), and the public ``Point`` predicates
below do exactly that for their own arguments.  No floating point ever
enters a sign computation.  All values are immutable and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

ScalarLike = Union[Fraction, int, str]


def scalar(value: ScalarLike) -> Fraction:
    """Coerce to an exact rational. Floats are rejected on purpose."""
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact geometry")
    return Fraction(value)


class GeometryError(ValueError):
    pass


class DegenerateSegment(GeometryError):
    pass


class DegenerateTriangle(GeometryError):
    pass


class SharedPoint(GeometryError):
    pass


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __init__(self, x: ScalarLike, y: ScalarLike):
        object.__setattr__(self, "x", scalar(x))
        object.__setattr__(self, "y", scalar(y))

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def dot(self, other: "Point") -> Fraction:
        return self.x * other.x + self.y * other.y

    def __repr__(self):
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise DegenerateSegment(f"zero-length segment at {self.a}")


@dataclass(frozen=True)
class Line:
    """A*x + B*y = C with integer coefficients, gcd 1, leading (A,B) positive."""

    A: Fraction
    B: Fraction
    C: Fraction

    def __init__(self, A: ScalarLike, B: ScalarLike, C: ScalarLike):
        a, b, c = scalar(A), scalar(B), scalar(C)
        if a == 0 and b == 0:
            raise GeometryError("degenerate line: A = B = 0")
        # clear denominators, reduce, fix sign
        m = a.denominator * b.denominator * c.denominator
        ia, ib, ic = int(a * m), int(b * m), int(c * m)
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic)) or 1
        ia, ib, ic = ia // g, ib // g, ic // g
        lead = ia if ia != 0 else ib
        if lead < 0:
            ia, ib, ic = -ia, -ib, -ic
        object.__setattr__(self, "A", Fraction(ia))
        object.__setattr__(self, "B", Fraction(ib))
        object.__setattr__(self, "C", Fraction(ic))

    def side(self, p: Point) -> int:
        """Sign of A*x + B*y - C: +1 / -1 strictly off the line, 0 on it."""
        v = self.A * p.x + self.B * p.y - self.C
        return (v > 0) - (v < 0)


class Relation(Enum):
    Disjoint = "disjoint"
    SharedEndpointOnly = "shared-endpoint"
    ProperCrossing = "proper-crossing"
    Touching = "touching"
    Overlapping = "overlapping"


class Position(Enum):
    Inside = "inside"
    Boundary = "boundary"
    Outside = "outside"


# --- the integer kernel -----------------------------------------------------
#
# Every predicate works on (int, int) points; the Point API below clears
# the denominators of its own points and calls these.  Scaling all points
# of one test by the same positive integer keeps every sign and every
# comparison, so the answers are exact.

IntPoint = tuple[int, int]

# the relations under which two edges of one straight-line drawing conflict
_BAD = (Relation.ProperCrossing, Relation.Touching, Relation.Overlapping)


def int_coords(points: Iterable[Point]) -> list[IntPoint]:
    """The points scaled by the lcm of all their denominators."""
    points = list(points)
    scale = lcm(*(q.denominator for p in points for q in (p.x, p.y)))
    return [(p.x.numerator * (scale // p.x.denominator),
             p.y.numerator * (scale // p.y.denominator)) for p in points]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def int_cross(p: IntPoint, q: IntPoint, r: IntPoint) -> int:
    """Twice the signed area of pqr: positive when r lies left of pq."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _in_box(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def int_on_segment(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    """p lies on the closed segment ab (collinear and between, inclusive)."""
    return ((b[0] - a[0]) * (p[1] - a[1]) == (b[1] - a[1]) * (p[0] - a[0])
            and _in_box(p, a, b))


def int_relation(a: IntPoint, b: IntPoint, c: IntPoint, d: IntPoint) -> Relation:
    """segment_relation of the segments ab and cd (a != b, c != d)."""
    ux, uy = b[0] - a[0], b[1] - a[1]
    o1 = ux * (c[1] - a[1]) - uy * (c[0] - a[0])
    o2 = ux * (d[1] - a[1]) - uy * (d[0] - a[0])
    if o1 > 0 and o2 > 0 or o1 < 0 and o2 < 0:
        return Relation.Disjoint
    if o1 == 0 and o2 == 0:
        # collinear: compare 1D intervals along the dominant axis
        k = 0 if ux else 1
        lo = max(min(a[k], b[k]), min(c[k], d[k]))
        hi = min(max(a[k], b[k]), max(c[k], d[k]))
        if lo > hi:
            return Relation.Disjoint
        if lo < hi:
            return Relation.Overlapping
        # single contact point; it is an endpoint of both segments
        return Relation.SharedEndpointOnly
    vx, vy = d[0] - c[0], d[1] - c[1]
    o3 = vx * (a[1] - c[1]) - vy * (a[0] - c[0])
    o4 = vx * (b[1] - c[1]) - vy * (b[0] - c[0])
    if o3 > 0 and o4 > 0 or o3 < 0 and o4 < 0:
        return Relation.Disjoint
    if o1 and o2 and o3 and o4:
        return Relation.ProperCrossing
    # the lines differ, so the segments share at most one point: an
    # endpoint of one lying on the other closed segment
    if o1 == 0 and _in_box(c, a, b):
        p = c
    elif o2 == 0 and _in_box(d, a, b):
        p = d
    elif o3 == 0 and _in_box(a, c, d):
        p = a
    elif o4 == 0 and _in_box(b, c, d):
        p = b
    else:
        return Relation.Disjoint
    if (p == a or p == b) and (p == c or p == d):
        return Relation.SharedEndpointOnly
    return Relation.Touching


def int_point_in_triangle(p: IntPoint, t: Sequence[IntPoint]) -> Position:
    u, v, w = t
    area = int_cross(u, v, w)
    if area == 0:
        raise DegenerateTriangle("collinear triangle vertices")
    if area < 0:
        v, w = w, v
    s = (int_cross(u, v, p), int_cross(v, w, p), int_cross(w, u, p))
    if min(s) > 0:
        return Position.Inside
    return Position.Outside if min(s) < 0 else Position.Boundary


def int_convex_hull(points: Iterable[IntPoint]) -> list[IntPoint]:
    """Extreme points in CCW order, starting at the lexicographic minimum.

    Collinear boundary points are excluded; duplicates tolerated.
    """
    pts = sorted(set(points))
    if not pts:
        raise GeometryError("convex_hull of empty set")
    if len(pts) == 1:
        return pts

    def half(seq):
        out: list[IntPoint] = []
        for p in seq:
            while len(out) >= 2 and int_cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(reversed(pts))[:-1]
    # all collinear: keep only the two extremes
    return hull if len(hull) >= 2 else [pts[0], pts[-1]]


def int_point_in_convex_polygon(p: IntPoint, hull: Sequence[IntPoint]) -> Position:
    """Position of p relative to a CCW hull (also handles point/segment hulls)."""
    if len(hull) == 1:
        return Position.Boundary if p == hull[0] else Position.Outside
    if len(hull) == 2:
        return Position.Boundary if int_on_segment(p, *hull) else Position.Outside
    s = [int_cross(a, b, p) for a, b in _features(hull)]
    if min(s) < 0:
        return Position.Outside
    return Position.Boundary if 0 in s else Position.Inside


def _features(hull: Sequence) -> list[tuple]:
    """The edges of a hull as point pairs: none, one, or the closed cycle."""
    if len(hull) == 1:
        return []
    if len(hull) == 2:
        return [tuple(hull)]
    return list(zip(hull, [*hull[1:], hull[0]]))


def int_separable(set_a: Sequence[IntPoint], set_b: Sequence[IntPoint]) -> bool:
    """Whether a line has set_a strictly on one side and set_b strictly on
    the other: whether the closed convex hulls are disjoint."""
    if not set_a or not set_b:
        raise GeometryError("both sets must be nonempty")
    if set(set_a) & set(set_b):
        raise SharedPoint("point sets intersect")
    h1, h2 = int_convex_hull(set_a), int_convex_hull(set_b)
    return all(int_point_in_convex_polygon(p, h) is Position.Outside
               for g, h in ((h1, h2), (h2, h1)) for p in g) \
        and all(int_relation(*s, *t) is Relation.Disjoint
                for s in _features(h1) for t in _features(h2))


# --- the Point API: each clears its own denominators -------------------------

def segment_relation(s1: Segment, s2: Segment) -> Relation:
    """Classify how two segments meet, exactly.

    ProperCrossing: interiors meet in one point.  Touching: an endpoint of
    one lies on the closed other without being a shared endpoint.
    Overlapping: collinear with a common sub-segment of positive length.
    """
    return int_relation(*int_coords((s1.a, s1.b, s2.a, s2.b)))


def convex_hull(points: Iterable[Point]) -> list[Point]:
    pts = list(points)
    back = dict(zip(int_coords(pts), pts))
    return [back[q] for q in int_convex_hull(back)]


def _closest_point_on_segment(p: Point, a: Point, b: Point) -> Point:
    d = b - a
    t = (p - a).dot(d) / d.dot(d) if a != b else 0
    if t <= 0:
        return a
    if t >= 1:
        return b
    return Point(a.x + t * d.x, a.y + t * d.y)


def linear_separator(set_a: Sequence[Point], set_b: Sequence[Point]) -> Optional[Line]:
    """A line with set_a strictly on one side and set_b strictly on the other.

    Decided exactly by int_separable; a line touching either hull does
    not count as separating.  Returns None when no separator exists.
    """
    ints = int_coords([*set_a, *set_b])
    if not int_separable(ints[:len(set_a)], ints[len(set_a):]):
        return None
    ha, hb = convex_hull(set_a), convex_hull(set_b)

    # disjoint closed convex sets: take the closest pair of points between
    # the hulls (vertex-vertex or vertex-edge) and separate perpendicular
    # to it through the midpoint
    p, q = min(((p, _closest_point_on_segment(p, a, b))
                for h1, h2 in ((ha, hb), (hb, ha)) for p in h1
                for a, b in _features(h2) or [(h2[0], h2[0])]),
               key=lambda pq: (pq[1] - pq[0]).dot(pq[1] - pq[0]))
    mid = Point((p.x + q.x) / 2, (p.y + q.y) / 2)
    n = q - p  # normal direction
    line = Line(n.x, n.y, n.x * mid.x + n.y * mid.y)

    # soundness re-check: strict separation of every input point
    sa = {line.side(pt) for pt in set_a}
    sb = {line.side(pt) for pt in set_b}
    assert len(sa) == 1 and len(sb) == 1 and sa != sb and 0 not in sa | sb
    return line
