from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simembed.geom import (
    DegenerateTriangle,
    GeometryError,
    Line,
    Point,
    Position,
    Relation,
    Segment,
    SharedPoint,
    convex_hull,
    linear_separator,
    int_coords,
    int_cross,
    int_point_in_convex_polygon,
    int_point_in_triangle,
    scalar,
    segment_relation,
)

P = Point

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=16)
points = st.builds(P, rationals, rationals)


class TestOrient:
    def test_unit_triangle_ccw(self):
        assert int_cross(*int_coords((P(0, 0), P(1, 0), P(0, 1)))) > 0

    def test_same_line_collinear(self):
        assert int_cross(*int_coords((P(0, 0), P(1, 1), P(2, 2)))) == 0

    def test_reflected_unit_triangle_cw(self):
        assert int_cross(*int_coords((P(0, 0), P(0, 1), P(1, 0)))) < 0

    @settings(max_examples=300)
    @given(points, points, points)
    def test_antisymmetry(self, p, q, r):
        a, b, c = int_coords((p, q, r))
        assert int_cross(a, b, c) == -int_cross(a, c, b)


class TestSegmentRelation:
    def test_x_configuration(self):
        s1 = Segment(P(0, 0), P(2, 2))
        s2 = Segment(P(0, 2), P(2, 0))
        assert segment_relation(s1, s2) is Relation.ProperCrossing

    def test_joint_endpoint(self):
        s1 = Segment(P(0, 0), P(1, 0))
        s2 = Segment(P(1, 0), P(2, 1))
        assert segment_relation(s1, s2) is Relation.SharedEndpointOnly

    def test_collinear_overlap(self):
        s1 = Segment(P(0, 0), P(2, 0))
        s2 = Segment(P(1, 0), P(3, 0))
        assert segment_relation(s1, s2) is Relation.Overlapping

    def test_endpoint_in_interior_is_touching(self):
        s1 = Segment(P(0, 0), P(2, 0))
        s2 = Segment(P(1, 0), P(1, 1))
        assert segment_relation(s1, s2) is Relation.Touching

    def test_collinear_single_contact_is_shared_endpoint(self):
        s1 = Segment(P(0, 0), P(1, 0))
        s2 = Segment(P(1, 0), P(2, 0))
        assert segment_relation(s1, s2) is Relation.SharedEndpointOnly

    def test_far_apart(self):
        s1 = Segment(P(0, 0), P(1, 0))
        s2 = Segment(P(0, 5), P(1, 5))
        assert segment_relation(s1, s2) is Relation.Disjoint

    def test_vertical_collinear_overlap(self):
        s1 = Segment(P(0, 0), P(0, 2))
        s2 = Segment(P(0, 1), P(0, 3))
        assert segment_relation(s1, s2) is Relation.Overlapping

    @settings(max_examples=300)
    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        s1, s2 = Segment(a, b), Segment(c, d)
        assert segment_relation(s1, s2) is segment_relation(s2, s1)


def in_triangle(p, tri):
    """int_point_in_triangle on the common integer scaling of p and tri."""
    ip, *it = int_coords((p, *tri))
    return int_point_in_triangle(ip, it)


class TestPointInTriangle:
    tri = (P(0, 0), P(3, 0), P(0, 3))

    def test_centroid_inside(self):
        assert in_triangle(P(1, 1), self.tri) is Position.Inside

    def test_vertex_on_boundary(self):
        assert in_triangle(P(0, 0), self.tri) is Position.Boundary

    def test_far_point_outside(self):
        assert in_triangle(P(5, 5), self.tri) is Position.Outside

    def test_edge_midpoint_boundary(self):
        assert in_triangle(P(Fraction(3, 2), 0), self.tri) is Position.Boundary

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            in_triangle(P(0, 0), (P(0, 0), P(1, 1), P(2, 2)))

    def test_orientation_independent(self):
        cw = (P(0, 0), P(0, 3), P(3, 0))
        assert in_triangle(P(1, 1), cw) is Position.Inside


class TestConvexHull:
    def test_square_plus_center(self):
        pts = [P(0, 0), P(2, 0), P(2, 2), P(0, 2), P(1, 1)]
        assert convex_hull(pts) == [P(0, 0), P(2, 0), P(2, 2), P(0, 2)]

    def test_singleton(self):
        assert convex_hull([P(0, 0)]) == [P(0, 0)]

    def test_collinear(self):
        assert convex_hull([P(0, 0), P(1, 0), P(2, 0)]) == [P(0, 0), P(2, 0)]

    @settings(max_examples=200)
    @given(st.lists(points, min_size=1, max_size=12))
    def test_idempotent_and_covering(self, pts):
        h = convex_hull(pts)
        assert convex_hull(h) == h
        for p in pts:
            ip, *ih = int_coords((p, *h))
            assert int_point_in_convex_polygon(ip, ih) is not Position.Outside


class TestLinearSeparator:
    def test_two_points(self):
        line = linear_separator([P(0, 0)], [P(2, 0)])
        assert line is not None
        assert line.side(P(0, 0)) != line.side(P(2, 0))
        assert 0 not in (line.side(P(0, 0)), line.side(P(2, 0)))

    def test_interleaved_diagonals(self):
        assert linear_separator([P(0, 0), P(2, 2)], [P(0, 2), P(2, 0)]) is None

    def test_nested_squares(self):
        inner = [P(1, 1), P(2, 1), P(2, 2), P(1, 2)]
        outer = [P(0, 0), P(3, 0), P(3, 3), P(0, 3)]
        assert linear_separator(inner, outer) is None

    def test_touching_hulls_not_separated(self):
        # squares sharing the edge x = 1: touching counts as NOT separated
        a = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
        b = [P(1, 0), P(2, 0), P(2, 1), P(1, 1)]
        with pytest.raises(SharedPoint):
            linear_separator(a, b)
        b2 = [P(1, 2), P(2, 2), P(2, 3), P(1, 3)]
        a2 = [P(0, 2), P(1, 2), P(1, 3), P(0, 3)]
        with pytest.raises(SharedPoint):
            linear_separator(a2, b2)

    def test_corner_touching_not_separated(self):
        a = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
        b = [P(1, 1), P(2, 1), P(2, 2)]
        with pytest.raises(SharedPoint):
            linear_separator(a, b)
        # contact in a hull edge interior, not a shared input point
        c = [P(2, Fraction(1, 2)), P(3, 0), P(3, 1)]
        d = [P(2, 0), P(2, 1), P(1, Fraction(1, 2))]
        assert linear_separator(c, d) is None

    def test_shared_point_raises(self):
        with pytest.raises(SharedPoint):
            linear_separator([P(0, 0)], [P(0, 0), P(1, 1)])

    @settings(max_examples=150)
    @given(st.lists(points, min_size=1, max_size=6),
           st.lists(points, min_size=1, max_size=6))
    def test_soundness(self, a, b):
        if set(a) & set(b):
            return
        line = linear_separator(a, b)
        if line is not None:
            sa = {line.side(p) for p in a}
            sb = {line.side(p) for p in b}
            assert len(sa) == 1 and len(sb) == 1
            assert sa != sb and 0 not in sa | sb


class TestLine:
    def test_canonical_form(self):
        l1 = Line(Fraction(1, 2), Fraction(1, 3), 1)
        assert (l1.A, l1.B, l1.C) == (3, 2, 6)
        l2 = Line(-2, 0, -4)
        assert (l2.A, l2.B, l2.C) == (1, 0, 2)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError, match="degenerate line"):
            Line(0, 0, 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="floating point"):
            scalar(0.5)
        with pytest.raises(TypeError):
            Line(0, 1, 0.5)

    def test_through_points(self):
        l = Line(0, 1, 1)  # y = 1, through (0, 1) and (1, 1)
        assert l.side(P(0, 0)) == -l.side(P(0, 2))
        assert l.side(P(5, 1)) == 0
