"""Witness-driven tests for the structural drawing analyzer.

Every configuration below is a small hand-built drawing whose expected
classification was derived on paper from the defining predicates (side
tests, crossing parities, triangle containment), independently of the
implementation.  Coordinates are exact rationals.
"""

import random
from fractions import Fraction

import pytest

from simembed.analyzer import (
    Channel,
    ChannelSegment,
    ConnectionKind,
    CutKind,
    DoorStatus,
    PlanMismatch,
    TooFewJoints,
    classify_connections,
    compute_channels,
    detect_cuts,
    detect_passages,
    enumerate_doors,
    segment_of,
)
from simembed.counterexample import CellLayout, SequencePlan
from simembed.geom import Point
from simembed.model import Drawing, FormatError, Instance, PathGraph, RootedTree

P = Point
F = Fraction


def make(parent, order, coords):
    inst = Instance(RootedTree.from_parent(parent), PathGraph.of(order))
    d = Drawing({v: P(F(x), F(y)) for v, (x, y) in coords.items()})
    return inst, d


# --- passage / door witness ------------------------------------------------
#
# Joint 1 owns two 3-vertex cells whose hulls interlock; joint 2 owns a
# U-shaped 5-vertex cell whose drawn path separates them.  Two tree edges
# joining the interlocked cells cross the two arms of the U.

def passage_witness(spread=False):
    parent = [None, 0, 0, 1, 1, 1, 4, 3, 1, 2, 9, 2, 11, 2]
    order = [3, 4, 5, 9, 10, 11, 12, 13, 8, 6, 7, 0, 1, 2]
    coords = {
        0: (3, -10), 1: (-2, -8), 2: (9, -8),
        # cell c1 of joint 1: path 3 -> 4 -> 5
        3: (0, 4), 4: (8, 4), 5: (4, -3),
        # cell c2 of joint 1: path 8 -> 6 -> 7
        8: (5, 4), 6: (4, 0), 7: (4, 8),
        # separating cell of joint 2: path 9 -> 10 -> 11 -> 12 -> 13
        9: (F(3, 2), 14), 10: (F(5, 2), 10),
        11: (F(5, 2), F(-1, 4)), 12: (F(11, 2), F(-1, 4)),
        13: (F(11, 2), 10),
    }
    if spread:  # pull c2 far right: the pair becomes line-separable
        coords[8], coords[6], coords[7] = (25, 4), (24, 0), (24, 8)
    inst, d = make(parent, order, coords)
    plan = SequencePlan(2, cells=[
        CellLayout(joint=1, index=0, head_1vertex=3,
                   head_2vertices=[4], tail_1vertices=[5]),
        CellLayout(joint=1, index=1, head_1vertex=8,
                   head_2vertices=[6], tail_1vertices=[7]),
        CellLayout(joint=2, index=0, head_1vertex=9,
                   head_2vertices=[10], tail_1vertices=[11],
                   tail_2vertices=[12], stabilizers=[13]),
    ])
    return inst, d, plan


class TestPassages:
    def test_exactly_one_passage(self):
        inst, d, plan = passage_witness()
        ps = detect_passages(inst, d, plan)
        assert len(ps) == 1
        p = ps[0]
        assert (p.c1, p.c2, p.c_sep) == (0, 1, 2)
        assert p.joint == 1 and p.sep_joint == 2
        assert p.c1_vertices == (3, 4, 5)
        assert p.c2_vertices == (8, 6, 7)

    def test_separable_cells_admit_no_passage(self):
        inst, d, plan = passage_witness(spread=True)
        assert detect_passages(inst, d, plan) == []

    def test_two_tree_edges_cross_the_separator(self):
        # the connecting edges 4-6 and 3-7 cross distinct arms of the U
        inst, d, plan = passage_witness()
        p = detect_passages(inst, d, plan)[0]
        assert len(p.crossed_sep_edges) >= 2
        assert p.crossed_sep_edges == (1, 3)

    def test_unknown_vertex_rejected(self):
        inst, d, plan = passage_witness()
        plan.cells[0].head_1vertex = 99
        with pytest.raises(PlanMismatch):
            detect_passages(inst, d, plan)

    def test_undrawn_vertex_rejected(self):
        inst, d, plan = passage_witness()
        d = Drawing({v: p for v, p in d.pos.items() if v != 13})
        with pytest.raises(PlanMismatch):
            detect_passages(inst, d, plan)


AFFINE_MAPS = (
    lambda p: P(p.x + 2 * p.y + 5, 3 * p.y - 1),
    lambda p: P(2 * p.x - p.y, p.x + p.y + 3),
    lambda p: P(F(1, 2) * p.x + 7, F(1, 3) * p.y - 2),
)


class TestDoors:
    def doors(self, inst, d, plan):
        p = detect_passages(inst, d, plan)[0]
        return enumerate_doors(p, inst, d)

    def test_known_closed_door(self):
        inst, d, plan = passage_witness()
        doors = self.doors(inst, d, plan)
        hits = [dr for dr in doors if dr.apex == 11 and dr.base == (5, 6)]
        assert hits and hits[0].status is DoorStatus.Closed

    def test_known_open_door(self):
        inst, d, plan = passage_witness()
        doors = self.doors(inst, d, plan)
        hits = [dr for dr in doors if dr.apex == 11 and dr.base == (3, 6)]
        assert hits and hits[0].status is DoorStatus.Open

    def test_apexes_are_the_interior_bendpoints(self):
        inst, d, plan = passage_witness()
        assert {dr.apex for dr in self.doors(inst, d, plan)} == {11, 12}

    def test_every_passage_has_a_closed_door(self):
        inst, d, plan = passage_witness()
        for p in detect_passages(inst, d, plan):
            doors = enumerate_doors(p, inst, d)
            assert any(dr.status is DoorStatus.Closed for dr in doors)

    def test_affine_invariance(self):
        inst, d, plan = passage_witness()
        ref = sorted((dr.apex, dr.base, dr.status.value)
                     for dr in self.doors(inst, d, plan))
        for m in AFFINE_MAPS:
            dm = Drawing({v: m(p) for v, p in d.pos.items()})
            got = sorted((dr.apex, dr.base, dr.status.value)
                         for dr in self.doors(inst, dm, plan))
            assert got == ref


def padded(witness, leaves):
    """The witness with `leaves` more vertices, each a leaf of a vertex
    outside the separating cell, drawn far from every cell."""
    inst, d, plan = witness
    n, hosts = inst.tree.n, [0, 1, 2, 3, 4, 5, 6, 7, 8]
    parent = list(inst.tree.parent) + [hosts[k % 9] for k in range(leaves)]
    order = list(inst.path.order) + list(range(n, n + leaves))
    pos = dict(d.pos) | {n + k: P(1000 + k, 1000 - 2 * k) for k in range(leaves)}
    return (Instance(RootedTree.from_parent(parent), PathGraph.of(order)),
            Drawing(pos), plan)


class TestFarLeaves:
    # the passage and its doors read only the cells, the edges at their
    # vertices and the tree path to the separating joint: 2,000 leaves
    # elsewhere in the tree change no record
    def test_same_passages_and_doors(self):
        inst, d, plan = passage_witness()
        pinst, pd, _ = padded((inst, d, plan), 2000)
        ps = detect_passages(inst, d, plan)
        assert ps and detect_passages(pinst, pd, plan) == ps
        doors = [enumerate_doors(p, inst, d) for p in ps]
        assert doors[0] and [enumerate_doors(p, pinst, pd) for p in ps] == doors


# --- channel witnesses -----------------------------------------------------
#
# Three joints; the interior joint's channel is bounded by the drawn
# root-leaf paths of its neighbours.  The zigzag interleaves three
# mutually-enclosing bend pairs (x = 3); the straight witness has
# collinear paths (x = 0).

CHAIN_PARENT = [None, 0, 0, 0, 1, 4, 5, 3, 7, 8, 2]
CHAIN_ORDER = [6, 5, 4, 1, 0, 2, 10, 3, 7, 8, 9]


def zigzag_witness():
    coords = {
        0: (0, 0),
        1: (10, 5), 4: (-10, 10), 5: (10, 15), 6: (-10, 20),
        3: (5, 4), 7: (-5, 10), 8: (5, 14), 9: (9, 14),
        2: (4, 3), 10: (3, 2),
    }
    return make(CHAIN_PARENT, CHAIN_ORDER, coords)


def straight_witness():
    parent = [None, 0, 0, 0, 1, 4, 2, 3, 7]
    order = [5, 4, 1, 0, 2, 6, 3, 7, 8]
    coords = {0: (0, 0), 1: (2, 2), 4: (4, 4), 5: (6, 6),
              3: (2, 0), 7: (4, 0), 8: (6, 0), 2: (4, 1), 6: (3, 1)}
    return make(parent, order, coords)


class TestChannels:
    def test_zigzag_has_three_bends(self):
        inst, d = zigzag_witness()
        chs = compute_channels(inst, d, [1, 2, 3])
        assert len(chs) == 1
        ch = chs[0]
        assert ch.joint == 2
        assert ch.x == 3
        assert len(ch.segments) == 4
        assert len(ch.gates) == 3
        assert ch.path_a == (0, 1, 4, 5, 6)
        assert ch.path_b == (0, 3, 7, 8, 9)

    def test_zigzag_segment_membership(self):
        inst, d = zigzag_witness()
        ch = compute_channels(inst, d, [1, 2, 3])[0]
        assert segment_of(ch, P(4, 3)) == 1
        assert segment_of(ch, P(0, F(29, 4))) == 2
        assert segment_of(ch, P(0, F(49, 4))) == 3
        assert segment_of(ch, P(40, 0)) is None

    def test_straight_paths_have_no_bend(self):
        inst, d = straight_witness()
        ch = compute_channels(inst, d, [1, 2, 3])[0]
        assert ch.x == 0
        assert len(ch.segments) == 1
        assert ch.gates == ()
        assert segment_of(ch, P(3, 1)) == 1
        assert segment_of(ch, P(-1, 0)) is None

    def test_too_few_joints(self):
        inst, d = straight_witness()
        with pytest.raises(TooFewJoints):
            compute_channels(inst, d, [1, 3])

    def test_bend_count_bounded_on_random_drawings(self):
        # depth-4 chains admit at most three bend pairs, whatever the
        # drawing does
        parent = [None, 0, 0, 0, 1, 4, 5, 3, 7, 8, 2]
        order = [6, 5, 4, 1, 0, 2, 10, 3, 7, 8, 9]
        rng = random.Random(23)
        for _ in range(25):
            pts = set()
            while len(pts) < 11:
                pts.add((F(rng.randrange(-30, 31), rng.randrange(1, 4)),
                         F(rng.randrange(-30, 31), rng.randrange(1, 4))))
            coords = dict(enumerate(sorted(pts)))
            inst, d = make(parent, order, coords)
            for ch in compute_channels(inst, d, [1, 2, 3]):
                assert 0 <= ch.x <= 3
                assert len(ch.segments) == ch.x + 1


# --- cut witnesses ---------------------------------------------------------
#
# Four joints.  The left channel (joint 2) swings its lower wall far
# right; the path edge 17-18 lives inside the right channel (joint 3),
# joining its two segments, and crosses the left channel's wall twice.

def blocking_witness():
    parent = [None, 0, 0, 0, 0, 1, 5, 6, 3, 8, 9, 2, 11, 12,
              4, 14, 15, 2, 2, 2, 2, 2]
    order = [7, 6, 5, 1, 0, 3, 8, 9, 10, 2, 19, 20, 21, 17, 18,
             11, 12, 13, 4, 14, 15, 16]
    coords = {
        0: (0, 0),
        # joint-1 path (left wall of channel 2)
        1: (-10, 5), 5: (-9, 10), 6: (-14, 13), 7: (-15, 18),
        # joint-3 path (right wall of channel 2, swinging right)
        3: (-6, 4), 8: (8, 9), 9: (-12, 15), 10: (-13, 17),
        # joint-2 path (left wall of channel 3)
        2: (6, 4), 11: (5, 11), 12: (6, 16), 13: (7, 21),
        # joint-4 path (right wall of channel 3)
        4: (10, 5), 14: (9, 10), 15: (8, 15), 16: (7, 20),
        # the cutting path edge
        17: (5, 3), 18: (7, 12),
        # joint-2 subtree vertices spread over channel-2 segments
        19: (0, 7), 20: (-2, 11), 21: (-4, F(5, 2)),
    }
    return make(parent, order, coords)


# One channel; the path wanders across its first wall.  Edge 10-11
# crosses the wall with its line reaching the second segment while the
# edge stays out of it (simple); edge 11-12 ends inside (non-simple).

def double_cut_witness():
    parent = [None, 0, 0, 0, 1, 4, 5, 3, 7, 8, 2, 2, 2]
    order = [6, 5, 4, 1, 0, 2, 10, 11, 12, 3, 7, 8, 9]
    coords = {
        0: (0, 0),
        1: (-10, 5), 4: (-9, 10), 5: (-8, 15), 6: (-7, 20),
        3: (-6, 4), 7: (-5, 11), 8: (-6, 18), 9: (-7, 25),
        2: (-3, F(5, 2)), 10: (-5, F(13, 5)), 11: (-4, 1), 12: (-9, 9),
    }
    return make(parent, order, coords)


class TestCuts:
    def test_blocking_cut_detected(self):
        inst, d = blocking_witness()
        chs = compute_channels(inst, d, [1, 2, 3, 4])
        events = detect_cuts(inst, d, chs)
        blocks = [e for e in events if e.kind is CutKind.BlockingCut]
        assert any(e.edge == (17, 18) and e.channel == 2
                   and e.segments == (1, 2) for e in blocks)

    def test_simple_and_nonsimple_double_cuts(self):
        inst, d = double_cut_witness()
        chs = compute_channels(inst, d, [1, 2, 3])
        events = detect_cuts(inst, d, chs)
        kinds = {e.edge: e.kind for e in events}
        assert kinds[(10, 11)] is CutKind.DoubleCutSimple
        assert kinds[(11, 12)] is CutKind.DoubleCutNonSimple
        assert len(events) == 2

    def test_extremal_is_the_cut_nearest_the_bending_area(self):
        inst, d = double_cut_witness()
        chs = compute_channels(inst, d, [1, 2, 3])
        flag = {e.edge: e.extremal for e in detect_cuts(inst, d, chs)}
        assert flag[(11, 12)] and not flag[(10, 11)]

    def test_cut_channel_occupies_a_third_segment(self):
        # the channel cut twice has subtree vertices in both segments the
        # cutting edge traverses -- and then also in a third one
        inst, d = blocking_witness()
        chs = compute_channels(inst, d, [1, 2, 3, 4])
        ch2 = next(c for c in chs if c.joint == 2)
        a, b = d.point(17), d.point(18)

        def on_edge(t):
            return P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

        cut = {segment_of(ch2, on_edge(F(13, 20))),
               segment_of(ch2, on_edge(F(7, 10)))}
        assert cut == {2, 3}
        subtree = [21, 19, 20]  # joint-2 subtree vertices
        seen = {segment_of(ch2, d.point(v)) for v in subtree}
        assert cut <= seen
        assert seen - cut  # a third segment is occupied


# --- connection witnesses --------------------------------------------------
#
# x = 2 channels whose first-segment wall elongations may or may not
# reach the third segment.  In the low witness both elongations reach
# it; in the high witness only the one rooted at the farther bendpoint
# does; in the zigzag neither does.

def connection_low_witness():
    coords = {
        0: (0, 0),
        1: (10, 0), 4: (5, 7), 5: (16, 4), 6: (20, 3),
        3: (12, -1), 7: (3, 8), 8: (17, 5), 9: (21, 4),
        2: (1, -5), 10: (2, -6),
    }
    return make(CHAIN_PARENT, CHAIN_ORDER, coords)


def connection_high_witness():
    coords = {
        0: (0, 0),
        1: (10, 0), 4: (16, -6), 5: (40, -8), 6: (60, -9),
        3: (11, -2), 7: (14, F(-7, 2)), 8: (38, -7), 9: (58, -8),
        2: (1, 5), 10: (2, 6),
    }
    return make(CHAIN_PARENT, CHAIN_ORDER, coords)


class TestConnections:
    def entry(self, witness, pair):
        inst, d = witness()
        chs = compute_channels(inst, d, [1, 2, 3])
        rep = classify_connections(chs, d)[0]
        return chs[0], rep.entries[pair]

    def test_two_side_low(self):
        ch, kind = self.entry(connection_low_witness, (1, 3))
        assert ch.x == 2
        assert kind is ConnectionKind.TwoSideLow

    def test_two_side_high(self):
        ch, kind = self.entry(connection_high_witness, (1, 3))
        assert ch.x == 2
        assert kind is ConnectionKind.TwoSideHigh

    def test_one_side(self):
        inst, d = zigzag_witness()
        chs = compute_channels(inst, d, [1, 2, 3])
        rep = classify_connections(chs, d)[0]
        assert rep.entries[(1, 3)] is ConnectionKind.OneSide

    def test_consecutive_pairs_omitted(self):
        inst, d = zigzag_witness()
        chs = compute_channels(inst, d, [1, 2, 3])
        rep = classify_connections(chs, d)[0]
        assert all(abs(a - b) >= 2 for a, b in rep.entries)


# --- denominators ----------------------------------------------------------
#
# Every witness again under q -> q/7 + (1/3, -2/5): the analyzer clears
# the denominators (lcm 105) of the whole drawing before any sign test,
# so every answer must be the same up to that map.

def shrink(p):
    return P(p.x / 7 + F(1, 3), p.y / 7 - F(2, 5))


def shrunk(d):
    return Drawing({v: shrink(p) for v, p in d.pos.items()})


def shrunk_channel(ch):
    # ray directions are differences of points: only the 1/7 applies
    segs = tuple(ChannelSegment(
        s.index, tuple(map(shrink, s.vertices)),
        s.rays and tuple((shrink(o), P(v.x / 7, v.y / 7)) for o, v in s.rays))
        for s in ch.segments)
    return Channel(ch.joint, ch.path_a, ch.path_b, ch.x,
                   tuple(tuple(map(shrink, g)) for g in ch.gates), segs,
                   shrink(ch.root))


CHANNEL_WITNESSES = ((zigzag_witness, [1, 2, 3]),
                     (blocking_witness, [1, 2, 3, 4]),
                     (double_cut_witness, [1, 2, 3]),
                     (connection_low_witness, [1, 2, 3]),
                     (connection_high_witness, [1, 2, 3]))


class TestDenominators:
    def test_passages_and_doors(self):
        inst, d, plan = passage_witness()
        ds = shrunk(d)
        ps, qs = detect_passages(inst, d, plan), detect_passages(inst, ds, plan)
        assert qs == ps
        doors = [enumerate_doors(p, inst, d) for p in ps]
        assert [enumerate_doors(q, inst, ds) for q in qs] == doors
        assert ps and doors[0]

    def test_channels_cuts_and_connections(self):
        for witness, joints in CHANNEL_WITNESSES:
            inst, d = witness()
            ds = shrunk(d)
            chs, chs2 = compute_channels(inst, d, joints), compute_channels(inst, ds, joints)
            assert chs2 == [shrunk_channel(ch) for ch in chs]
            for ch, ch2 in zip(chs, chs2):
                for p in d.pos.values():
                    assert segment_of(ch2, shrink(p)) == segment_of(ch, p)
            assert detect_cuts(inst, ds, chs2) == detect_cuts(inst, d, chs)
            assert classify_connections(chs2, ds) == classify_connections(chs, d)

    def test_extremal_flag_kept(self):
        inst, d = double_cut_witness()
        ds = shrunk(d)
        chs = compute_channels(inst, ds, [1, 2, 3])
        flag = {e.edge: e.extremal for e in detect_cuts(inst, ds, chs)}
        assert flag == {(11, 12): True, (10, 11): False}


# --- undrawn vertices --------------------------------------------------------
#
# Every entry point that reads a vertex the drawing leaves out raises
# FormatError: none skips it and reports the rest.  Channels and passages
# are taken on the whole drawing and handed on with the drawing less one
# vertex.

@pytest.mark.parametrize("entry, witness, joints, missing", [
    ("compute_channels", zigzag_witness, [1, 2, 3], 4),
    ("detect_cuts", zigzag_witness, [1, 2, 3], 4),
    ("classify_connections", zigzag_witness, [1, 2, 3], 4),
    ("enumerate_doors", passage_witness, None, 3),
    ("detect_cuts", double_cut_witness, [1, 2, 3], 11),
])
def test_undrawn_vertex_is_a_format_error(entry, witness, joints, missing):
    inst, d, *plan = witness()
    rest = Drawing({v: p for v, p in d.pos.items() if v != missing})
    calls = {
        "compute_channels": lambda: compute_channels(inst, rest, joints),
        "detect_cuts": lambda: detect_cuts(
            inst, rest, compute_channels(inst, d, joints)),
        "classify_connections": lambda: classify_connections(
            compute_channels(inst, d, joints), rest),
        "enumerate_doors": lambda: enumerate_doors(
            detect_passages(inst, d, *plan)[0], inst, rest),
    }
    with pytest.raises(FormatError, match=f"vertex {missing} is not drawn"):
        calls[entry]()
