"""The analyzer against its pair-by-pair predecessor, on real drawings of
the desk instances.

`reference_channels` is compute_channels as it was before the prefix
walk: every pair of root-leaf paths through the two neighbouring joints
is scored by its run of mutually enclosing bends, and the least
(-x, pa, pb) wins.  `reference_cuts` is detect_cuts as it was before
each vertex was located once per channel: it locates both ends of every
path edge, with polygon edges rebuilt per test and no bounding-box test.
`reference_passages` rebuilds each cell's points per cell pair.  The
analyzer must give equal channels, cut events and passages on every
drawing, and `simembed analyze --format records` and render_svg must
give the bytes pinned below.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import isqrt

import pytest

import simembed.analyzer as analyzer
from simembed.analyzer import (
    Channel,
    ChannelSegment,
    CutEvent,
    CutKind,
    Passage,
    _build_segments,
    compute_channels,
    detect_cuts,
    detect_passages,
)
from simembed.cli import _DESK_REPS, main, render_svg
from simembed.counterexample import CounterexampleParams, build_instance
from simembed.geom import (
    Point,
    Position,
    Relation,
    _features,
    _sign,
    int_coords,
    int_cross,
    int_on_segment,
    int_point_in_triangle,
    int_relation,
    int_separable,
)
from simembed.model import Drawing, FormatError, Role, dump_drawing, dump_instance

# the desk instance of the benchmark's analyze operation: 465 vertices
DESK_465 = dict(s=2, x=1, y=2, formation_reps=1, formation_outer=1,
                sef_tuple=2, sef_efs=1, sef_reps=2)
KINDS = ("box", "grid", "rational")
SEEDS_PER_KIND = 68  # 204 drawings


@cache
def desk(**kw):
    inst, plan = build_instance(CounterexampleParams(**kw))
    joints = sorted(v for v in range(inst.tree.n)
                    if inst.tree.role(v) is Role.Joint)
    return inst, plan, joints


def drawing(n: int, kind: str, seed: int) -> Drawing:
    """A seeded injective drawing of vertices 0..n-1: distinct integer
    points in a 4n x 4n box ("box"), or in the least square grid that
    holds n points, where many triples are collinear ("grid"), or points
    with denominators 2, 3 and 7 in a grid twice that wide, one per unit
    cell ("rational")."""
    rng = random.Random(seed)
    if kind == "box":
        w = 4 * n
        cells = rng.sample(range(w * w), n)
        return Drawing({v: Point(c // w, c % w) for v, c in enumerate(cells)})
    if kind == "grid":
        w = isqrt(n - 1) + 1
        cells = rng.sample(range(w * w), n)
        return Drawing({v: Point(c // w, c % w) for v, c in enumerate(cells)})
    w = 2 * (isqrt(n - 1) + 1)

    def coordinate(k):
        q = rng.choice((2, 3, 7))
        return Fraction(k * q + rng.randrange(q), q)
    cells = rng.sample(range(w * w), n)
    return Drawing({v: Point(coordinate(c // w), coordinate(c % w))
                    for v, c in enumerate(cells)})


# --- the references -------------------------------------------------------
#
# The references share no predicate code with the analyzer they judge:
# the helpers below are the analyzer's own as they were before each
# point's side of a line was read once, built only on geom's integer
# kernel, so that a change to the analyzer's helpers cannot carry the
# references along with it.

def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _side(anchor, direction, q) -> int:
    return _cross(direction, _sub(q, anchor))


def _relations(a, b, polyline) -> list[Relation]:
    """The relation of segment ab with each edge of the polyline."""
    return [int_relation(a, b, p, q) for p, q in zip(polyline, polyline[1:])]


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


def _crossed_polyline_edges(edges, set1, set2, ic, poly) -> tuple:
    """Indices of polyline edges properly crossed by those of the given
    tree edges that join the two cell vertex sets."""
    hit = set()
    for u, v in edges:
        if not ((u in set1 and v in set2) or (u in set2 and v in set1)):
            continue
        rels = _relations(ic[u], ic[v], poly)
        hit.update(e for e, rel in enumerate(rels)
                   if rel is Relation.ProperCrossing)
    return tuple(sorted(hit))


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


class _Ints(dict):
    """Vertex -> integer point for all of d, and Point -> integer point
    (`of`) for the `extra` points, from one int_coords call: the table
    each analyzer entry point built before a Drawing carried `ints`."""

    def __init__(self, d: Drawing, extra=()):
        pts = [*d.pos.values(), *extra]
        ints = int_coords(pts)
        super().__init__(zip(d.pos, ints))
        self.of = dict(zip(pts[len(d.pos):], ints[len(d.pos):]))

    def __missing__(self, v):
        raise FormatError(f"vertex {v} is not drawn")


def _channel_points(ch: Channel) -> list:
    """ch's root and every point of its segments, ray directions included."""
    return [ch.root] + [p for s in ch.segments
                        for p in s.vertices + sum(s.rays or (), ())]


def _root_leaf_paths(i, joint: int) -> list[tuple]:
    """The paths from the root through joint to each leaf below it."""
    paths, stack = [], [(i.tree.root, joint)]
    while stack:
        path = stack.pop()
        kids = i.tree.children(path[-1])
        if kids:
            stack.extend(path + (c,) for c in kids)
        else:
            paths.append(path)
    return sorted(paths)


def _encloses(ic, path: tuple, k: int, q) -> bool:
    tri = (ic[path[k - 1]], ic[path[k]], ic[path[k + 1]])
    if int_cross(*tri) == 0:
        return False
    return int_point_in_triangle(q, tri) is Position.Inside


def _mutual_prefix(ic, pa: tuple, pb: tuple) -> int:
    """Length of the initial run of bend indices at which one path's bend
    strictly encloses the other's."""
    x = 0
    for k in range(1, min(len(pa), len(pb)) - 1):
        if _encloses(ic, pa, k, ic[pb[k]]) or _encloses(ic, pb, k, ic[pa[k]]):
            x += 1
        else:
            break
    return x


def reference_channels(i, d, joints) -> list[Channel]:
    ic = _Ints(d)
    out = []
    for idx in range(1, len(joints) - 1):
        right = _root_leaf_paths(i, joints[idx + 1])
        negx, pa, pb = min((-_mutual_prefix(ic, pa, pb), pa, pb)
                           for pa in _root_leaf_paths(i, joints[idx - 1])
                           for pb in right)
        x = -negx
        gates, segs = _build_segments(d.point, Point.__sub__, pa, pb, x)
        out.append(Channel(joints[idx], pa, pb, x, gates, segs,
                           d.point(i.tree.root)))
    return out


def _on_ints(ch: Channel, of: dict):
    return of[ch.root], [
        ChannelSegment(s.index, tuple(of[p] for p in s.vertices),
                       s.rays and tuple((of[o], of[v]) for o, v in s.rays))
        for s in ch.segments]


def _in_polygon(q, poly: tuple) -> bool:
    edges = _features(poly)
    if any(int_on_segment(q, p, r) for p, r in edges):
        return False
    inside = False
    for p, r in edges:
        if (p[1] > q[1]) != (r[1] > q[1]):
            c = int_cross(p, r, q)
            inside ^= c != 0 and (c > 0) == (r[1] > p[1])
    return inside


def _contains(root, seg: ChannelSegment, q) -> bool:
    if seg.rays is None:
        return _in_polygon(q, seg.vertices)
    (oa, da), (ob, db) = seg.rays
    if len(seg.vertices) == 1:
        sa = _side(oa, da, (ob[0] + db[0], ob[1] + db[1]))
        sb = _side(ob, db, (oa[0] + da[0], oa[1] + da[1]))
        return (_side(oa, da, q) * sa > 0) and (_side(ob, db, q) * sb > 0)
    ga, gb = seg.vertices
    if int_cross(ga, gb, q) * int_cross(ga, gb, root) >= 0:
        return False
    return (_side(oa, da, q) * _side(oa, da, ob) > 0
            and _side(ob, db, q) * _side(ob, db, oa) > 0)


def _segment_of(root, segs, q):
    return next((s.index for s in segs if _contains(root, s, q)), None)


def _line_hits_segment_region(a, b, seg: ChannelSegment) -> bool:
    signs = {_sign(int_cross(a, b, q)) for q in seg.vertices}
    for origin, direction in (seg.rays or ()):
        signs.add(_sign(int_cross(a, b, origin)))
        cd = _cross(_sub(b, a), direction)
        if cd != 0:
            signs.add(_sign(cd))
    return 0 in signs or (1 in signs and -1 in signs)


def _segment_hits_region(root, a, b, seg: ChannelSegment) -> bool:
    return (_contains(root, seg, a) or _contains(root, seg, b)
            or any(int_relation(a, b, *s) is Relation.ProperCrossing
                   for s in _features(seg.vertices))
            or any(_ray_segment_hit(o, v, a, b) for o, v in seg.rays or ()))


def reference_cuts(i, d, channels, plan=None) -> list[CutEvent]:
    ic = _Ints(d, [p for ch in channels for p in _channel_points(ch)])
    regions = [_on_ints(ch, ic.of) for ch in channels]
    events = []
    doubles = []
    owner = _vertex_to_ef(plan)
    for u, v in i.path.edges():
        if u not in d.pos or v not in d.pos:
            continue
        a, b = ic[u], ic[v]
        homes = []
        for ch, (root, segs) in zip(channels, regions):
            su, sv = _segment_of(root, segs, a), _segment_of(root, segs, b)
            if su is not None and sv is not None and abs(su - sv) == 1:
                homes.append((ch, tuple(sorted((su, sv)))))
        for ch, span in homes:
            for other in channels:
                if other.joint == ch.joint:
                    continue
                rels = [rel for path in (other.path_a, other.path_b)
                        for rel in _relations(a, b, [ic[w] for w in path])]
                if rels.count(Relation.ProperCrossing) >= 2:
                    events.append(CutEvent(CutKind.BlockingCut, (u, v),
                                           other.joint, span))
        for ch, (root, segs) in zip(channels, regions):
            for h in range(1, len(segs)):
                if all(int_relation(a, b, ic[p[h - 1]], ic[p[h]])
                       is not Relation.ProperCrossing
                       for p in (ch.path_a, ch.path_b)):
                    continue
                nxt = segs[h]
                if not _line_hits_segment_region(a, b, nxt):
                    continue
                simple = not _segment_hits_region(root, a, b, nxt)
                kind = CutKind.DoubleCutSimple if simple \
                    else CutKind.DoubleCutNonSimple
                dist = _gap([ic.of[g] for g in ch.gates[h - 1]], a, b)
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


def reference_passages(i, d, plan) -> list[Passage]:
    ic = _Ints(d)
    tree_edges = i.tree.edges()
    out = []
    for a in range(len(plan.cells)):
        for b in range(a + 1, len(plan.cells)):
            ca, cb = plan.cells[a], plan.cells[b]
            if ca.joint != cb.joint:
                continue
            va, vb = ca.path_order(), cb.path_order()
            pa = [ic[v] for v in va]
            pb = [ic[v] for v in vb]
            if int_separable(pa, pb):
                continue
            for s, cs in enumerate(plan.cells):
                if cs.joint == ca.joint:
                    continue
                vs = cs.path_order()
                poly = [ic[v] for v in vs]
                if len(poly) < 3 or not _separates(pa, pb, poly):
                    continue
                crossed = _crossed_polyline_edges(
                    tree_edges, set(va), set(vb), ic, poly)
                out.append(Passage(
                    c1=a, c2=b, c_sep=s, joint=ca.joint, sep_joint=cs.joint,
                    c1_vertices=tuple(va), c2_vertices=tuple(vb),
                    sep_vertices=tuple(vs),
                    crossed_sep_edges=crossed))
    return out


# --- the differential -----------------------------------------------------

class TestAgainstReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_joint(self, kind):
        inst, plan, joints = desk(**DESK_465)
        seen = {"bends": set(), "cuts": 0, "passages": 0}
        for seed in range(SEEDS_PER_KIND):
            d = drawing(inst.tree.n, kind, seed)
            channels = compute_channels(inst, d, joints)
            assert channels == reference_channels(inst, d, joints), seed
            cuts = detect_cuts(inst, d, channels, plan)
            assert cuts == reference_cuts(inst, d, channels, plan), seed
            passages = detect_passages(inst, d, plan)
            assert passages == reference_passages(inst, d, plan), seed
            seen["bends"] |= {ch.x for ch in channels}
            seen["cuts"] += len(cuts)
            seen["passages"] += len(passages)
        # the drawings reach every bend count up to 2 and find cuts
        assert seen["bends"] >= {0, 1, 2} and seen["cuts"] > 0

    def test_three_joint_windows_on_1665_vertices(self):
        inst, plan, joints = desk(s=2, x=1, y=2, **_DESK_REPS)
        for seed in range(4):
            d = drawing(inst.tree.n, KINDS[seed % 3], seed)
            window = joints[seed:seed + 3]
            channels = compute_channels(inst, d, window)
            assert channels == reference_channels(inst, d, window)
            assert detect_cuts(inst, d, channels, plan) \
                == reference_cuts(inst, d, channels, plan)


# --- the bytes ------------------------------------------------------------
#
# sha256 of the output of `simembed analyze --format records` with every
# joint, and of render_svg, on the seed-0 drawing of each kind, taken
# from the pair-by-pair analyzer before the prefix walk.

PINNED = {
    "box": ("5f6ca2b016082b66544ee56046e6db53fa297214e1761d2e407aae04d19524a5",
            "a84c536f5ce5f5a128f157a7f4cbbbd77894ee0d870b7a80ea30e9519d3048bc"),
    "grid": ("fa11c922797071cbf97f73f955506c5d594d83e99dc865d12b381237fada2010",
             "3da8881dbe33028fcbbdc07fba085dcfc4323bff623279bb72f210e1ac0b86c8"),
    "rational": ("6ce6f2d7170afe851e6bc5977c517c4f2f903de6b89c876960e3addb374b3989",
                 "52ad6b29b711a46e5cc6c33565c0c487e6e344f735eb57b3344f20f0e734ae6c"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind", KINDS)
def test_pinned_bytes(kind, tmp_path):
    inst, plan, _ = desk(**DESK_465)
    d = drawing(inst.tree.n, kind, 0)
    files = {"sge": dump_instance(inst), "plan": plan.to_json() + "\n",
             "sgd": dump_drawing(d)}
    for ext, text in files.items():
        (tmp_path / f"a.{ext}").write_text(text, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", *(str(tmp_path / f"a.{ext}") for ext in files),
                     "--format", "records"]) == 0
    assert (sha256(out.getvalue()), sha256(render_svg(inst, d))) == PINNED[kind]


# --- the scaling guard ----------------------------------------------------

def test_channel_triangle_tests_scale_with_children(monkeypatch):
    """One 3-joint channel on the 1,665-vertex instance, on the drawing the
    benchmark would draw with seed 1: scoring every pair of root-leaf
    paths takes 59,328 triangle tests; the prefix walk, which tests each
    child of a joint once, takes a few hundred."""
    inst, _, joints = desk(s=2, x=1, y=2, **_DESK_REPS)
    n = inst.tree.n
    rng = random.Random(1)
    cells = rng.sample(range((4 * n) ** 2), n)
    d = Drawing({v: Point(c // (4 * n), c % (4 * n)) for v, c in enumerate(cells)})
    calls = []

    def counted(q, tri):
        calls.append(q)
        return int_point_in_triangle(q, tri)
    monkeypatch.setattr(analyzer, "int_point_in_triangle", counted)
    (ch,) = compute_channels(inst, d, joints[:3])
    assert n == 1665 and ch.x == 2
    assert len(calls) <= 2000
