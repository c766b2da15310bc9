"""The passage stage against its reference on drawings that have passages.

The drawings of `test_analyzer_reference.py` are random, and none of
them has a passage.  Here the hand-built passage witness of
`test_analyzer.py` is moved by seeded small rational offsets, snapped to
a coarse grid (so that polyline vertices land on c1-c2 segments and on
vertical rays, where only the exact test decides), or padded with far
leaves.  detect_passages must agree with `reference_passages`, which
shares no predicate code with it, and the doors of every passage must
not change under a similarity of the drawing or under far leaves.
"""

import random
from fractions import Fraction

import pytest

import simembed.analyzer as analyzer
from simembed.analyzer import _Rays, detect_passages, enumerate_doors
from simembed.geom import Point, int_relation
from simembed.model import Drawing, FormatError
from test_analyzer import padded, passage_witness
from test_analyzer_reference import _relations, reference_passages

F = Fraction
SEEDS = range(40)
KINDS = ("offset", "snapped", "padded")


def moved(seed: int):
    """The witness with each vertex moved by up to 5/8 on each axis."""
    rng = random.Random(seed)
    inst, d, plan = passage_witness()
    return inst, Drawing({v: Point(p.x + F(rng.randint(-5, 5), 8),
                                   p.y + F(rng.randint(-5, 5), 8))
                          for v, p in d.pos.items()}), plan


def snapped(seed: int):
    """The witness moved by up to 2/5, rounded to a grid of step 1/2, 1
    or 3/2; None when two vertices land on one point."""
    rng = random.Random(seed)
    inst, d, plan = passage_witness()
    g = rng.choice((F(1, 2), F(1), F(3, 2)))

    def snap(c):
        return round((c + F(rng.randint(-2, 2), 5)) / g) * g
    try:
        return inst, Drawing({v: Point(snap(p.x), snap(p.y))
                              for v, p in d.pos.items()}), plan
    except FormatError:
        return None


def perturbed(kind: str, seed: int):
    if kind == "offset":
        return moved(seed)
    if kind == "snapped":
        return snapped(seed)
    return padded(moved(seed), 30)


def similar(d: Drawing) -> Drawing:
    """d under q -> q/7 + (1/3, -2/5), which keeps every sign test."""
    return Drawing({v: Point(p.x / 7 + F(1, 3), p.y / 7 - F(2, 5))
                    for v, p in d.pos.items()})


def test_passages_and_doors_match_on_perturbed_witnesses(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return int_relation(*args)
    monkeypatch.setattr(analyzer, "int_relation", counted)
    drawn = with_passage = with_door = 0
    fallback = {kind: 0 for kind in KINDS}
    for kind in KINDS:
        for seed in SEEDS:
            w = perturbed(kind, seed)
            if w is None:
                continue
            inst, d, plan = w
            calls.clear()
            ps = detect_passages(inst, d, plan)
            fallback[kind] += bool(calls)
            assert ps == reference_passages(inst, d, plan), (kind, seed)
            doors = [enumerate_doors(p, inst, d) for p in ps]
            image = similar(d)
            assert detect_passages(inst, image, plan) == ps, (kind, seed)
            assert [enumerate_doors(p, inst, image) for p in ps] == doors, (kind, seed)
            if kind == "padded":  # far leaves change no passage and no door
                inst0, d0, _ = moved(seed)
                assert detect_passages(inst0, d0, plan) == ps, seed
                assert [enumerate_doors(p, inst0, d0) for p in ps] == doors, seed
            drawn += 1
            with_passage += bool(ps)
            with_door += any(doors)
    # the differential compares passages and doors that are found, and
    # the zero-orientation fallback runs on snapped drawings, but not on
    # every moved one
    assert with_passage * 4 >= drawn and with_door > 0
    assert fallback["snapped"] > 0 and fallback["offset"] < len(SEEDS)


def _exact_parity(p, q, poly):
    rels = _relations(p, q, poly)
    if analyzer.Relation.Touching in rels or analyzer.Relation.Overlapping in rels:
        return None
    return rels.count(analyzer.Relation.ProperCrossing) % 2


@pytest.mark.parametrize("seed", range(4))
def test_ray_parity_is_the_crossing_parity(seed):
    """On a 7 x 7 grid, where points often share a vertical or lie on an
    edge, and on a 40 x 40 grid: a pair that the ray identity can judge
    is rejected exactly when the segment crosses the polyline evenly, and
    a rejected pair never crosses it oddly."""
    rng = random.Random(seed)
    judged = 0
    for w in (7, 40) * 200:
        pts = [divmod(c, w) for c in rng.sample(range(w * w), 8)]
        poly, (p, q) = pts[:6], pts[6:]
        rays = _Rays(poly)
        rejected = rays.rejects([0], [p], [1], [q])
        exact = _exact_parity(p, q, poly)
        assert not (rejected and exact == 1)
        if None not in (rays.at(0, p), rays.at(1, q), exact) and p[0] != q[0]:
            judged += 1
            assert rejected == (exact == 0)
    assert judged > 100
