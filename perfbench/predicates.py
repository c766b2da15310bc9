"""Replay of public geometric predicates on coordinates the workloads make.

Three populations, each from the seed: integer points of the search
workload's 4x4 grid; the rational points of a depth-2 drawing at the top
of the depth2 ladder; and the cells of a desk drawing, as point sets.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from workloads import ANALYZE_PARAMS, D2_MAX, _depth2_tree

REPEATS = 5


def _us_per_call(fn, args: list) -> float:
    """Median over REPEATS batches of the mean time of one call, in us."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for a in args:
            fn(*a)
        times.append((perf_counter() - t0) / len(args))
    return statistics.median(times) * 1e6


def _segment_pairs(sm, rng: random.Random, pts: list, count: int) -> list:
    seg = sm.geom.Segment
    return [(seg(*rng.sample(pts, 2)), seg(*rng.sample(pts, 2))) for _ in range(count)]


def replay(sm, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    geom, m = sm.geom, sm.model

    grid = [geom.Point(x, y) for x in range(4) for y in range(4)]
    small = _segment_pairs(sm, rng, grid, 2000)

    order = list(range(D2_MAX))
    rng.shuffle(order)
    inst = m.Instance(m.RootedTree.from_parent(_depth2_tree(rng, D2_MAX)),
                      m.PathGraph.of(order))
    rational = _segment_pairs(sm, rng, list(sm.depth2.embed_depth2(inst).pos.values()), 300)

    inst, plan = sm.counterexample.build_instance(
        sm.counterexample.CounterexampleParams(**ANALYZE_PARAMS))
    n = inst.tree.n
    cells = rng.sample(range((4 * n) ** 2), n)
    pos = [geom.Point(c // (4 * n), c % (4 * n)) for c in cells]
    sets = [(c.joint, [pos[v] for v in c.path_order()]) for c in plan.cells]
    same_joint = [(a, b) for i, (ja, a) in enumerate(sets)
                  for jb, b in sets[i + 1:] if ja == jb]

    return {
        "geom.segment_relation.small.us_per_call":
            _us_per_call(geom.segment_relation, small),
        "geom.segment_relation.depth2.us_per_call":
            _us_per_call(geom.segment_relation, rational),
        "geom.linear_separator.us_per_call":
            _us_per_call(geom.linear_separator, same_joint),
    }
