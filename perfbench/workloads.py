"""The seeded workloads: `construct` (depth2 and desk parts) and `search`
(search and leveling parts).

Each workload turns a seed into passes: lists of operations built from
inputs made in set-up.  An operation's ``run`` makes the public calls
that are timed; its ``check`` verifies the answer outside the timed
region and returns the exact counts that form the workload's fingerprint.
Sizes and the reasons for them are in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial, lcm
from typing import Callable


class CheckFailed(Exception):
    """The program's answer did not pass the benchmark's output check."""


@dataclass
class Op:
    kind: str
    run: Callable      # run(tracer) -> result, timed
    check: Callable    # check(result) -> counts, untimed; raises CheckFailed


def _require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- depth2 ---------------------------------------------------------------

# one pass: small sizes, where the construction is a large share of an
# operation, up to sizes where the naive crossing check dominates
D2_LADDER = (8, 8, 9, 9, 10, 10, 11, 12, 13, 14, 16, 18, 20, 24, 28, 32,
             40, 48, 64, 80, 96, 128, 160, 224, 320)
D2_MAX = D2_LADDER[-1]


def _depth2_tree(rng: random.Random, n: int) -> list:
    """Parent array of a random depth-<=2 tree: a random composition of
    the n - 1 non-root vertices into star subtrees, randomly labelled."""
    t = rng.randint(1, n - 1)
    cuts = sorted(rng.sample(range(1, n - 1), t - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n - 1])]
    parent = [None]
    for size in sizes:
        c = len(parent)
        parent.append(0)
        parent.extend([c] * (size - 1))
    label = list(range(n))
    rng.shuffle(label)
    out = [None] * n
    for v, p in enumerate(parent):
        out[label[v]] = None if p is None else label[p]
    return out


def _cleared_bits(drawing) -> int:
    """Bits of the largest coordinate once all denominators are cleared."""
    pts = drawing.pos.values()
    scale = lcm(*(q.denominator for p in pts for q in (p.x, p.y)))
    return max(abs(q.numerator * (scale // q.denominator)).bit_length()
               for p in pts for q in (p.x, p.y))


def depth2(sm, rng: random.Random, passes: int) -> list[list[Op]]:
    m, d2, pl = sm.model, sm.depth2, sm.planarity

    def op(inst):
        n = inst.tree.n

        def run(tr):
            d = tr.call("depth2.embed_depth2", d2.embed_depth2, inst)
            cond = tr.call("depth2.verify_conditions", d2.verify_conditions, inst, d)
            reps = tr.call("planarity.check_simultaneous", pl.check_simultaneous, inst, d)
            return d, cond, reps

        def check(res):
            d, cond, (tree_rep, path_rep) = res
            _require(cond.valid, f"n={n}: placement conditions violated")
            _require(tree_rep.planar and path_rep.planar, f"n={n}: drawing not planar")
            _require(sorted(d.pos) == list(range(n)), f"n={n}: drawing incomplete")
            bits = _cleared_bits(d)
            return {"depth2.coord_bits.max": bits,
                    f"depth2.coord_bits@n={n:03d}.max": bits,
                    # edge pairs a naive check examines, from the sizes
                    "planarity.check_simultaneous.pairs": (n - 1) * (n - 2)}
        return Op("depth2", run, check)

    out = []
    for _ in range(passes):
        ops = []
        for n in D2_LADDER:
            order = list(range(n))
            rng.shuffle(order)
            tree = m.RootedTree.from_parent(_depth2_tree(rng, n))
            ops.append(op(m.Instance(tree, m.PathGraph.of(order))))
        rng.shuffle(ops)
        out.append(ops)
    return out


# --- systematic samples ---------------------------------------------------
#
# Search and leveling costs vary by orders of magnitude between inputs, so
# a plain random sample of a few hundred inputs gives a different cost mix
# for every seed.  These workloads instead take a systematic sample of a
# finite universe: every stride-th element from an offset the seed picks.
# Pass p takes every PASSES-th input from the p-th, so each pass spans the
# whole sample.

def systematic(rng: random.Random, universe: int, count: int) -> list[int]:
    stride = universe // count
    start = rng.randrange(stride)
    return list(range(start, universe, stride))[:count]


def interleave(samples: list, passes: int) -> list[list]:
    return [samples[p::passes] for p in range(passes)]


# --- search ---------------------------------------------------------------

SEARCH_BUDGET = 8_000
SEARCH_N = 5        # random instances: labelled rooted trees on 5 vertices,
SEARCH_TREES = 72   # a systematic sample of them,
SEARCH_PATHS = 20   # each with every sixth of the 120 paths
GADGET_PARENT = [None, 0, 0, 0, 1, 2, 3, 1, 2, 3]  # the ten-vertex gadget
GADGET_PATH = [9, 4, 8, 3, 7, 2, 6, 1, 5, 0]
# the star K1,3 with path 1 0 2 3 on four points: embeddable with the root
# at (1, 0), but the search pins the root to (0, 0) and answers proved-none
PIN_PARENT, PIN_PATH = [None, 0, 0, 0], [1, 0, 2, 3]
PIN_POINTS = [(0, 0), (1, 0), (2, 0), (1, 1)]


def _prufer_tree(code: list, n: int, root: int) -> list:
    """Parent array of the labelled tree with Pruefer code `code`, rooted."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in code:
        leaf = degree.index(1)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [v for v in range(n) if degree[v] == 1]
    adj[u].append(w)
    adj[w].append(u)
    parent = [None] * n
    seen, stack = {root}, [root]
    while stack:
        v = stack.pop()
        for x in adj[v]:
            if x not in seen:
                seen.add(x)
                parent[x] = v
                stack.append(x)
    return parent


def _permutation(index: int, n: int) -> list:
    items, out = list(range(n)), []
    for k in range(n - 1, -1, -1):
        q, index = divmod(index, factorial(k))
        out.append(items.pop(q))
    return out


def search(sm, rng: random.Random, passes: int) -> list[list[Op]]:
    m, pl, geom = sm.model, sm.planarity, sm.geom
    grids = {w: [geom.Point(x, y) for x in range(w) for y in range(w)] for w in (3, 4)}
    grids["pin"] = [geom.Point(x, y) for x, y in PIN_POINTS]
    status = pl.SearchStatus

    def op(kind, inst, w):
        pts = grids[w]

        def run(tr):
            return tr.call("planarity.search_embedding", pl.search_embedding,
                           inst, pts, budget=SEARCH_BUDGET)

        def check(res):
            if res.status is status.Found:
                d = res.drawing
                _require(sorted(d.pos) == list(range(inst.tree.n)), "drawing incomplete")
                _require(set(d.pos.values()) <= set(pts), "point outside the grid")
                tree_rep, path_rep = pl.check_simultaneous(inst, d)
                _require(tree_rep.planar and path_rep.planar, "found drawing not planar")
            return {"planarity.search_embedding.nodes": res.nodes,
                    "planarity.search_embedding." + {
                        status.Found: "found", status.ProvedNone: "proved_none",
                        status.BudgetExceeded: "budget_exceeded"}[res.status]: 1,
                    "bench.budget_hits": int(res.status is status.BudgetExceeded)}
        return Op(kind, run, check)

    def instance(parent, order):
        return m.Instance(m.RootedTree.from_parent(parent), m.PathGraph.of(order))

    # rooted tree index = code * n + root; every pass holds a few paths of
    # every tree, and the trees alternate between the two grids
    n, stride = SEARCH_N, factorial(SEARCH_N) // SEARCH_PATHS
    randoms = []
    for t, j in enumerate(systematic(rng, n ** (n - 2) * n, SEARCH_TREES)):
        code, root = divmod(j, n)
        parent = _prufer_tree([(code // n ** i) % n for i in range(n - 2)], n, root)
        for k in range(SEARCH_PATHS):
            inst = instance(parent, _permutation(k * stride, n))
            randoms.append(op("search.random", inst, 3 + t % 2))
    gadget = op("search.gadget", instance(GADGET_PARENT, GADGET_PATH), 4)
    pin = op("search.pin", instance(PIN_PARENT, PIN_PATH), "pin")
    out = []
    for ops in interleave(randoms, passes):
        ops += [gadget, pin]
        rng.shuffle(ops)
        out.append(ops)
    return out


# --- leveling -------------------------------------------------------------

LEVELS = 4
LEVEL_BUDGET = 30_000         # the per-class budget of leveltree.lemma1_tree
COMB_PER_PASS = 120
SUBSET_STRIDE = 60            # every 60th leveling also gets the region and grid searches
REGION_PER_AXIS, REGION_SPAN = 2, 3
GRID_WIDTH = 5
VALID_SHARE = 72_600 / LEVELS ** 10   # valid surjective levelings among all maps


def leveling(sm, rng: random.Random, passes: int) -> list[list[Op]]:
    m, lt, pl = sm.model, sm.leveltree, sm.planarity
    st = lt.LevelStatus
    tree = m.RootedTree.from_parent(GADGET_PARENT)
    edges = tree.edges()
    rs = lt.RegionSystem.horizontal(range(LEVELS))
    grid = lt.region_candidates(rs, per_axis=REGION_PER_AXIS, span=REGION_SPAN)

    def check_level(t, res, name):
        if res.status is st.Found:
            _require(lt.check_level_drawing(t, res.drawing).planar, "level drawing not planar")
        return {name + ".nodes": res.nodes}

    def comb(t):
        name = "leveltree.search_level_planar.combinatorial"

        def run(tr):
            return tr.call(name, lt.search_level_planar, t, 10,
                           budget=LEVEL_BUDGET, method="combinatorial")

        def check(res):
            counts = check_level(t, res, name)
            if res.status is st.BudgetExceeded:
                verdict = "inconclusive" if "inconclusive" in res.note else "budget_exceeded"
            else:
                verdict = "certified"
                counts[name + (".planar" if res.status is st.Found else ".nonplanar")] = 1
            counts[name + "." + verdict] = 1
            counts["bench.budget_hits"] = int(verdict == "budget_exceeded")
            return counts
        return Op("leveling.combinatorial", run, check)

    def grid_op(t):
        name = "leveltree.search_level_planar.grid"
        width = max(GRID_WIDTH, max(len(vs) for vs in t.levels().values()))

        def run(tr):
            return tr.call(name, lt.search_level_planar, t, width,
                           budget=LEVEL_BUDGET, method="grid")

        def check(res):
            counts = check_level(t, res, name)
            counts[name + "." + {st.Found: "found", st.ExhaustedNone: "exhausted",
                                 st.BudgetExceeded: "budget_exceeded"}[res.status]] = 1
            counts["bench.budget_hits"] = int(res.status is st.BudgetExceeded)
            return counts
        return Op("leveling.grid", run, check)

    def region(t):
        name = "leveltree.search_region_level_planar"
        rst = lt.RegionStatus

        def run(tr):
            return tr.call(name, lt.search_region_level_planar, t, rs, grid,
                           budget=LEVEL_BUDGET)

        def check(res):
            if res.status is rst.Found:
                d = res.drawing
                for v in range(t.tree.n):
                    _require(d.pos[v] in grid[t.phi[v] - 1], f"vertex {v} off its region grid")
                _require(pl.check_drawing(edges, d).planar, "region drawing not planar")
            verdict = {rst.Found: "found", rst.ExhaustedNoneOverGrid: "exhausted",
                       rst.BudgetExceeded: "budget_exceeded"}[res.status]
            return {name + ".nodes": res.nodes, name + "." + verdict: 1,
                    "bench.budget_hits": int(res.status is rst.BudgetExceeded)}
        return Op("leveling.region", run, check)

    # a systematic sample of all LEVELS**10 maps, keeping the valid ones
    universe = LEVELS ** len(GADGET_PARENT)
    levelings = []
    for j in systematic(rng, universe, round(passes * COMB_PER_PASS / VALID_SHARE)):
        phi = [(j // LEVELS ** v) % LEVELS + 1 for v in range(len(GADGET_PARENT))]
        if len(set(phi)) == LEVELS and all(phi[u] != phi[v] for u, v in edges):
            levelings.append(lt.LevelTree.of(tree, phi))
    out = []
    for share in interleave(levelings, passes):
        ops = [comb(t) for t in share]
        for t in share[rng.randrange(SUBSET_STRIDE)::SUBSET_STRIDE]:
            ops += [region(t), grid_op(t)]
        rng.shuffle(ops)
        out.append(ops)
    return out


# --- desk -----------------------------------------------------------------

_REDUCED = dict(formation_reps=2, formation_outer=1, sef_tuple=2, sef_efs=2, sef_reps=4)
ANALYZE_PARAMS = dict(s=2, x=1, y=2, formation_reps=1, formation_outer=1,
                      sef_tuple=2, sef_efs=1, sef_reps=2)            # 465 vertices
# generate ops per pass, by parameters: (count, params).  Together with
# the depth2 ladder, the median of the construct workload falls among the
# 465-vertex ops and its 90th percentile among the 30k- and 45k-vertex ops
GENERATE_MIX = [
    (14, ANALYZE_PARAMS),                                           # 465 vertices
    (6, dict(s=2, x=1, y=2, **_REDUCED)),                           # 1,665
    (2, dict(s=3, x=2, y=2, **_REDUCED)),                           # 30,273
    (2, dict(s=3, x=2, y=4, **_REDUCED)),                           # 45,297
]
CHANNEL_JOINTS = 3   # consecutive joints handed to compute_channels: one channel


def desk(sm, rng: random.Random, passes: int) -> list[list[Op]]:
    m, ce, an, cli, geom = sm.model, sm.counterexample, sm.analyzer, sm.cli, sm.geom

    def generate(kw):
        p = ce.CounterexampleParams(**kw)

        def run(tr):
            inst, plan = tr.call("counterexample.build_instance", ce.build_instance, p)
            text = tr.call("model.dump_instance", m.dump_instance, inst)
            back = tr.call("model.load_instance", m.load_instance, text,
                           edge_disjoint_required=True)
            plan_text = tr.call("counterexample.SequencePlan.to_json", plan.to_json)
            plan_back = tr.call("counterexample.SequencePlan.from_json",
                                ce.SequencePlan.from_json, plan_text)
            structure = tr.call("counterexample.validate_structure",
                                ce.validate_structure, back, p, plan_back)
            valid = tr.call("model.validate_instance", m.validate_instance, back)
            return inst, plan, back, plan_back, structure, valid

        def check(res):
            inst, plan, back, plan_back, structure, valid = res
            _require(back == inst, "instance text round trip changed the instance")
            _require(plan_back == plan, "plan text round trip changed the plan")
            _require(structure.valid, "; ".join(structure.violations[:3]))
            _require(valid.valid, "; ".join(valid.violations[:3]))
            return {"counterexample.build_instance.vertices": inst.tree.n,
                    "counterexample.cells": len(plan.cells)}
        return Op("desk.generate", run, check)

    inst, plan = ce.build_instance(ce.CounterexampleParams(**ANALYZE_PARAMS))
    n = inst.tree.n
    joints = sorted(v for v in range(n) if inst.tree.role(v) is m.Role.Joint)

    def analyze(text, pos, window):
        def run(tr):
            d = tr.call("model.load_drawing", m.load_drawing, text)
            passages = tr.call("analyzer.detect_passages", an.detect_passages, inst, d, plan)
            doors = [tr.call("analyzer.enumerate_doors", an.enumerate_doors, p, inst, d)
                     for p in passages]
            channels = tr.call("analyzer.compute_channels", an.compute_channels,
                               inst, d, window)
            cuts = tr.call("analyzer.detect_cuts", an.detect_cuts, inst, d, channels, plan)
            conns = tr.call("analyzer.classify_connections", an.classify_connections,
                            channels, d)
            svg = tr.call("cli.render_svg", cli.render_svg, inst, d)
            return d, passages, doors, channels, cuts, conns, svg

        def check(res):
            d, passages, doors, channels, cuts, conns, svg = res
            _require(d.pos == pos, "drawing text round trip changed the drawing")
            _require(len(channels) == len(window) - 2, "one channel per interior joint")
            _require(all(0 <= ch.x <= 3 and len(ch.segments) == ch.x + 1
                         for ch in channels), "channel shape")
            path_edges = {tuple(e) for e in inst.path.edges()}
            _require(all(ev.edge in path_edges for ev in cuts), "cut on a non-path edge")
            _require(svg.startswith("<?xml") and svg.endswith("</svg>\n")
                     and svg.count("<circle") == n and svg.count("<line") == 2 * (n - 1),
                     "svg shape")
            return {"analyzer.passages": len(passages),
                    "analyzer.doors": sum(len(ds) for ds in doors),
                    "analyzer.channels": len(channels),
                    "analyzer.channel_bends": sum(ch.x for ch in channels),
                    "analyzer.cuts": len(cuts),
                    "analyzer.connections": sum(len(c.entries) for c in conns),
                    "cli.render_svg.bytes": len(svg.encode())}
        return Op("desk.analyze", run, check)

    out = []
    for _ in range(passes):
        # a seeded random integer drawing: distinct points in a 4n x 4n box
        cells = rng.sample(range((4 * n) ** 2), n)
        pos = {v: geom.Point(c // (4 * n), c % (4 * n)) for v, c in enumerate(cells)}
        text = m.dump_drawing(m.Drawing(pos))
        start = rng.randrange(len(joints) - CHANNEL_JOINTS + 1)
        ops = [analyze(text, pos, joints[start:start + CHANNEL_JOINTS])]
        for count, kw in GENERATE_MIX:
            ops += [generate(kw) for _ in range(count)]
        rng.shuffle(ops)
        out.append(ops)
    return out


def _merge(*parts):
    """A workload whose every pass holds one pass of each part, shuffled."""
    def make(sm, rng: random.Random, passes: int) -> list[list[Op]]:
        out = []
        for shares in zip(*[part(sm, rng, passes) for part in parts]):
            ops = [op for share in shares for op in share]
            rng.shuffle(ops)
            out.append(ops)
        return out
    return make


# Two workloads, so that each run can be long: on a shared machine the
# speed drifts by 10-20% between 20 s windows, and less between longer ones.
WORKLOADS = {"construct": _merge(depth2, desk), "search": _merge(search, leveling)}
