"""Command-line front end and SVG renderer.

Every subcommand reads and writes the plain-text artifact formats
(.sge instances, .sgd drawings, .slt level trees, .plan sequencing
plans), so commands compose through files.  Exit codes: 0 clean,
1 violation / negative result, 2 usage or format error, 3 budget
exceeded.  All persisted artifacts stay exact rationals; decimal
rounding happens only inside SVG output (display only, 4 decimal
places, never re-imported).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import lcm

from .analyzer import (
    PlanMismatch,
    classify_connections,
    compute_channels,
    detect_cuts,
    detect_passages,
    enumerate_doors,
)
from .counterexample import (
    CounterexampleParams,
    SequencePlan,
    build_instance,
    compute_paper_parameters,
    plan_params,
    size_report,
    validate_structure,
)
from .depth2 import DepthExceeded, embed_depth2
from .leveltree import (
    load_level_tree,
    region_candidates,
    search_level_planar,
    search_region_level_planar,
)
from .model import (
    Role,
    dump_drawing,
    dump_instance,
    load_drawing,
    load_instance,
)
from .planarity import (DEFAULT_BUDGET, SearchResult, check_simultaneous,
                        check_vertex_set, search_embedding)
from .geom import Point

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
CHECK_WITNESSES = 20  # violations listed per graph by check --format records
# search and region level-search build a grid of W² points only when W²
# times its vertices (or regions) is at most GRID_CAP.  Every search the
# tests run stays below 1,000, and search --grid 300 on 3 vertices
# (270,000) fits; setting up a search costs some 40 µs and 1 KB per point,
# so the largest grid a 3-vertex instance gets (316² points) takes about 4 s
GRID_CAP = 300_000


# --- SVG rendering --------------------------------------------------------

def _fmt(num: int, scale: int) -> str:
    """num / scale to 4 decimal places.  Integer true division rounds
    correctly, so the float is float(Fraction(num, scale))."""
    return f"{num / scale:.4f}"


def render_svg(i, d) -> str:
    check_vertex_set(i, d)
    # on the drawing's integer points; scale is the denominator it cleared
    ints = [d.ints[v] for v in range(i.tree.n)]
    scale = lcm(*(q.denominator for p in d.pos.values() for q in (p.x, p.y)))
    xs = [p[0] for p in ints]
    ys = [p[1] for p in ints]
    pad = 10 * scale
    x0, y1 = min(xs) - pad, max(ys) + pad
    w = max(xs) - min(xs) + 2 * pad
    h = max(ys) - min(ys) + 2 * pad
    # each vertex formatted once, the y axis flipped: SVG grows downward
    at = [(_fmt(x - x0, scale), _fmt(y1 - y, scale)) for x, y in ints]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(w, scale)} {_fmt(h, scale)}">',
    ]
    # tree edges grey, beneath the black path edges
    for stroke, edges in (('"#9e9e9e" stroke-width="2.5"', i.tree.edges()),
                          ('"#000000" stroke-width="1.2"', i.path.edges())):
        out.append(f'<g stroke={stroke} stroke-linecap="round">')
        for u, v in edges:
            (xa, ya), (xb, yb) = at[u], at[v]
            out.append(f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}"/>')
        out.append('</g>')
    out.append('<g fill="#1a1a1a">')
    for cx, cy in at:
        out.append(f'<circle cx="{cx}" cy="{cy}" r="2.0"/>')
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


# --- helpers --------------------------------------------------------------

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args, record: dict, text: str) -> None:
    print(json.dumps(record, separators=(",", ":"), sort_keys=True)
          if args.format == "records" else text)


def _answer(args, res: SearchResult) -> int:
    """Print a search result and map its status to the exit code."""
    rec = {"status": res.status.name, "nodes": res.nodes, "note": res.note,
           "metadata": res.metadata}
    _emit(args, rec, f"{res.status.name} after {res.nodes} nodes"
          + (f" ({res.note})" if res.note else ""))
    return {"Found": EXIT_CLEAN,
            "BudgetExceeded": EXIT_BUDGET}.get(res.status.name, EXIT_VIOLATION)


# --- subcommands ----------------------------------------------------------

# desk scale: small replication counts instead of the full-size constants,
# so the instance fits in memory and in a .sge file
_DESK_REPS = dict(formation_reps=2, formation_outer=1, sef_tuple=2,
                  sef_efs=2, sef_reps=4)


def cmd_generate(args) -> int:
    # the repetition flags given; symbolic mode keeps the paper constants
    # for the rest, desk mode its own
    kw = {k: getattr(args, k) for k in _DESK_REPS if getattr(args, k) is not None}
    if args.mode == "desk":
        kw = {**_DESK_REPS, **kw}
    p = CounterexampleParams(s=args.s, x=args.x, y=args.y,
                             double_defects=args.double_defects,
                             cap=args.cap, **kw)
    if args.mode == "symbolic":
        rep = size_report(p)
        rec = {"joints": rep.joints, "cells_per_joint": rep.cells_per_joint,
               "cells_per_formation": rep.cells_per_formation,
               "head": list(rep.cell_head_counts),
               "tail": list(rep.cell_tail_counts),
               "stabilizers": rep.cell_stabilizers,
               "vertices_total": rep.vertices_total}
        _emit(args, rec, "\n".join(f"{k} = {v}" for k, v in rec.items()))
        return EXIT_CLEAN
    inst, plan = build_instance(p)
    _write(args.out + ".sge", dump_instance(inst))
    _write(args.out + ".plan", plan.to_json() + "\n")
    rec = {"n": inst.tree.n, "cells": len(plan.cells),
           "formations": len(plan.formations), "efs": len(plan.efs),
           "sge": args.out + ".sge", "plan": args.out + ".plan"}
    _emit(args, rec,
          f"wrote {rec['sge']} and {rec['plan']}: {rec['n']} vertices, "
          f"{rec['cells']} cells, {rec['formations']} formations, "
          f"{rec['efs']} EFs")
    return EXIT_CLEAN


def cmd_params(args) -> int:
    pps = [compute_paper_parameters(x) for x in args.x_values]
    if args.format != "records":
        print(f"{'x':>12} {'r':>14} {'y':>24} {'degenerate':>10}")
    for pp in pps:
        # the record is every field: x, r, y, s, l, t and degenerate
        _emit(args, vars(pp), f"{pp.x:>12} {pp.r:>14} {pp.y:>24} "
              f"{'yes' if pp.degenerate else 'no':>10}")
    return EXIT_CLEAN


def cmd_embed_depth2(args) -> int:
    inst = load_instance(_read(args.instance))
    try:
        d = embed_depth2(inst)
    except DepthExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    _write(args.out, dump_drawing(d))
    return EXIT_CLEAN


def cmd_check(args) -> int:
    inst = load_instance(_read(args.instance))
    d = load_drawing(_read(args.drawing))
    tr, pr = check_simultaneous(inst, d)
    clean = tr.planar and pr.planar
    rec = {"tree_planar": tr.planar, "path_planar": pr.planar,
           "tree_crossings": len(tr.crossings),
           "path_crossings": len(pr.crossings),
           "tree_vertex_on_edge": len(tr.vertex_on_edge),
           "path_vertex_on_edge": len(pr.vertex_on_edge),
           "clean": clean}
    # witnesses, at most CHECK_WITNESSES of each kind per graph; the
    # counts above are the totals
    for g, rep in (("tree", tr), ("path", pr)):
        rec[g + "_crossing_witnesses"] = [
            {"edges": [list(e), list(f)], "relation": rel.value}
            for e, f, rel in rep.crossings[:CHECK_WITNESSES]]
        rec[g + "_vertex_on_edge_witnesses"] = [
            {"vertex": v, "edge": list(e)}
            for v, e in rep.vertex_on_edge[:CHECK_WITNESSES]]
    _emit(args, rec,
          ("clean" if clean else "VIOLATIONS") + ": "
          f"tree planar={tr.planar} ({rec['tree_crossings']} crossings), "
          f"path planar={pr.planar} ({rec['path_crossings']} crossings)")
    return EXIT_CLEAN if clean else EXIT_VIOLATION


def _grid_fits(w: int, takers: int) -> None:
    """Refuse, before it is built, a grid of w² points for takers
    vertices or regions when w² × takers exceeds GRID_CAP."""
    if w * w * takers > GRID_CAP:
        raise ValueError(f"--grid {w} is too large: {w * w} points times"
                         f" {takers} vertices or regions exceeds {GRID_CAP}")


def cmd_search(args) -> int:
    inst = load_instance(_read(args.instance))
    _grid_fits(args.grid, inst.tree.n)
    pts = [Point(x, y) for x in range(args.grid) for y in range(args.grid)]
    res = search_embedding(inst, pts, budget=args.budget)
    code = _answer(args, res)
    if res.drawing is not None:
        _write(args.out, dump_drawing(res.drawing))
    return code


def cmd_level_search(args) -> int:
    lt, rs = load_level_tree(_read(args.leveltree))
    if rs is not None:
        if args.method is not None:
            raise ValueError("--method applies only to level trees without lines")
        _grid_fits(args.grid, max(lt.tree.n, len(rs.lines)))
        grid = region_candidates(rs, per_axis=args.grid, span=args.grid)
        return _answer(args, search_region_level_planar(lt, rs, grid,
                                                        budget=args.budget))
    return _answer(args, search_level_planar(lt, grid_width=args.grid,
                                             budget=args.budget,
                                             method=args.method or "auto"))


def cmd_analyze(args) -> int:
    inst = load_instance(_read(args.instance))
    plan = SequencePlan.from_json(_read(args.plan))
    d = load_drawing(_read(args.drawing))
    check_vertex_set(inst, d)
    if inst.tree.labels and plan.sef["tuples"]:  # a plan that generate writes
        rep = validate_structure(inst, plan_params(plan), plan)
        if not rep.valid:
            raise PlanMismatch(f"plan does not fit the instance: {rep.violations[0]}")
    passages = detect_passages(inst, d, plan)
    doors = [enumerate_doors(p, inst, d) for p in passages]
    joints = sorted(v for v in range(inst.tree.n)
                    if inst.tree.labels and inst.tree.role(v) is Role.Joint)
    channels = compute_channels(inst, d, joints) if len(joints) >= 3 else []
    cuts = detect_cuts(inst, d, channels, plan) if channels else []
    reports = classify_connections(channels, d) if channels else []
    if args.format != "records":
        counts = (len(passages), sum(map(len, doors)), len(channels), len(cuts),
                  sum(len(rep.entries) for rep in reports))
        print(" ".join(f"{kind}s={k}" for kind, k in zip(
            ("passage", "door", "channel", "cut", "connection"), counts)))
    # one record at a time: a large drawing has hundreds of thousands
    for rec in _analysis_records(passages, doors, channels, cuts, reports):
        _emit(args, rec, "" if args.format == "records"
              else "  " + " ".join(f"{k}={v}" for k, v in sorted(rec.items())))
    return EXIT_CLEAN


def _analysis_records(passages, doors, channels, cuts, reports):
    """The records of an analysis, in output order: each passage followed
    by its doors, then the channels, the cuts and the connections."""
    for p, ds in zip(passages, doors):
        yield {"kind": "passage", "c1": p.c1, "c2": p.c2, "c_sep": p.c_sep,
               "joint": p.joint, "sep_joint": p.sep_joint,
               "crossed_sep_edges": list(p.crossed_sep_edges)}
        for door in ds:
            yield {"kind": "door", "passage": [p.c1, p.c2, p.c_sep],
                   "apex": door.apex, "base": list(door.base),
                   "status": door.status.value}
    for ch in channels:
        yield {"kind": "channel", "joint": ch.joint, "x": ch.x,
               "segments": len(ch.segments)}
    for ev in cuts:
        yield {"kind": "cut", "cut_kind": ev.kind.value, "edge": list(ev.edge),
               "channel": ev.channel, "segments": list(ev.segments),
               "extremal": ev.extremal}
    for rep in reports:
        for (a, b), kind in sorted(rep.entries.items()):
            yield {"kind": "connection", "joint": rep.joint, "pair": [a, b],
                   "connection": kind.value}


def cmd_render(args) -> int:
    inst = load_instance(_read(args.instance))
    _write(args.out, render_svg(inst, load_drawing(_read(args.drawing))))
    return EXIT_CLEAN


# --- argument parsing -----------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simembed",
        description="simultaneous tree/path embedding toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a counterexample instance")
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--x", type=int, required=True)
    g.add_argument("--y", type=int, required=True)
    g.add_argument("--mode", choices=("desk", "symbolic"), default="desk")
    g.add_argument("--double-defects", action="store_true")
    for name in _DESK_REPS:
        g.add_argument("--" + name.replace("_", "-"), type=int)
    g.add_argument("--cap", type=int, default=300_000)
    g.add_argument("--out", default="counterexample")
    g.add_argument("--format", choices=("text", "records"), default="text")
    g.set_defaults(func=cmd_generate)

    pp = sub.add_parser("params", help="full-scale parameter table")
    pp.add_argument("x_values", type=int, nargs="+")
    pp.add_argument("--format", choices=("text", "records"), default="text")
    pp.set_defaults(func=cmd_params)

    e = sub.add_parser("embed-depth2", help="embed an instance whose tree has radius <= 2")
    e.add_argument("instance")
    e.add_argument("--out")
    e.set_defaults(func=cmd_embed_depth2)

    c = sub.add_parser("check", help="verify a drawing of an instance")
    c.add_argument("instance")
    c.add_argument("drawing")
    c.add_argument("--format", choices=("text", "records"), default="text")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("search", help="exhaustive small-instance oracle")
    s.add_argument("instance")
    s.add_argument("--grid", type=_positive_int, default=4,
                   help="use the integer grid of this width as candidates")
    s.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    s.add_argument("--out")
    s.add_argument("--format", choices=("text", "records"), default="text")
    s.set_defaults(func=cmd_search)

    ls = sub.add_parser("level-search", help="level/region planarity search")
    ls.add_argument("leveltree")
    ls.add_argument("--grid", type=_positive_int, default=6)
    ls.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    ls.add_argument("--method", choices=("auto", "grid", "combinatorial"),
                    help="level trees only (default auto)")
    ls.add_argument("--format", choices=("text", "records"), default="text")
    ls.set_defaults(func=cmd_level_search)

    a = sub.add_parser("analyze", help="structural analysis of a drawing")
    a.add_argument("instance")
    a.add_argument("plan")
    a.add_argument("drawing")
    a.add_argument("--format", choices=("text", "records"), default="text")
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("render", help="render an instance drawing to SVG")
    r.add_argument("instance")
    r.add_argument("drawing")
    r.add_argument("--out")
    r.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
