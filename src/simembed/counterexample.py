"""Parametric generator of the tree/path counterexample family.

The tree hangs branches and stabilizers off joints below a common root;
the path threads through them cell by cell, cells are chained into
formations, formations into extended formations (EFs) with scheduled
defects, and EFs into a sequence of extended formations (SEF).  One visit
program (`_program`) writes that structure and its defect schedules down
once: `build_instance` takes its cells from it to build a labeled
instance and its plan at reduced constants, and `validate_structure`
checks an instance and its plan against it.  `size_report` only
evaluates exact counts, at full scale too.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from math import comb, ceil
from typing import Optional

from .model import (FormatError, Instance, PathGraph, Role, RootedTree,
                    ValidationReport)


class InvalidParams(ValueError):
    pass


class CapExceeded(ValueError):
    pass


PAPER_R1 = 37   # inner repetitions of a formation
PAPER_R2 = 4    # outer repetitions of a formation
PAPER_R3 = 12   # tuples per SEF
PAPER_R4 = 110  # EFs per SEF tuple
PAPER_R5 = 120  # SEF repetitions

X_CAP = 7 * 3**2 * 2**23
Y_CAP = 7**2 * 3**3 * 2**26


@dataclass(frozen=True)
class CounterexampleParams:
    s: int                      # branches per cell set = cells per set
    x: int                      # 4-tuples per EF tuple
    y: int                      # EF repetition count, divisible by x
    formation_reps: int = PAPER_R1
    formation_outer: int = PAPER_R2
    sef_tuple: int = PAPER_R3
    sef_efs: int = PAPER_R4
    sef_reps: int = PAPER_R5
    double_defects: bool = False
    cap: int = 300_000

    def validate(self):
        if self.s < 2:
            raise InvalidParams("s must be at least 2")
        if self.x < 1:
            raise InvalidParams("x must be at least 1")
        if self.y < 1 or self.y % self.x:
            raise InvalidParams("y must be positive and divisible by x")
        for name in ("formation_reps", "formation_outer", "sef_tuple",
                     "sef_efs", "sef_reps"):
            if getattr(self, name) < 1:
                raise InvalidParams(f"{name} must be positive")
        if self.sef_reps % self.sef_tuple:
            raise InvalidParams("sef_reps must be divisible by sef_tuple")
        if self.sef_efs < self.efs_needed_per_tuple():
            raise InvalidParams("sef_efs smaller than the schedule demands")

    def joint_count(self) -> int:
        return self.sef_tuple * 4 * self.x

    def efs_needed_per_tuple(self) -> int:
        # with double defects a repetition skips the set {m, m % sef_tuple + 1}
        skipped = min(2, self.sef_tuple) if self.double_defects else 1
        return self.sef_reps - skipped * (self.sef_reps // self.sef_tuple)

    def formations_per_ef_tuple(self) -> int:
        # the x = 1 defect rule would skip the only tuple every time;
        # treated as "no defects" so the degenerate width still yields cells
        return self.y if self.x == 1 else self.y - self.y // self.x

    def cells_per_joint_per_formation(self) -> int:
        return self.formation_reps * self.formation_outer

    def cells_needed_per_joint(self) -> int:
        return (self.efs_needed_per_tuple()
                * self.formations_per_ef_tuple()
                * self.cells_per_joint_per_formation())


# --- per-cell bookkeeping -------------------------------------------------

@dataclass
class CellLayout:
    joint: int
    index: int  # cell ordinal within its joint, 0-based
    head_1vertex: int = 0
    head_2vertices: list = field(default_factory=list)
    head_3vertices: list = field(default_factory=list)
    tail_1vertices: list = field(default_factory=list)
    tail_2vertices: list = field(default_factory=list)
    tail_3vertices: list = field(default_factory=list)
    stabilizers: list = field(default_factory=list)

    def path_order(self) -> list[int]:
        """Vertex order inside the cell: head 1-vertex, head 2- then
        3-vertices each followed by a tail 1-vertex, tail 2- then
        3-vertices each followed by a stabilizer.  ValueError when a
        follower list does not match the list it interleaves."""
        seq = [self.head_1vertex]
        for xs, ys in ((self.head_2vertices + self.head_3vertices, self.tail_1vertices),
                       (self.tail_2vertices + self.tail_3vertices, self.stabilizers)):
            seq += chain.from_iterable(zip(xs, ys, strict=True))
        return seq


def _ids(xs, below=float("inf")) -> bool:
    """xs is a list of ints, each in 0..below-1."""
    return isinstance(xs, list) and all(
        type(x) is int and 0 <= x < below for x in xs)


def _has(d, *keys) -> bool:
    return isinstance(d, dict) and all(k in d for k in keys)


def _once(pairs: list) -> dict:
    """A JSON object as a dict, each key at most once."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = Counter(k for k, _ in pairs).most_common(1)[0][0]
        raise FormatError(f"repeated key {key!r}")
    return obj


@dataclass
class SequencePlan:
    params_s: int
    cells: list = field(default_factory=list)        # CellLayout
    formations: list = field(default_factory=list)   # {joints: [4], cells: [ids]}
    efs: list = field(default_factory=list)          # {tuples, formations, defects}
    sef: dict = field(default_factory=lambda: {      # {tuples, efs, defects, double}
        "tuples": [], "efs": [], "defects": [], "double": False})

    def to_json(self) -> str:
        """The plan as compact JSON, each cell, formation and EF encoded
        on its own: json.dumps of the whole plan gives the same text, but
        its encoder holds a token list as large as the plan."""
        encode = json.JSONEncoder(separators=(",", ":")).encode

        def array(xs) -> str:
            return "[" + ",".join(map(encode, xs)) + "]"
        return (f'{{"s":{encode(self.params_s)},'
                f'"cells":{array(map(vars, self.cells))},'
                f'"formations":{array(self.formations)},'
                f'"efs":{array(self.efs)},"sef":{encode(self.sef)}}}')

    @staticmethod
    def from_json(text: str) -> "SequencePlan":
        """Parse a .plan; a missing or repeated key, a wrong shape or an
        id out of range is a FormatError."""
        try:
            raw = json.loads(text, object_pairs_hook=_once)
            plan = SequencePlan(raw["s"], [CellLayout(**c) for c in raw["cells"]],
                                raw["formations"], raw["efs"], raw["sef"])
            ok = (_ids([plan.params_s])
                  and _has(plan.sef, "tuples", "efs", "defects", "double")
                  and _ids(plan.sef["efs"], len(plan.efs))
                  and all(_ids(c.path_order() + [c.joint, c.index])
                          for c in plan.cells)
                  and all(_has(f, "joints", "cells")
                          and _ids(f["cells"], len(plan.cells))
                          for f in plan.formations)
                  and all(_has(e, "tuples", "formations", "defects")
                          and _ids(e["formations"], len(plan.formations))
                          for e in plan.efs))
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"malformed plan: {e!r}") from None
        if not ok:
            raise FormatError("malformed plan: a key is missing or a value"
                              " is not a valid id")
        return plan


@dataclass
class SizeReport:
    joints: int
    cells_per_joint: int
    cells_per_formation: int
    cells_per_formation_per_joint: int
    cell_head_counts: tuple
    cell_tail_counts: tuple
    cell_stabilizers: int
    vertices_total: int


# --- paper-scale parameter calculator ------------------------------------

@dataclass
class PaperParameters:
    x: int
    r: int
    y: int
    s: int
    l: int
    t: int
    degenerate: bool = False


def compute_paper_parameters(x: int) -> PaperParameters:
    """Exact big-integer evaluation of the full-scale parameter formulas."""
    if x < 1:
        raise InvalidParams("x must be at least 1")
    r = 2**7 * 3 * x
    y = comb(r + 2, 3)
    s = (y - y // x) * PAPER_R1 * PAPER_R2
    l = (s - 1) ** 4 * 3**2 * x
    t = 3**2 * (s - 1) ** 4  # stabilizers per cell, from the interleaving rule
    return PaperParameters(x=x, r=r, y=y, s=s, l=l, t=t, degenerate=(x == 1))


# --- desk-mode construction ----------------------------------------------

def _cell_counts(s: int) -> dict:
    return {
        "head": (1, 3 * (s - 1), 3 * (s - 2) * (s - 1)),
        "tail": (3 * (s - 1) ** 2, 3**2 * (s - 1) ** 3,
                 3**2 * (s - 2) * (s - 1) ** 3),
        "stabilizers": 3**2 * (s - 1) ** 4,
    }


def _branch_size(s: int) -> int:
    return 1 + 3 * (s - 1) + 3 * (s - 2) * (s - 1)


def _branches_per_set(s: int) -> int:
    return s + 3 * s * (s - 1) ** 2


def _estimate_vertices(p: CounterexampleParams) -> int:
    q = p.joint_count()
    sets = ceil(p.cells_needed_per_joint() / p.s)
    spare = 1 + 3 * (p.s - 1) * (1 + max(1, p.s - 2))
    per_joint = (sets * _branches_per_set(p.s) * _branch_size(p.s) + spare
                 + sets * p.s * _cell_counts(p.s)["stabilizers"])
    return 1 + q + q * per_joint


def _distribute_set(s: int) -> list[tuple]:
    """How one set of cells is dealt, as indices into the set's ids.

    A set's ids run through its branches in order, each the root, its
    3(s-1) 2-vertices, then the s-2 3-vertices of each 2-vertex in turn;
    its s cells' stabilizers come last.  Branches 0..s-1 are the head
    subset; the rest form 3(s-1)^2 tail subsets of s branches each.
    Within a subset, index branches k and cells r from 0.  Cell r takes
    the root of branch r and, from every branch k != r:
      - the 2-vertices 3*pos .. 3*pos+2, where pos = r if r < k else r-1;
      - for each other 2-vertex i of branch k, whose owner is o = i//3
        (plus 1 when i//3 >= k): when o != r, the 3-vertex of i with
        index r - [k < r] - [o < r].
    Cell r then takes the r-th run of stabilizers.  Returns per cell the
    head 1-vertex and the other six lists of a CellLayout, in field order.
    """
    m2, m3, bsize = 3 * (s - 1), s - 2, _branch_size(s)
    nb, stabs = _branches_per_set(s), _cell_counts(s)["stabilizers"]
    cells = []
    for r in range(s):
        lists = [[], [], [], [], [], []]
        for b in range(0, nb, s):
            ones, twos, threes = lists[:3] if b == 0 else lists[3:]
            ones.append((b + r) * bsize)
            for k in range(s):
                if k == r:
                    continue
                at = (b + k) * bsize + 1
                pos = r if r < k else r - 1
                twos += range(at + 3 * pos, at + 3 * pos + 3)
                for i in range(m2):
                    o = i // 3 + (i // 3 >= k)
                    if o != r:
                        threes.append(at + m2 + i * m3 + r - (k < r) - (o < r))
        first = nb * bsize + r * stabs
        cells.append((lists[0][0], *lists[1:], range(first, first + stabs)))
    return cells


def size_report(p: CounterexampleParams) -> SizeReport:
    """Exact counts of the instance p describes, without building it."""
    p.validate()
    counts = _cell_counts(p.s)
    return SizeReport(
        joints=p.joint_count(),
        cells_per_joint=p.cells_needed_per_joint(),
        cells_per_formation=4 * p.formation_reps * p.formation_outer,
        cells_per_formation_per_joint=p.cells_per_joint_per_formation(),
        cell_head_counts=counts["head"],
        cell_tail_counts=counts["tail"],
        cell_stabilizers=counts["stabilizers"],
        vertices_total=_estimate_vertices(p),
    )


# --- the visit program: SEF -> EF -> formation -> cell -------------------

def _formation_joints(h: list, p: CounterexampleParams) -> list[int]:
    """The joint of each cell a formation on joint tuple h visits, in
    order: ((h1 h2 h3)^R1 h4^R1)^R2."""
    r1 = p.formation_reps
    return (h[:3] * r1 + h[3:] * r1) * p.formation_outer


def _program(p: CounterexampleParams) -> tuple[list, list]:
    """p's visit program, in the plan's terms.

    Joint tuples are runs of four joint indices in order around the root,
    x to an EF tuple, sef_tuple EF tuples in all, numbered from 1 (a
    residue 0 reads as the last).  SEF repetition k skips EF tuple
    k mod sef_tuple (with double defects the next one too) and gives
    every other EF tuple one EF.  In its repetition k an EF visits one
    formation on each of its joint tuples but its defect k mod x; with
    x = 1 there is no defect.  Returns the EF tuples and, per SEF
    repetition, (skipped tuple numbers, EFs), each EF as (joint tuples,
    defects, the joint tuple of every formation it visits).
    """
    groups = [[list(range(4 * i, 4 * i + 4)) for i in range(g * p.x, (g + 1) * p.x)]
              for g in range(p.sef_tuple)]
    defects = [(k % p.x or p.x) if p.x > 1 else None for k in range(1, p.y + 1)]
    reps = []
    for k in range(1, p.sef_reps + 1):
        m = k % p.sef_tuple or p.sef_tuple
        skipped = sorted({m, m % p.sef_tuple + 1} if p.double_defects else {m})
        reps.append((skipped, [
            (group, defects, [h for d in defects
                              for j, h in enumerate(group, 1) if j != d])
            for j, group in enumerate(groups, 1) if j not in skipped]))
    return groups, reps


def plan_params(plan: SequencePlan) -> CounterexampleParams:
    """The parameters of a plan that `build_instance` wrote, read off its
    shape, for `validate_structure` to check the plan against: the SEF
    holds sef_tuple groups of x joint tuples and sef_reps defect
    schedules; the first EF has y defects, and its first formation has
    4·formation_reps·formation_outer cells, the first on h4 at index
    3·formation_reps.  A plan with no EF takes y = x and both formation
    counts 1; sef_efs is the least the schedule allows.  FormatError when
    the shape names no valid parameters, or parameters whose program
    visits another number of formations than the plan holds."""
    sef, efs = plan.sef, plan.efs
    try:
        x = len(sef["tuples"][0])
        y, reps, outer = x, 1, 1
        if efs:
            f = plan.formations[efs[0]["formations"][0]]
            h4, cells = f["joints"][3], f["cells"]
            reps = next(k for k, c in enumerate(cells)
                        if plan.cells[c].joint == h4) // 3
            y, outer = len(efs[0]["defects"]), len(cells) // (4 * reps)
        p = CounterexampleParams(plan.params_s, x, y, reps, outer,
                                 len(sef["tuples"]), 1, len(sef["defects"]),
                                 sef["double"])
        p = replace(p, sef_efs=max(1, p.efs_needed_per_tuple()))
        p.validate()
    except (IndexError, KeyError, StopIteration, TypeError, ValueError,
            ZeroDivisionError) as e:
        raise FormatError(f"plan shape names no parameters: {e!r}") from None
    # so that validate_structure builds no program larger than the plan
    per_ef = p.y * (p.x - 1) if p.x > 1 else p.y
    if p.efs_needed_per_tuple() * p.sef_tuple * per_ef != len(plan.formations):
        raise FormatError("plan shape names no parameters: its formation"
                          " count is not its program's")
    return p


def build_instance(p: CounterexampleParams):
    """A labeled Instance plus its SequencePlan."""
    p.validate()
    counts = _cell_counts(p.s)
    n_est = _estimate_vertices(p)
    if n_est > p.cap:
        raise CapExceeded(f"instance would have {n_est} vertices (cap {p.cap})")

    # each block of vertices as its parents, indices into the block's ids
    # with its joint at -1, and its roles
    s, q = p.s, p.joint_count()
    m2, m3, bsize = 3 * (s - 1), s - 2, _branch_size(s)
    nb, stabs = _branches_per_set(s), s * counts["stabilizers"]
    branch = [0] * m2 + [1 + i for i in range(m2) for _ in range(m3)]
    cell_set = ([a for at in range(0, nb * bsize, bsize)
                 for a in [-1] + [at + d for d in branch]] + [-1] * stabs,
                ([Role.B1] + [Role.B2] * m2 + [Role.B3] * (m2 * m3)) * nb
                + [Role.Stabilizer] * stabs)
    # one spare subtree per joint, never visited by a cell; it gives the
    # path completion vertices not adjacent to the root and keeps the
    # depth at 4 even when branches carry no 3-vertices (s = 2).  Each of
    # its 2-vertices is followed at once by its 3-vertices.
    m3 = max(1, m3)
    spare = ([-1] + [a for at in range(1, 1 + m2 * (1 + m3), 1 + m3)
                     for a in [0] + [at] * m3],
             [Role.B1] + ([Role.B2] + [Role.B3] * m3) * m2)
    deal = _distribute_set(s)

    parent: list[Optional[int]] = [None] + [0] * q
    labels = [Role.Root] + [Role.Joint] * q

    def block(parents, roles, joint) -> list[int]:
        # the block's ids, one int each: parents and cells share them
        ids = [*range(len(parent), len(parent) + len(roles)), joint]
        parent.extend(map(ids.__getitem__, parents))
        labels.extend(roles)
        return ids

    per_joint = ceil(p.cells_needed_per_joint() / s) * s  # whole sets
    plan = SequencePlan(s)
    for jpos in range(q):
        for base in range(0, per_joint, s):
            take = block(*cell_set, jpos + 1).__getitem__
            plan.cells += [CellLayout(jpos, base + r, take(one),
                                      *(list(map(take, xs)) for xs in rest))
                           for r, (one, *rest) in enumerate(deal)]
        block(*spare, jpos + 1)

    # each joint's cells are visited in index order
    unvisited = [iter(range(jpos * per_joint, (jpos + 1) * per_joint))
                 for jpos in range(q)]
    groups, reps = _program(p)
    for _, efs in reps:
        for tuples, defects, visits in efs:
            first = len(plan.formations)
            plan.formations += [
                {"joints": list(h), "cells": [next(unvisited[jpos])
                                              for jpos in _formation_joints(h, p)]}
                for h in visits]
            plan.efs.append({"tuples": [list(h) for h in tuples],
                             "formations": list(range(first, len(plan.formations))),
                             "defects": list(defects)})
    plan.sef = {"tuples": [[list(h) for h in group] for group in groups],
                "efs": list(range(len(plan.efs))),
                "defects": [skipped for skipped, _ in reps],
                "double": p.double_defects}

    # --- path: concatenate cells in visit order, then append the rest ----
    order = [*chain.from_iterable(plan.cells[c].path_order()
                                  for f in plan.formations for c in f["cells"])]

    # completion rule: every other id ascending (the root, the joints 1..q,
    # the rest); when an appended edge would duplicate a tree edge, pair
    # the offender with the next non-adjacent vertex further down the list
    off_path = bytearray(b"\x01") * len(parent)  # 1 per id the order lacks
    for v in order:
        off_path[v] = 0
    pool = deque(compress(range(len(parent)), off_path))
    appended: list[int] = []

    def adj(a, b) -> bool:
        return a is not None and b is not None and (parent[a] == b or parent[b] == a)

    anchor = order[-1] if order else None
    while pool:
        prev = appended[-1] if appended else anchor
        for pick, v in enumerate(pool):
            if not adj(prev, v):
                appended.append(v)
                del pool[pick]  # O(1) near the front of a deque
                break
        else:
            # every remaining vertex is a tree neighbour of the last one;
            # slot the next vertex into an earlier gap instead
            v = pool.popleft()
            # never in front of the root, which must stay the first
            # appended vertex: it marks where the planned prefix ends
            for j in range(min(1, len(appended)), len(appended) + 1):
                left = appended[j - 1] if j > 0 else anchor
                right = appended[j] if j < len(appended) else None
                if not adj(left, v) and not adj(v, right):
                    appended.insert(j, v)
                    break
            else:
                raise InvalidParams("path completion cannot avoid tree edges")
    order.extend(appended)

    # as tuples, which the tree and the path keep uncopied; one at a time,
    # so that each list is freed as soon as its copy is made
    parent = tuple(parent)
    labels = tuple(labels)
    inst = Instance(RootedTree.from_parent(parent, labels), PathGraph.of(order),
                    edge_disjoint_required=True)
    return inst, plan


# --- structural validator -------------------------------------------------

# the role and depth of the members of each CellLayout list, in field order
_MEMBER_ROLES = ((Role.B1, 2), (Role.B2, 3), (Role.B3, 4),
                 (Role.B1, 2), (Role.B2, 3), (Role.B3, 4), (Role.Stabilizer, 2))


def validate_structure(i: Instance, p: CounterexampleParams,
                       plan: SequencePlan) -> ValidationReport:
    """Check an instance and its plan against the parameters p.

    1. The plan follows p's visit program (`_program`): the SEF's tuples,
       defects and double flag, and each EF it visits, with the joint
       tuple of each of its formations.
    2. The cells of each visited formation sit on the joints
       ((h1 h2 h3)^R1 h4^R1)^R2 of its tuple h.
    3. Every cell of the plan has the list lengths of `_cell_counts(p.s)`;
       its lists hold B1, B2, B3, B1, B2, B3 and Stabilizer vertices, and
       each member hangs, at its role's depth, below the cell's joint
       (joint index k is the k-th Joint child of the root, by id).
    4. The path starts with the visited cells' `path_order()`, in visit
       order, and the tree root comes next.
    5. Each joint carries the stabilizers of all its cell sets.

    A plan that names a joint or a vertex outside the instance is
    reported, never raised on.  Interleaving and anchoring follow from
    3 and 4.
    """
    rep = ValidationReport()
    t, order = i.tree, i.path.order
    parent, depth = t.parent, t.depth
    role = t.labels or (Role.Other,) * t.n
    groups, reps = _program(p)
    efs = [ef for _, rep_efs in reps for ef in rep_efs]
    sef = plan.sef
    if (plan.params_s != p.s or sef["tuples"] != groups
            or sef["defects"] != [skipped for skipped, _ in reps]
            or sef["double"] != p.double_defects):
        rep.add("SEF: parameters, tuples or defect schedule differ from"
                " the visit program")
    formations = sum(len(visits) for *_, visits in efs)
    if (len(sef["efs"]), len(plan.efs), len(plan.formations)) != (
            len(efs), len(efs), formations):
        rep.add(f"SEF visits {len(sef['efs'])} of {len(plan.efs)} EFs and the"
                f" plan holds {len(plan.formations)} formations; the program"
                f" visits {len(efs)} EFs and {formations} formations")

    visited = []
    for e, (tuples, defects, visits) in zip(sef["efs"], efs):
        ef = plan.efs[e]
        if ef["tuples"] != tuples or ef["defects"] != defects or visits != [
                plan.formations[f]["joints"] for f in ef["formations"]]:
            rep.add(f"EF {e}: tuples, defects or formations differ from"
                    " the visit program")
            continue
        for f, h in zip(ef["formations"], visits):
            cells = plan.formations[f]["cells"]
            if [plan.cells[c].joint for c in cells] != _formation_joints(h, p):
                rep.add(f"formation {f}: cell joints do not read"
                        " ((h1 h2 h3)^R1 h4^R1)^R2")
            visited += cells

    counts = _cell_counts(p.s)
    lengths = (1,) + counts["head"][1:] + counts["tail"] + (counts["stabilizers"],)
    want_roles = [r for (r, _), k in zip(_MEMBER_ROLES, lengths) for _ in range(k)]
    want_depths = [d for (_, d), k in zip(_MEMBER_ROLES, lengths) for _ in range(k)]
    root = t.root
    joints = [v for v, u in enumerate(parent)
              if u == root and role[v] is Role.Joint]
    lengths_ok = True
    for ci, c in enumerate(plan.cells):
        lists = ([c.head_1vertex], c.head_2vertices, c.head_3vertices,
                 c.tail_1vertices, c.tail_2vertices, c.tail_3vertices,
                 c.stabilizers)
        members = list(chain(*lists))
        if tuple(map(len, lists)) != lengths:
            rep.add(f"cell {ci}: list lengths {tuple(map(len, lists))}"
                    f" != {lengths}")
            lengths_ok = False
        elif not 0 <= c.joint < len(joints):
            rep.add(f"cell {ci}: joint {c.joint} outside the instance")
        elif min(members) < 0 or max(members) >= t.n:
            rep.add(f"cell {ci}: a member outside the instance")
        elif (list(map(role.__getitem__, members)) != want_roles
              or list(map(depth.__getitem__, members)) != want_depths):
            rep.add(f"cell {ci}: a member with the wrong role or depth")
        else:
            for (_, d), xs in zip(_MEMBER_ROLES, lists):
                for _ in range(d - 1):
                    xs = list(map(parent.__getitem__, xs))
                if xs.count(joints[c.joint]) != len(xs):
                    rep.add(f"cell {ci}: a member hangs below another joint")
                    break

    if lengths_ok:  # else path_order raises
        # one cell at a time, so that neither the path nor the plan's visit
        # order is copied whole; every cell's path_order() has `size` entries
        size = sum(lengths)
        end = at = len(visited) * size
        for k, c in zip(range(0, end, size), visited):
            seq, part = plan.cells[c].path_order(), order[k:k + size]
            if part != tuple(seq):
                at = next((k + j for j, (a, b) in enumerate(zip(part, seq))
                           if a != b), end)
                break
        if at < end or order[end:end + 1] != (root,):
            rep.add(f"path leaves the plan's visit order at position {at}")

    per_joint = ceil(p.cells_needed_per_joint() / p.s) * p.s * counts["stabilizers"]
    stab = Role.Stabilizer  # a local: Enum member lookups are slow
    stabs = Counter(u for u, r in zip(parent, role) if r is stab)
    for j in sorted(stabs):
        if stabs[j] != per_joint:
            rep.add(f"joint at vertex {j}: {stabs[j]} stabilizers,"
                    f" expected {per_joint}")
    return rep
