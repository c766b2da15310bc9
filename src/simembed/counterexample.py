"""Parametric generator of the tree/path counterexample family.

The tree hangs branches and stabilizers off joints below a common root;
the path threads through them cell by cell, cells are chained into
formations, formations into extended formations (EFs) with scheduled
defects, and EFs into a sequence of extended formations (SEF).
`build_instance` builds a labeled instance at reduced constants;
`size_report` only evaluates exact counts, at full scale too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
        skips = (2 if self.double_defects else 1) * (self.sef_reps // self.sef_tuple)
        return self.sef_reps - skips

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
        for pair in zip(self.head_2vertices + self.head_3vertices,
                        self.tail_1vertices, strict=True):
            seq += pair
        for pair in zip(self.tail_2vertices + self.tail_3vertices,
                        self.stabilizers, strict=True):
            seq += pair
        return seq


def _ids(xs, below=float("inf")) -> bool:
    """xs is a list of ints, each in 0..below-1."""
    return isinstance(xs, list) and all(
        type(x) is int and 0 <= x < below for x in xs)


@dataclass
class SequencePlan:
    params_s: int
    cells: list = field(default_factory=list)        # CellLayout
    formations: list = field(default_factory=list)   # {joints: [4], cells: [ids]}
    efs: list = field(default_factory=list)          # {tuples, formations, defects}
    sef: dict = field(default_factory=dict)          # {tuples, efs, defects, double}

    def to_json(self) -> str:
        return json.dumps({
            "s": self.params_s,
            "cells": [vars(c) for c in self.cells],
            "formations": self.formations,
            "efs": self.efs,
            "sef": self.sef,
        }, indent=None, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "SequencePlan":
        """Parse a .plan; a missing key or a wrong shape is a FormatError."""
        try:
            raw = json.loads(text)
            plan = SequencePlan(raw["s"], [CellLayout(**c) for c in raw["cells"]],
                                raw["formations"], raw["efs"], raw["sef"])
            ok = (_ids([plan.params_s]) and isinstance(plan.sef, dict) and all(
                _ids(c.path_order() + [c.joint, c.index]) for c in plan.cells)
                and all(_ids(f["cells"], len(plan.cells)) for f in plan.formations)
                and all(_ids(e["formations"], len(plan.formations))
                        for e in plan.efs))
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"malformed plan: {e!r}") from None
        if not ok:
            raise FormatError("malformed plan: a value is not a valid id")
        return plan


@dataclass
class SizeReport:
    params: CounterexampleParams
    joints: int
    cells_per_joint: int
    cells_per_formation: int
    cells_per_formation_per_joint: int
    branch_vertices: int
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
    n_bound: int
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
    return PaperParameters(x=x, r=r, y=y, s=s, l=l, t=t, n_bound=y,
                           degenerate=(x == 1))


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


def _distribute_set(branches: list[dict], stab_pool: list[int],
                    joint: int, base_index: int, s: int) -> list[CellLayout]:
    """Split one set of s head branches plus its tail branches and
    stabilizers into s cells.

    branches[0:s] are the head branches; the rest form 3(s-1)^2 tail
    subsets of s branches each.  Within a subset, cell r owns the root of
    its r-th branch, three 2-vertices of every other branch, and one
    3-vertex of every 2-vertex it does not own outside its own branch.
    """
    cells = [CellLayout(joint, base_index + r) for r in range(s)]

    def deal(subset, into_head: bool):
        # ownership of 2-vertices: branch k's 3(s-1) 2-vertices go three
        # apiece to every cell r != k, in index order
        owner_of = {}
        for k, br in enumerate(subset):
            others = [r for r in range(s) if r != k]
            for idx, w in enumerate(br["twos"]):
                owner_of[w] = others[idx // 3]
        for r in range(s):
            c = cells[r]
            one = subset[r]["root"]
            twos = [w for k, br in enumerate(subset) if k != r
                    for w in br["twos"] if owner_of[w] == r]
            threes = []
            for k, br in enumerate(subset):
                if k == r:
                    continue
                for w in br["twos"]:
                    if owner_of[w] == r:
                        continue
                    threes.append(br["threes"][w].pop(0))
            if into_head:
                c.head_1vertex = one
                c.head_2vertices.extend(twos)
                c.head_3vertices.extend(threes)
            else:
                c.tail_1vertices.append(one)
                c.tail_2vertices.extend(twos)
                c.tail_3vertices.extend(threes)

    deal(branches[:s], True)
    tail = branches[s:]
    for i in range(0, len(tail), s):
        deal(tail[i:i + s], False)
    per_cell = _cell_counts(s)["stabilizers"]
    for r in range(s):
        cells[r].stabilizers = stab_pool[r * per_cell:(r + 1) * per_cell]
    return cells


def size_report(p: CounterexampleParams) -> SizeReport:
    """Exact counts of the instance p describes, without building it."""
    p.validate()
    counts = _cell_counts(p.s)
    return SizeReport(
        params=p,
        joints=p.joint_count(),
        cells_per_joint=p.cells_needed_per_joint(),
        cells_per_formation=4 * p.formation_reps * p.formation_outer,
        cells_per_formation_per_joint=p.cells_per_joint_per_formation(),
        branch_vertices=_branch_size(p.s),
        cell_head_counts=counts["head"],
        cell_tail_counts=counts["tail"],
        cell_stabilizers=counts["stabilizers"],
        vertices_total=_estimate_vertices(p),
    )


def build_instance(p: CounterexampleParams):
    """A labeled Instance plus its SequencePlan."""
    p.validate()
    counts = _cell_counts(p.s)
    n_est = _estimate_vertices(p)
    if n_est > p.cap:
        raise CapExceeded(f"instance would have {n_est} vertices (cap {p.cap})")

    parent: list[Optional[int]] = [None]
    labels: list[Role] = [Role.Root]

    def new_vertex(par: int, role: Role) -> int:
        parent.append(par)
        labels.append(role)
        return len(parent) - 1

    q = p.joint_count()
    joints = [new_vertex(0, Role.Joint) for _ in range(q)]

    sets_per_joint = ceil(p.cells_needed_per_joint() / p.s)
    plan = SequencePlan(p.s)
    cells_by_joint: dict[int, list[int]] = {}
    for jpos, j in enumerate(joints):
        base = 0
        for _ in range(sets_per_joint):
            branches = []
            for _ in range(_branches_per_set(p.s)):
                root = new_vertex(j, Role.B1)
                twos = [new_vertex(root, Role.B2) for _ in range(3 * (p.s - 1))]
                threes = {w: [new_vertex(w, Role.B3) for _ in range(p.s - 2)]
                          for w in twos}
                branches.append({"root": root, "twos": twos, "threes": threes})
            stab_pool = [new_vertex(j, Role.Stabilizer)
                         for _ in range(p.s * counts["stabilizers"])]
            cells = _distribute_set(branches, stab_pool, jpos, base, p.s)
            base += p.s
            for c in cells:
                cells_by_joint.setdefault(jpos, []).append(len(plan.cells))
                plan.cells.append(c)
        # one spare subtree per joint, never visited by a cell; it gives
        # the path completion vertices not adjacent to the root and keeps
        # the depth at 4 even when branches carry no 3-vertices (s = 2)
        spare = new_vertex(j, Role.B1)
        for _ in range(3 * (p.s - 1)):
            w = new_vertex(spare, Role.B2)
            for _ in range(max(1, p.s - 2)):
                new_vertex(w, Role.B3)

    # --- the visit program: SEF -> EF -> formation -> cell ---------------
    next_cell = {jpos: 0 for jpos in range(q)}

    def take_cell(jpos: int) -> int:
        i = next_cell[jpos]
        next_cell[jpos] += 1
        return cells_by_joint[jpos][i]

    def make_formation(h: tuple) -> int:
        h1, h2, h3, h4 = h
        cell_ids = []
        for _ in range(p.formation_outer):
            for _ in range(p.formation_reps):
                cell_ids.extend(take_cell(j) for j in (h1, h2, h3))
            cell_ids.extend(take_cell(h4) for _ in range(p.formation_reps))
        plan.formations.append({"joints": list(h), "cells": cell_ids})
        return len(plan.formations) - 1

    # joint tuples in index order around the root
    all_tuples = [tuple(range(4 * i, 4 * i + 4)) for i in range(p.sef_tuple * p.x)]
    sef_tuples = [all_tuples[i * p.x:(i + 1) * p.x] for i in range(p.sef_tuple)]

    def make_ef(tuples: list[tuple]) -> int:
        formations = []
        defects = []
        for k in range(1, p.y + 1):
            m = k % p.x if p.x > 1 else None  # 0 stands for the last tuple
            if m == 0:
                m = p.x
            defects.append(m)
            for j, h in enumerate(tuples, start=1):
                if j == m:
                    continue
                formations.append(make_formation(h))
        plan.efs.append({"tuples": [list(t) for t in tuples],
                         "formations": formations, "defects": defects})
        return len(plan.efs) - 1

    sef_efs = []
    sef_defects = []
    for k in range(1, p.sef_reps + 1):
        m = k % p.sef_tuple
        if m == 0:
            m = p.sef_tuple
        skipped = {m, m % p.sef_tuple + 1} if p.double_defects else {m}
        sef_defects.append(sorted(skipped))
        for j in range(1, p.sef_tuple + 1):
            if j in skipped:
                continue
            sef_efs.append(make_ef(sef_tuples[j - 1]))
    plan.sef = {"tuples": [[list(t) for t in grp] for grp in sef_tuples],
                "efs": sef_efs, "defects": sef_defects,
                "double": p.double_defects}

    # --- path: concatenate cells in visit order, then append the rest ----
    order: list[int] = []
    for ef_id in sef_efs:
        for f_id in plan.efs[ef_id]["formations"]:
            for c_id in plan.formations[f_id]["cells"]:
                order.extend(plan.cells[c_id].path_order())

    # completion rule: root, joints ascending, remaining ascending; when an
    # appended edge would duplicate a tree edge, pair the offender with the
    # next non-adjacent vertex further down the list
    used = set(order)
    pool = [v for v in [0] + joints + [u for u in range(1, len(parent))
                                      if labels[u] is not Role.Joint]
            if v not in used]
    appended: list[int] = []

    def adj(a, b) -> bool:
        return a is not None and b is not None and (parent[a] == b or parent[b] == a)

    anchor = order[-1] if order else None
    while pool:
        prev = appended[-1] if appended else anchor
        pick = next((idx for idx, v in enumerate(pool) if not adj(prev, v)), None)
        if pick is not None:
            appended.append(pool.pop(pick))
            continue
        # every remaining vertex is a tree neighbour of the last one;
        # slot the next vertex into an earlier gap instead
        v = pool.pop(0)
        # never in front of the root, which must stay the first appended
        # vertex: it marks where the planned prefix ends
        for j in range(min(1, len(appended)), len(appended) + 1):
            left = appended[j - 1] if j > 0 else anchor
            right = appended[j] if j < len(appended) else None
            if not adj(left, v) and not adj(v, right):
                appended.insert(j, v)
                break
        else:
            raise InvalidParams("path completion cannot avoid tree edges")
    order.extend(appended)

    inst = Instance(RootedTree.from_parent(parent, labels), PathGraph.of(order),
                    edge_disjoint_required=True)
    return inst, plan


# --- structural validator -------------------------------------------------

def derive_cells(i: Instance) -> list[dict]:
    """Re-read cells off the path using only role labels and tree shape.

    A cell starts at a branch-root (B1) vertex preceded by a stabilizer
    (or at the path start); the planned prefix ends where the tree root
    appears on the path.  A 2-/3-vertex followed by a 1-vertex is a head
    member, one followed by a stabilizer a tail member.
    """
    t, order = i.tree, i.path.order
    role = t.labels or (Role.Other,) * t.n
    stop = order.index(t.root) if t.root in order else len(order)
    prefix = list(order[:stop])
    boundaries = [0]
    for idx in range(1, len(prefix)):
        if (role[prefix[idx]] is Role.B1
                and role[prefix[idx - 1]] is Role.Stabilizer):
            boundaries.append(idx)
    boundaries.append(len(prefix))
    cells = []
    for b, e in zip(boundaries, boundaries[1:]):
        seg = prefix[b:e]
        cell = {"head1": None, "head2": [], "head3": [], "tail1": [],
                "tail2": [], "tail3": [], "stab": [], "members": seg,
                "joint": None, "ok": True}
        for idx, v in enumerate(seg):
            r = role[v]
            nxt = role[seg[idx + 1]] if idx + 1 < len(seg) else None
            if idx == 0:
                if r is Role.B1:
                    cell["head1"] = v
                else:
                    cell["ok"] = False
                continue
            if r is Role.B1:
                cell["tail1"].append(v)
            elif r is Role.Stabilizer:
                cell["stab"].append(v)
            elif r in (Role.B2, Role.B3):
                part = "head" if nxt is Role.B1 else "tail"
                cell[part + ("2" if r is Role.B2 else "3")].append(v)
            else:
                cell["ok"] = False
        u = cell["head1"] if cell["head1"] is not None else seg[0]
        while t.depth[u] > 1:
            u = t.parent[u]
        cell["joint"] = u
        cells.append(cell)
    return cells


def validate_structure(i: Instance, p: CounterexampleParams,
                       plan: Optional[SequencePlan] = None) -> ValidationReport:
    """Check every cell-layout count, the interleaving pattern, per-joint
    stabilizer totals, and the formation/EF/SEF orders with their defect
    schedules, reading the structure back off labels and the path."""
    rep = ValidationReport()
    parent, depth = i.tree.parent, i.tree.depth
    role = i.tree.labels or (Role.Other,) * i.tree.n
    counts = _cell_counts(p.s)
    cells = derive_cells(i)
    expected_cells = p.joint_count() * p.cells_needed_per_joint()
    if len(cells) != expected_cells:
        rep.add(f"expected {expected_cells} visited cells, found {len(cells)}")

    for ci, cell in enumerate(cells):
        if not cell["ok"] or cell["head1"] is None:
            rep.add(f"cell {ci}: malformed member sequence")
            continue
        got_head = (1, len(cell["head2"]), len(cell["head3"]))
        got_tail = (len(cell["tail1"]), len(cell["tail2"]), len(cell["tail3"]))
        if got_head != counts["head"]:
            rep.add(f"cell {ci}: head counts {got_head} != {counts['head']}")
        if got_tail != counts["tail"]:
            rep.add(f"cell {ci}: tail counts {got_tail} != {counts['tail']}")
        if len(cell["stab"]) != counts["stabilizers"]:
            rep.add(f"cell {ci}: stabilizer count {len(cell['stab'])}"
                    f" != {counts['stabilizers']}")
        # Every second vertex reached inside the cell must be a 1-vertex
        # or a stabilizer
        seg = cell["members"]
        for k in range(2, len(seg), 2):
            if role[seg[k]] not in (Role.B1, Role.Stabilizer):
                rep.add(f"cell {ci}: interleaving broken at offset {k}")
                break
        anchors = {cell["joint"]}
        for u in seg:
            while depth[u] > 1:
                u = parent[u]
            anchors.add(u)
        if len(anchors) != 1:
            rep.add(f"cell {ci}: members span joints {sorted(anchors)}")

    # per-joint stabilizer totals on the tree side
    per_joint_cells = p.cells_needed_per_joint()
    sets = ceil(per_joint_cells / p.s)
    expect_stab = sets * p.s * counts["stabilizers"]
    stab_by_joint: dict[int, int] = {}
    for v, r in enumerate(role):
        if r is Role.Stabilizer:
            stab_by_joint[parent[v]] = stab_by_joint.get(parent[v], 0) + 1
    for j in sorted(stab_by_joint):
        if stab_by_joint[j] != expect_stab:
            rep.add(f"joint at vertex {j}: {stab_by_joint[j]} stabilizers,"
                    f" expected {expect_stab}")

    # formation / EF / SEF orders from the joint sequence of the cells
    joint_seq = [c["joint"] for c in cells]
    R1, R2 = p.formation_reps, p.formation_outer
    per_formation = 4 * R1 * R2
    if len(joint_seq) % per_formation:
        rep.add("cell count not a whole number of formations")
    else:
        formations = []
        for f in range(len(joint_seq) // per_formation):
            chunk = joint_seq[f * per_formation:(f + 1) * per_formation]
            block = R1 * 3
            h = (chunk[0], chunk[1], chunk[2], chunk[block])
            expected = (([h[0], h[1], h[2]] * R1 + [h[3]] * R1) * R2)
            if chunk != expected or len(set(h)) != 4:
                rep.add(f"formation {f}: cell order does not match"
                        " ((h1 h2 h3)^R1 h4^R1)^R2")
            formations.append(h)
        # EF grouping: formations per EF and their defect schedule
        fpe = (p.x - 1 if p.x > 1 else 1)
        per_ef = p.formations_per_ef_tuple() * p.x if p.x > 1 else p.y
        # per repetition the path visits x-1 tuples (x > 1) or 1 (x = 1)
        efs_total = len(formations) // per_ef if per_ef else 0
        idx = 0
        for e in range(efs_total):
            tuples_seen: list[tuple] = []
            for k in range(1, p.y + 1):
                visited = [formations[idx + t_] for t_ in range(fpe)]
                idx += fpe
                for h in visited:
                    if h not in tuples_seen:
                        tuples_seen.append(h)
            if len(tuples_seen) != p.x:
                rep.add(f"EF {e}: saw {len(tuples_seen)} distinct tuples,"
                        f" expected {p.x}")
        if plan is not None:
            # defect schedule cross-check against the recorded plan
            for e, ef in enumerate(plan.efs):
                expect = [(k % p.x or p.x) if p.x > 1 else None
                          for k in range(1, p.y + 1)]
                if p.x > 1 and ef["defects"] != expect:
                    rep.add(f"EF {e}: defect schedule mismatch")
            expect_sef = []
            for k in range(1, p.sef_reps + 1):
                m = k % p.sef_tuple or p.sef_tuple
                skipped = {m, m % p.sef_tuple + 1} if p.double_defects else {m}
                expect_sef.append(sorted(skipped))
            if plan.sef.get("defects") != expect_sef:
                rep.add("SEF: defect schedule mismatch")
    return rep
