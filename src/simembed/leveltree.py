"""Level trees, region-level drawings, and exhaustive (non)planarity oracles.

A level drawing pins vertex v to the horizontal line y = phi(v); a
region-level drawing only requires v to lie strictly inside the region
between consecutive lines of a region system.  Nonplanarity over a grid
is reported as grid-relative evidence, never as a continuum proof; where
an exact continuum argument applies (the combinatorial ordering oracle)
the result says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import inf
from typing import Optional, Sequence

from .geom import Line, Point
from .model import (Drawing, FormatError, RootedTree, _ints, _parse_tree,
                    _rationals, _records, _tree_record)
from .planarity import (
    DEFAULT_BUDGET,
    CrossingReport,
    SearchResult,
    _place,
    check_drawing,
)


@dataclass(frozen=True)
class LevelTree:
    tree: RootedTree
    phi: tuple  # level per vertex, 1..k
    k: int

    @staticmethod
    def of(tree: RootedTree, phi: Sequence[int]) -> "LevelTree":
        phi = tuple(phi)
        if len(phi) != tree.n:
            raise ValueError("phi must assign a level to every vertex")
        k = max(phi)
        if min(phi) < 1:
            raise ValueError("levels start at 1")
        for u, v in tree.edges():
            if phi[u] == phi[v]:
                raise ValueError(f"edge ({u},{v}) joins vertices on one level")
        return LevelTree(tree, phi, k)

    def adjacent_only(self) -> bool:
        return all(abs(self.phi[u] - self.phi[v]) == 1 for u, v in self.tree.edges())

    def levels(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v in range(self.tree.n):
            out.setdefault(self.phi[v], []).append(v)
        return out


def check_level_drawing(t: LevelTree, d: Drawing) -> CrossingReport:
    return check_drawing(t.tree.edges(), d)


class LevelStatus(Enum):
    Found = "found"
    ExhaustedNone = "exhausted-none"
    BudgetExceeded = "budget-exceeded"


# --- leveled shapes -------------------------------------------------------

def _shape_ids(t: RootedTree, phi, ids: dict) -> list[int]:
    """Each vertex's leveled subtree as a small integer, equal exactly for
    interchangeable subtrees: one post-order pass interns (phi[v], sorted
    child ids) in `ids` (Aho, Hopcroft and Ullman, 1974)."""
    out = [0] * t.n
    for v in reversed(t.preorder()):  # children before parents
        key = (phi[v], tuple(sorted([out[c] for c in t._kids[v]])))
        out[v] = ids.setdefault(key, len(ids))
    return out


def _sibling_cut(t: LevelTree) -> dict[int, int]:
    """Interchangeable sibling subtrees (same parent, same leveled shape)
    take increasing candidate indices: each maps to the sibling before it."""
    shape = _shape_ids(t.tree, t.phi, {})
    groups: dict[tuple, list[int]] = {}
    for v, p in enumerate(t.tree.parent):
        if p is not None:
            groups.setdefault((p, shape[v]), []).append(v)
    return {b: a for g in groups.values() for a, b in zip(g, g[1:])}


# --- combinatorial ordering oracle ---------------------------------------
#
# Long edges are subdivided with a free bendpoint on every intermediate
# line.  A straight-line level drawing induces inversion-free per-level
# orderings of the subdivided tree, so "no such orderings" certifies
# nonplanarity over the whole continuum.  For adjacent-level-only trees
# no subdivision happens and the oracle is exact in both directions.

def _subdivide(t: LevelTree):
    """Return each used level's vertices by rank in id order, each vertex's
    neighbours one rank up, and `after`: on each level, the vertex that a
    later interchangeable leaf's chain must follow."""
    n = t.tree.n
    # number the used levels densely: a level holding only dummies adds no
    # constraint, so a chain needs one dummy per used level it passes
    rank = {lv: i for i, lv in enumerate(sorted(set(t.phi)))}
    lev = [rank[x] for x in t.phi]
    levels = [[] for _ in rank]
    for v in range(n):
        levels[lev[v]].append(v)
    up = [[] for _ in range(n)]
    # interchangeable leaves (same parent and level) have chains on the same
    # levels, laid in id order: one relative order suffices
    first = {v: u for v, u in _sibling_cut(t).items() if not t.tree.children(v)}
    chains, after = {}, {}
    for u, v in t.tree.edges():
        a, b = (u, v) if lev[u] < lev[v] else (v, u)
        chain = chains[v] = [v]
        for level in range(lev[a] + 1, lev[b]):
            d = len(up)  # the next dummy
            chain.append(d)
            levels[level].append(d)
            up.append([a])
            a = d
        up[b].append(a)
        if v in first:
            after.update(zip(chain, chains[first[v]]))
    return levels, up, after


def _ordering_oracle(t: LevelTree, budget: int):
    """Return (per-level orderings admitting no inversion or None, nodes);
    nodes > budget means the budget ran out.

    Levels fill top down, each left to right, one slot at a time: a loop
    over a stack of open slots, each with a cursor over its level's
    vertices in id order; each unplaced vertex it meets is one node.
    Appending v makes no inversion exactly when v's leftmost neighbour
    above is not left of the rightmost neighbour above of a vertex already
    on its level (equal positions are one shared neighbour): one test
    against a frontier `hi`."""
    levels, up, after = _subdivide(t)
    slots = [(lv, k) for lv, members in enumerate(levels) for k in range(len(members))]
    pos = {}  # v -> its index on its level, in the order the slots filled
    span = {}  # v -> positions of its leftmost and rightmost neighbour above
    stack, nodes = [], 0  # per open slot: its cursor and frontier
    while len(pos) < len(slots):
        lv, k = slots[len(pos)]
        if len(stack) == len(pos):  # the slot opens: v just filled the one before
            if k == 0:  # a level starts: its spans follow the levels above
                for w in levels[lv]:
                    ps = [pos[u] for u in up[w]]
                    span[w] = (min(ps, default=inf), max(ps, default=-1))
            stack.append((iter(levels[lv]), max(hi, span[v][1]) if k else -1))
        cursor, hi = stack[-1]
        for v in cursor:
            if v in pos:
                continue
            nodes += 1
            if nodes > budget:
                return None, nodes
            if v in after and after[v] not in pos:
                continue  # the equivalent leaf chain must come first
            if span[v][0] >= hi:
                break
        else:  # the slot has tried every vertex: back to the slot before
            stack.pop()
            if not stack:
                return None, nodes
            pos.popitem()  # the last placed vertex, the one in that slot
            continue
        pos[v] = k
    return pos, nodes


# --- geometric searches ---------------------------------------------------

def _leveled(t: LevelTree, rows, budget: int, none, method: str) -> SearchResult:
    """The one path of the level and region searches, on one budget.

    "combinatorial" and "auto" run the ordering oracle first: past the
    budget it answers BudgetExceeded with the budget as its nodes; with
    no orderings, `none` (the caller's negative status) over the
    continuum.  On an adjacent-level-only tree the orderings draw each
    level on the lexicographically least points of its row, if the row
    has enough; "combinatorial" stops before long edges.  Else _place,
    with the sibling cut, puts v on row phi(v) on the budget left.
    rows(None) maps each level to its row, and rows(need) at least to
    the need[l] least points of row l: built only when needed."""
    status, nodes, meta = type(none), 0, {}
    if method != "grid":
        ordering, spent = _ordering_oracle(t, budget)
        nodes = meta["oracle_nodes"] = min(spent, budget)
        if spent > budget:
            return SearchResult(status.BudgetExceeded, nodes=nodes, metadata=meta)
        if ordering is None:
            return SearchResult(none, nodes=nodes, metadata=meta,
                                note="ordering oracle: nonplanar over the continuum")
        if t.adjacent_only():
            need = {lv: len(vs) for lv, vs in t.levels().items()}
            lex = {lv: sorted(r, key=lambda p: (p.x, p.y))
                   for lv, r in rows(need).items()}
            if all(len(lex[lv]) >= m for lv, m in need.items()):
                d = Drawing({v: lex[lv][ordering[v]] for v, lv in enumerate(t.phi)})
                assert check_level_drawing(t, d).planar
                return SearchResult(status.Found, d, nodes, note="ordering oracle",
                                    metadata=meta)
        elif method == "combinatorial":  # the orderings place bendpoints
            return SearchResult(
                status.BudgetExceeded, nodes=nodes, metadata=meta,
                note="combinatorial oracle inconclusive for long edges")
    lists = rows(None)
    res = _place(t.tree.preorder(), [lists[lv] for lv in t.phi], [t.tree.edges()],
                 budget - nodes, none, _sibling_cut(t))
    res.nodes += nodes
    res.metadata.update(meta)
    return res


def search_level_planar(t: LevelTree, grid_width: int,
                        budget: int = DEFAULT_BUDGET,
                        method: str = "auto") -> SearchResult:
    """Decide level planarity over injective x-assignments from {1..W}.

    method "combinatorial" runs the per-level ordering oracle on the
    bend-subdivided tree: a negative answer is exact over the continuum
    (hence over every grid); a positive answer materializes a drawing
    only when the tree is adjacent-level-only.  method "grid" runs the
    placement search with vertex v on the points (x, phi(v)), x in 1..W,
    under the square-symmetry and sibling-subtree cuts.  "auto" runs the
    oracle, then the grid on the budget it left (_leveled)."""
    if max(map(len, t.levels().values())) > grid_width:
        raise ValueError("a level holds more vertices than the grid width")
    if method not in ("auto", "grid", "combinatorial"):
        raise ValueError(f"unknown method {method!r}")
    def rows(need):  # the points (x, l): x in 1..W, or x in 1..need[l]
        width = need or dict.fromkeys(t.phi, grid_width)
        return {lv: [Point(x, lv) for x in range(1, w + 1)] for lv, w in width.items()}
    res = _leveled(t, rows, budget, LevelStatus.ExhaustedNone, method)
    if res.status is LevelStatus.ExhaustedNone and not res.note:
        res.note = f"grid-relative (W={grid_width})"
    return res


# --- the ten-vertex gadget and its leveling scan --------------------------

_GADGET_PARENT = (None, 0, 0, 0, 1, 2, 3, 1, 2, 3)
LEVELS = 4              # levels of the scanned levelings
CLASS_BUDGET = 30_000   # ordering-oracle nodes per leveling class


@lru_cache(maxsize=None)
def lemma1_tree():
    """The 10-vertex gadget plus its certified-nonplanar 4-levelings.

    Scans every valid surjective 4-leveling, one per class under level
    reversal and the gadget's automorphisms: a class is keyed by the
    lesser root shape id of phi and of phi reversed, and represented by
    its least member, the first in product order.  Keeps the
    representatives the ordering oracle certifies nonplanar (a continuum
    certificate).  Classes whose certification outgrows CLASS_BUDGET are
    skipped, not guessed.
    """
    tree = RootedTree.from_parent(list(_GADGET_PARENT))
    edges = tree.edges()
    hi = LEVELS + 1
    ids, reps = {}, {}  # one interning for the scan, so root ids compare
    for phi in product(range(1, hi), repeat=tree.n):
        if len(set(phi)) != LEVELS or any(phi[u] == phi[v] for u, v in edges):
            continue
        key = min(_shape_ids(tree, phi, ids)[tree.root],
                  _shape_ids(tree, [hi - x for x in phi], ids)[tree.root])
        reps.setdefault(key, phi)

    certified = [phi for phi in reps.values() if search_level_planar(
        LevelTree.of(tree, phi), tree.n, CLASS_BUDGET, "combinatorial",
    ).status is LevelStatus.ExhaustedNone]
    return tree, certified


# --- region systems -------------------------------------------------------

@dataclass(frozen=True)
class RegionSystem:
    """Parallel (so pairwise non-crossing) lines ordered along their normal,
    so a segment from region i to region h crosses exactly lines i..h-1."""
    lines: tuple  # ordered Lines; region i lies before line i

    def __post_init__(self):
        if not self.lines:
            raise ValueError("invalid region system: empty region system")
        base = self.lines[0]
        if any(base.A * ln.B != base.B * ln.A for ln in self.lines):
            raise ValueError("invalid region system: lines cross (non-parallel pair)")
        pos = self.positions()
        bad = [f"lines {i} and {i + 1} out of order"
               for i in range(len(pos) - 1) if pos[i] >= pos[i + 1]]
        if bad:
            raise ValueError("invalid region system: " + "; ".join(bad))

    @staticmethod
    def of(lines: Sequence[Line]) -> "RegionSystem":
        return RegionSystem(tuple(lines))

    @staticmethod
    def horizontal(ys: Sequence) -> "RegionSystem":
        return RegionSystem.of([Line(0, 1, y) for y in ys])

    def positions(self):
        """Offsets of the lines along the shared normal."""
        base = self.lines[0]
        return [ln.C / ((ln.A / base.A) if base.A != 0 else (ln.B / base.B))
                for ln in self.lines]


def region_candidates(rs: RegionSystem, per_axis: int = 6,
                      span: int = 6) -> list[list[Point]]:
    """A per-region candidate grid, strictly interior with a margin of a
    quarter of the inter-line gap."""
    pos = rs.positions()
    base = rs.lines[0]
    n = Point(base.A, base.B)
    d = Point(-base.B, base.A)
    n2 = n.dot(n)
    gaps = [pos[i + 1] - pos[i] for i in range(len(pos) - 1)]
    first_gap = gaps[0] if gaps else Fraction(1) * n2
    out = []
    for i, p in enumerate(pos):
        hi = p
        lo = p - first_gap if i == 0 else pos[i - 1]
        margin = (hi - lo) / 4
        lo_m, hi_m = lo + margin, hi - margin
        ts = [lo_m + (hi_m - lo_m) * j / (per_axis - 1) for j in range(per_axis)] \
            if per_axis > 1 else [(lo_m + hi_m) / 2]
        ss = [Fraction(j + 1, 1) for j in range(span)]
        pts = []
        for t in ts:
            for s in ss:
                pts.append(Point(n.x * t / n2 + d.x * s, n.y * t / n2 + d.y * s))
        out.append(pts)
    return out


class RegionStatus(Enum):
    Found = "found"
    ExhaustedNoneOverGrid = "exhausted-none-over-grid"
    BudgetExceeded = "budget-exceeded"


def search_region_level_planar(t: LevelTree, rs: RegionSystem,
                               grid: Sequence[Sequence[Point]],
                               budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exhaustive search over per-region candidate placements: _leveled
    with vertex v on the candidates of region phi(v).

    The placement search's cuts only quotient exact symmetries, so its
    exhaustion is exhaustion over the grid: a grid-relative verdict, so
    recorded in the metadata.  When every region's candidates share one
    line parallel to the system lines, any placement is a level drawing
    on those rows, so the ordering oracle goes first: its negative covers
    every row position."""
    if len(grid) != len(rs.lines):
        raise ValueError("one candidate list per region required")
    if max(t.phi) > len(rs.lines):
        raise ValueError(f"level {max(t.phi)} has no region: the system has"
                         f" {len(rs.lines)} lines")
    base, pos_sys = rs.lines[0], rs.positions()
    for i, pts in enumerate(grid):
        hi = pos_sys[i]
        lo = pos_sys[i - 1] if i > 0 else None
        for p in pts:
            val = base.A * p.x + base.B * p.y
            if not (val < hi and (lo is None or val > lo)):
                raise ValueError(f"candidate {p} not strictly inside region {i + 1}")
        if len(set(pts)) < len(pts):
            raise ValueError(f"region {i + 1} repeats a candidate")

    flat = all(len({base.A * p.x + base.B * p.y for p in pts}) == 1 for pts in grid)
    res = _leveled(t, lambda need: dict(enumerate(grid, 1)), budget,
                   RegionStatus.ExhaustedNoneOverGrid, "auto" if flat else "grid")
    res.metadata.update(per_region_candidates=[len(c) for c in grid], nodes=res.nodes)
    if flat:
        res.metadata["flat_rows"] = True
    if res.status is RegionStatus.ExhaustedNoneOverGrid:
        res.metadata["claim"] = (
            "flat-row grid: every placement is a level drawing, and the "
            "ordering oracle excludes those on any parallel rows" if res.note
            else "no placement over the supplied grid (not a continuum proof)")
    return res


# --- .slt level-tree format -----------------------------------------------

def dump_level_tree(t: LevelTree, rs: Optional[RegionSystem] = None) -> str:
    lines = [f"slt 1 {t.tree.n} {t.k}", _tree_record(t.tree)]
    lines.append("phi " + " ".join(str(x) for x in t.phi))
    if rs is not None:
        for ln in rs.lines:
            lines.append(f"lines {ln.A} {ln.B} {ln.C}")
    return "\n".join(lines) + "\n"


def _line(rest: str) -> Line:
    return Line(*_rationals("lines", rest, "lines <A> <B> <C>"))


def load_level_tree(text: str):
    """Parse an .slt document into (LevelTree, Optional[RegionSystem])."""
    (_, k), (parent, phi, region_lines) = _records(
        text, "slt 1 <n> <k>", {"tree": _parse_tree, "phi": _ints, "lines": _line},
        required=("tree", "phi"), repeated=("lines",))
    lt = LevelTree.of(RootedTree.from_parent(parent), phi)
    if lt.k != k or len(region_lines) not in (0, k):
        raise FormatError("level or lines count disagrees with header")
    rs = RegionSystem.of(region_lines) if region_lines else None
    return lt, rs
