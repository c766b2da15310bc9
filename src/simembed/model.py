"""Trees, paths, shared instances, drawings, and their file formats."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .geom import Point

VertexId = int


class Role(Enum):
    Root = "R"
    Joint = "J"
    Stabilizer = "S"
    B1 = "1"
    B2 = "2"
    B3 = "3"
    Other = "O"


_ROLE_BY_CODE = {r.value: r for r in Role}


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class RootedTree:
    n: int
    parent: tuple  # parent[v] is None for the root
    root: VertexId
    labels: tuple = ()  # Role per vertex, optional

    @staticmethod
    def from_parent(parent: Sequence[Optional[VertexId]],
                    labels: Optional[Sequence[Role]] = None) -> "RootedTree":
        roots = [v for v, p in enumerate(parent) if p is None]
        if len(roots) != 1:
            raise FormatError(f"expected exactly one root, got {len(roots)}")
        t = RootedTree(len(parent), tuple(parent), roots[0],
                       tuple(labels) if labels else ())
        t._check_acyclic()
        return t

    def _check_acyclic(self):
        depth = self.depths()  # raises on cycles / bad parents
        if len(depth) != self.n:
            raise FormatError("tree not connected")

    def depths(self) -> dict[VertexId, int]:
        depth = {self.root: 0}
        for v in range(self.n):
            chain = []
            u = v
            while u not in depth:
                chain.append(u)
                u = self.parent[u]
                if u is None or not (0 <= u < self.n) or len(chain) > self.n:
                    raise FormatError("parent relation is not a rooted tree")
            d = depth[u]
            for w in reversed(chain):
                d += 1
                depth[w] = d
        return depth

    @cached_property
    def _kids(self) -> tuple[tuple[VertexId, ...], ...]:
        # built on the first children() call, not at construction; tuples,
        # so that every leaf shares the one empty tuple
        kids: list[list[VertexId]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return tuple(map(tuple, kids))

    def children(self, v: VertexId) -> list[VertexId]:
        return list(self._kids[v])

    def preorder(self) -> list[VertexId]:
        """Depth-first order, each parent before its children, children in
        increasing id order."""
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self._kids[v]))
        return order

    def edges(self) -> list[tuple[VertexId, VertexId]]:
        return [(self.parent[v], v) for v in range(self.n) if self.parent[v] is not None]

    def role(self, v: VertexId) -> Role:
        return self.labels[v] if self.labels else Role.Other


@dataclass(frozen=True)
class PathGraph:
    order: tuple

    @staticmethod
    def of(order: Sequence[VertexId]) -> "PathGraph":
        return PathGraph(tuple(order))

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> list[tuple[VertexId, VertexId]]:
        return [(self.order[i], self.order[i + 1]) for i in range(len(self.order) - 1)]


@dataclass(frozen=True)
class Instance:
    tree: RootedTree
    path: PathGraph
    edge_disjoint_required: bool = False


@dataclass(frozen=True)
class Drawing:
    pos: dict  # VertexId -> Point

    def __post_init__(self):
        if len(set(self.pos.values())) != len(self.pos):
            raise FormatError("drawing is not injective")

    def point(self, v: VertexId) -> Point:
        if v not in self.pos:
            raise FormatError(f"vertex {v} is not drawn")
        return self.pos[v]


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, msg: str):
        self.violations.append(msg)


def _edge_set(edges) -> set[frozenset]:
    return {frozenset(e) for e in edges}


def validate_instance(i: Instance) -> ValidationReport:
    """Total structural check; violations are reported, never thrown."""
    rep = ValidationReport()
    t, p = i.tree, i.path
    try:
        RootedTree.from_parent(t.parent, t.labels or None)
    except FormatError as e:
        rep.add(f"tree invalid: {e}")
    if len(set(p.order)) != len(p.order):
        rep.add("path not simple")
    if set(p.order) != set(range(t.n)):
        rep.add("path does not span the vertex set")
    if i.edge_disjoint_required:
        shared = _edge_set(t.edges()) & _edge_set(p.edges())
        for e in sorted(tuple(sorted(s)) for s in shared):
            rep.add(f"shared edge {e}")
    return rep


def tree_depth(t: RootedTree) -> int:
    """Maximum root-to-vertex distance (bends along root paths = depth - 1)."""
    return max(t.depths().values())


# --- .sge instance format -------------------------------------------------

def dump_instance(i: Instance) -> str:
    lines = [f"sge 1 {i.tree.n}"]
    lines.append("tree " + " ".join(
        "-" if p is None else str(p) for p in i.tree.parent))
    lines.append("path " + " ".join(str(v) for v in i.path.order))
    if i.tree.labels:
        lines.append("roles " + "".join(r.value for r in i.tree.labels))
    return "\n".join(lines) + "\n"


def load_instance(text: str, edge_disjoint_required: bool = False) -> Instance:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].startswith("sge 1 "):
        raise FormatError("missing 'sge 1 <n>' header")
    n = int(lines[0].split()[2])
    parent = None
    order = None
    labels = None
    for ln in lines[1:]:
        tag, _, rest = ln.partition(" ")
        if tag == "tree":
            parent = [None if tok == "-" else int(tok) for tok in rest.split()]
        elif tag == "path":
            order = [int(tok) for tok in rest.split()]
        elif tag == "roles":
            codes = rest.replace(" ", "")
            try:
                labels = [_ROLE_BY_CODE[c] for c in codes]
            except KeyError as e:
                raise FormatError(f"unknown role code {e.args[0]!r}") from None
        else:
            raise FormatError(f"unknown record {tag!r}")
    if parent is None or order is None:
        raise FormatError("tree and path records are required")
    if len(parent) != n or len(order) != n or (labels is not None
                                               and len(labels) != n):
        raise FormatError("record length disagrees with header")
    if set(order) != set(range(n)):
        raise FormatError("path record must list each vertex 0..n-1 once")
    tree = RootedTree.from_parent(parent, labels)
    return Instance(tree, PathGraph.of(order), edge_disjoint_required)


# --- .sgd drawing format --------------------------------------------------

def dump_drawing(d: Drawing) -> str:
    lines = [f"sgd 1 {len(d.pos)}"]
    for v in sorted(d.pos):
        p = d.pos[v]
        lines.append(f"{v} {p.x.numerator}/{p.x.denominator}"
                     f" {p.y.numerator}/{p.y.denominator}")
    return "\n".join(lines) + "\n"


def load_drawing(text: str) -> Drawing:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].startswith("sgd 1 "):
        raise FormatError("missing 'sgd 1 <n>' header")
    n = int(lines[0].split()[2])
    pos = {}
    for ln in lines[1:]:
        vid, xs, ys = ln.split()
        try:
            pos[int(vid)] = Point(Fraction(xs), Fraction(ys))
        except ZeroDivisionError:
            raise FormatError(f"zero denominator in {ln!r}") from None
    if len(pos) != n:
        raise FormatError("vertex count disagrees with header")
    return Drawing(pos)
