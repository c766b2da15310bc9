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
_CODE_BY_ROLE = {r: r.value for r in Role}  # faster than Enum.value


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree on 0..n-1, valid by construction (else FormatError):
    `root` is the one None in `parent`, every other parent is a vertex, and
    parents lead from every vertex to the root.  depth[v] is computed once."""
    n: int
    parent: tuple  # parent[v] is None for the root
    root: VertexId
    labels: tuple = ()  # Role per vertex, optional
    depth: tuple = field(init=False, repr=False, compare=False)  # depth[v]

    def __post_init__(self):
        n, parent = self.n, self.parent
        if (n != len(parent) or parent.count(None) != 1
                or parent.index(None) != self.root):
            roots = [v for v, p in enumerate(parent) if p is None]
            raise FormatError(f"expected one root and {n} parents, got roots"
                              f" {roots[:3]} and {len(parent)} parents")
        depth = [-1] * n  # -1 unseen, -2 on the chain being walked
        depth[self.root] = 0
        for v, u in enumerate(parent):
            if u is not None and 0 <= u < n and depth[u] >= 0:
                depth[v] = depth[u] + 1  # the common case: parent seen
                continue
            chain, u = [], v
            while depth[u] == -1:
                depth[u] = -2
                chain.append(u)
                u = parent[u]
                if not 0 <= u < n or depth[u] == -2:
                    raise FormatError("parent relation is not a rooted tree")
            for d, w in enumerate(reversed(chain), depth[u] + 1):
                depth[w] = d
        object.__setattr__(self, "depth", tuple(depth))

    @staticmethod
    def from_parent(parent: Sequence[Optional[VertexId]],
                    labels: Optional[Sequence[Role]] = None) -> "RootedTree":
        root = parent.index(None) if None in parent else None
        return RootedTree(len(parent), tuple(parent), root,
                          tuple(labels) if labels else ())

    def depths(self) -> dict[VertexId, int]:
        return dict(enumerate(self.depth))

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


def validate_instance(i: Instance) -> ValidationReport:
    """Check that the path is simple, spans the tree (valid by construction)
    and, when required, shares no edge ab with it: parent[a] == b or
    parent[b] == a.  Violations are reported, never thrown."""
    rep = ValidationReport()
    t, order = i.tree, i.path.order
    vertices = set(order)
    if len(vertices) != len(order):
        rep.add("path not simple")
    if vertices != set(range(t.n)):
        rep.add("path does not span the vertex set")
    if i.edge_disjoint_required:
        par, n = t.parent, t.n
        shared = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])
                  if 0 <= a < n and 0 <= b < n and (par[a] == b or par[b] == a)}
        for e in sorted(shared):
            rep.add(f"shared edge {e}")
    return rep


def tree_depth(t: RootedTree) -> int:
    """Maximum root-to-vertex distance (bends along root paths = depth - 1)."""
    return max(t.depth)


# --- .sge instance format -------------------------------------------------

def dump_instance(i: Instance) -> str:
    lines = [f"sge 1 {i.tree.n}"]
    lines.append("tree " + " ".join(
        "-" if p is None else str(p) for p in i.tree.parent))
    lines.append("path " + " ".join(str(v) for v in i.path.order))
    if i.tree.labels:
        lines.append("roles " + "".join(map(_CODE_BY_ROLE.__getitem__, i.tree.labels)))
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
                labels = list(map(_ROLE_BY_CODE.__getitem__, codes))
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
