"""Trees, paths, shared instances, drawings, and their file formats."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, pairwise
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .geom import Point, int_coords

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
# the code of a Role: reads the member's attribute, where Enum.value goes
# through a Python-level property and a dict lookup hashes through
# Enum.__hash__
_role_code = attrgetter("_value_")


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

    def center(self) -> tuple[VertexId, int]:
        """(c, radius): c is the least-id vertex of least eccentricity,
        and that eccentricity is the radius.  The deepest vertex a ends a
        longest path, a breadth-first walk from a ends at its other end
        b, and the centers are the one or two middle vertices of the path
        from b to a."""
        a = self.depth.index(max(self.depth))
        via, order = [-1] * self.n, [a]
        via[a] = a
        for v in order:
            for w in self._kids[v] + (self.parent[v],):
                if w is not None and via[w] < 0:
                    via[w] = v
                    order.append(w)
        path = [order[-1]]
        while path[-1] != a:
            path.append(via[path[-1]])
        k = len(path) - 1
        return min(path[k // 2], path[k - k // 2]), (k + 1) // 2

    def rerooted(self, r: VertexId) -> "RootedTree":
        """The same vertices, edges and labels, rooted at r: the parent
        links on the path from r to the old root turn around."""
        parent, prev, v = list(self.parent), None, r
        while v is not None:
            parent[v], prev, v = prev, v, self.parent[v]
        return RootedTree.from_parent(parent, self.labels)

    def role(self, v: VertexId) -> Role:
        return self.labels[v] if self.labels else Role.Other


@dataclass(frozen=True)
class PathGraph:
    order: tuple

    @staticmethod
    def of(order: Sequence[VertexId]) -> "PathGraph":
        return PathGraph(tuple(order))

    def edges(self) -> list[tuple[VertexId, VertexId]]:
        return [(self.order[i], self.order[i + 1]) for i in range(len(self.order) - 1)]


@dataclass(frozen=True)
class Instance:
    tree: RootedTree
    path: PathGraph
    edge_disjoint_required: bool = False


class _Drawn(dict):
    """Vertex -> integer point; an undrawn vertex is a FormatError."""

    def __missing__(self, v):
        raise FormatError(f"vertex {v} is not drawn")


@dataclass(frozen=True)
class Drawing:
    """Vertex -> Point, injective and immutable: `pos` is a read-only
    copy of the mapping it is built from.  ints[v] is v's point with the
    whole drawing's denominators cleared by one int_coords call when it
    is built; the drawing is injective exactly when that table is."""
    pos: Mapping  # VertexId -> Point
    ints: dict = field(init=False, repr=False, compare=False)  # VertexId -> (int, int)

    def __post_init__(self):
        pos = MappingProxyType(dict(self.pos))
        ints = _Drawn(zip(pos, int_coords(pos.values())))
        if len(set(ints.values())) != len(ints):
            raise FormatError("drawing is not injective")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "ints", ints)

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


def _permutation_faults(order: Sequence, n: int) -> tuple[bool, bool]:
    """Whether `order` repeats an entry, and whether its entries as a set
    differ from 0..n-1: what comparing set(order) with set(range(n))
    tells, read from an n-byte mark per vertex instead of two sets.  An
    entry outside 0..n-1 (a negative one would wrap around the mark) sends
    the answer to those two sets, since the order is invalid anyway."""
    seen = bytearray(n)
    try:
        for v in order:
            seen[v] = 1
        if order and min(order) < 0:
            raise IndexError
    except (IndexError, TypeError):
        vertices = set(order)
        return len(vertices) != len(order), vertices != set(range(n))
    distinct = n - seen.count(0)
    return distinct != len(order), distinct != n


def validate_instance(i: Instance) -> ValidationReport:
    """Check that the path is simple, spans the tree (valid by construction)
    and, when required, shares no edge ab with it: parent[a] == b or
    parent[b] == a.  Violations are reported, never thrown.  The
    permutation test takes n bytes of working memory on a valid path."""
    rep = ValidationReport()
    t, order = i.tree, i.path.order
    repeated, unspanned = _permutation_faults(order, t.n)
    if repeated:
        rep.add("path not simple")
    if unspanned:
        rep.add("path does not span the vertex set")
    if i.edge_disjoint_required:
        par, n = t.parent, t.n
        shared = {(min(a, b), max(a, b)) for a, b in pairwise(order)
                  if 0 <= a < n and 0 <= b < n and (par[a] == b or par[b] == a)}
        for e in sorted(shared):
            rep.add(f"shared edge {e}")
    return rep


# --- the line grammar of .sge, .sgd and .slt -------------------------------

# a long record is read and written this many tokens at a time, so that
# no list of one string per token of the whole record is ever made
_RUN = 1024


def _token_runs(rest: str):
    """rest.split() in lists of _RUN tokens but the last, each split off
    what the previous one left."""
    toks = rest.split(None, _RUN)
    while len(toks) > _RUN:
        rest = toks.pop()
        yield toks
        toks = rest.split(None, _RUN)
    yield toks


def _tokens(rest: str):
    """rest.split(), as an iterator over its runs."""
    return chain.from_iterable(_token_runs(rest))


def _rows(text: str, header: str):
    """Skip blank lines and `#` comments, check that the first row is
    `header` with an integer in place of each `<field>`, and return those
    integers and an iterator over the other rows, stripped."""
    rows = (ln for ln in map(str.strip, text.splitlines())
            if ln and ln[0] != "#")
    got, want = next(rows, "").split(), header.split()
    if len(got) != len(want) or got[:2] != want[:2]:
        raise FormatError(f"missing '{header}' header")
    try:
        return [int(tok) for tok in got[2:]], rows
    except ValueError:
        raise FormatError(f"missing '{header}' header") from None


def _split(row: str) -> tuple[str, str]:
    """A row's tag and the rest of it."""
    return (*row.split(None, 1), "")[:2]


def _records(text: str, header: str, parsers: dict, required: tuple,
             repeated=()) -> tuple[list[int], list]:
    """Read a `_rows` document whose tags are the keys of `parsers`: return
    the header integers and each tag's parsed value, None if absent (for a
    tag in `repeated`, the list of its values).  An unknown tag, a second
    record of a tag not in `repeated`, a missing required tag, a token
    that a parser's int() cannot read and a record not in `repeated`
    whose length is not the header's first integer are FormatErrors."""
    fields, rows = _rows(text, header)
    values = {tag: [] for tag in repeated}
    for tag, rest in map(_split, rows):
        if tag not in parsers:
            raise FormatError(f"unknown record {tag!r}")
        if tag not in repeated and tag in values:
            raise FormatError(f"repeated record {tag!r}")
        try:
            value = parsers[tag](rest)
        except ValueError as e:
            if type(e) is not ValueError:  # a FormatError or GeometryError
                raise
            raise FormatError(f"record {tag!r}: {e}") from None  # from int()
        if tag in repeated:
            values[tag].append(value)
        else:
            values[tag] = value
    if not all(tag in values for tag in required):
        raise FormatError(" and ".join(required) + " records are required")
    if any(len(values[tag]) != fields[0] for tag in values if tag not in repeated):
        raise FormatError("record length disagrees with header")
    return fields, [values.get(tag) for tag in parsers]


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rationals(tag: str, rest: str, form: str) -> list[Fraction]:
    """The exact rationals after `tag` in a row of the form `form`, each
    written -?digits(/digits)?, as the dump functions write them, and
    each built from its integers by one Fraction call."""
    toks = rest.split()
    found = list(map(_RATIONAL.fullmatch, toks))
    if len(toks) != form.count(" ") or not all(found):
        raise FormatError(f"expected '{form}' with each number -?digits(/digits)?,"
                          f" got {tag + ' ' + rest!r}")
    try:
        return [Fraction(int(num), int(den)) if den else Fraction(int(num))
                for num, den in (f.groups() for f in found)]
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {tag + ' ' + rest!r}") from None


# the parsers return tuples, which RootedTree and PathGraph keep uncopied

def _ints(rest: str) -> tuple[int, ...]:
    return tuple(map(int, _tokens(rest)))


def _parse_tree(rest: str) -> tuple[Optional[VertexId], ...]:
    """The parent tuple of a `tree` record, `-` marking the root."""
    return tuple(None if tok == "-" else int(tok) for tok in _tokens(rest))


def _record(tag: str, xs: Sequence, word=str) -> str:
    """`tag` and word(x) for each x, space-separated, joined _RUN words at
    a time."""
    return tag + " " + " ".join([" ".join(map(word, xs[k:k + _RUN]))
                                 for k in range(0, len(xs), _RUN)])


def _tree_record(t: RootedTree) -> str:
    return _record("tree", t.parent, lambda p: "-" if p is None else str(p))


# --- .sge instance format -------------------------------------------------

def dump_instance(i: Instance) -> str:
    lines = [f"sge 1 {i.tree.n}", _tree_record(i.tree), _record("path", i.path.order)]
    if i.tree.labels:
        lines.append("roles " + "".join(map(_role_code, i.tree.labels)))
    return "\n".join(lines + [""])


def _roles(rest: str) -> tuple[Role, ...]:
    try:
        return tuple(map(_ROLE_BY_CODE.__getitem__, "".join(rest.split())))
    except KeyError as e:
        raise FormatError(f"unknown role code {e.args[0]!r}") from None


def load_instance(text: str, edge_disjoint_required: bool = False) -> Instance:
    """Parse an .sge document.  The path record must be a permutation of
    0..n-1, a test that takes n bytes of working memory."""
    (n,), (parent, order, labels) = _records(
        text, "sge 1 <n>", {"tree": _parse_tree, "path": _ints, "roles": _roles},
        required=("tree", "path"))
    if any(_permutation_faults(order, n)):
        raise FormatError("path record must list each vertex 0..n-1 once")
    tree = RootedTree.from_parent(parent, labels)
    return Instance(tree, PathGraph.of(order), edge_disjoint_required)


# --- .sgd drawing format --------------------------------------------------

def dump_drawing(d: Drawing) -> str:
    lines = [f"sgd 1 {len(d.pos)}"] + [
        f"{v} {p.x.numerator}/{p.x.denominator} {p.y.numerator}/{p.y.denominator}"
        for v, p in sorted(d.pos.items())]
    return "\n".join(lines) + "\n"


# a row as dump_drawing writes it: id, then x and y as -?digits(/digits)?
_DRAWN = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+)(?:/([0-9]+))?\s+(-?[0-9]+)(?:/([0-9]+))?")


def _point(m: re.Match) -> Point:
    """The point of a row that _DRAWN matched."""
    _, xn, xd, yn, yd = m.groups()
    try:
        return Point(Fraction(int(xn), int(xd)) if xd else Fraction(int(xn)),
                     Fraction(int(yn), int(yd)) if yd else Fraction(int(yn)))
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {' '.join(_split(m.string))!r}") from None


def load_drawing(text: str) -> Drawing:
    """Parse an .sgd document.  A row as dump_drawing writes it is read
    by one _DRAWN match; any other row (an id that int() reads in another
    spelling, or a malformed row) token by token, which names the fault."""
    (n,), rows = _rows(text, "sgd 1 <n>")
    pos = {}
    for row in rows:
        m = _DRAWN.fullmatch(row)
        vid, rest = _split(row) if m is None else (m[1], "")
        try:
            v = int(vid)  # as an integer, so that 1 and 01 name one vertex
        except ValueError as e:
            raise FormatError(f"record {vid!r}: {e}") from None
        if v in pos:
            raise FormatError(f"repeated record for vertex {v}")
        pos[v] = _point(m) if m else Point(*_rationals(vid, rest, "<id> <x> <y>"))
    if len(pos) != n:
        raise FormatError("vertex count disagrees with header")
    return Drawing(pos)
