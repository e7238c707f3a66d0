"""Bounded explicit expansion of the one- and two-sided trees.

Rows materialize the words ``mu^level(b) | mu^level(a)`` node by node.
The expansion doubles as the visual artifact (DOT/TSV output) and as the
independent oracle for representations: a path to the earliest suitable
level is read off the materialized rows instead of the arithmetic
descent used by ``numeration.rep``.

Level convention: the seed row is level 0, one level per application of
the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import NumerationSystem
from .errors import CapExceededError, SideMissingError
from .numeration import DigitWord

DEFAULT_NODE_CAP = 10**6


@dataclass(frozen=True)
class TreeNode:
    column: int
    letter: str
    parent: Optional[int]  # index into the previous row; None on the seed row
    edge: Optional[int]  # digit labeling the edge from the parent


@dataclass(frozen=True)
class TreeSlice:
    """Rows 0..depth of the tree; each row is ordered by column."""

    levels: tuple[tuple[TreeNode, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def row_letters(self, level: int) -> tuple[str, ...]:
        return tuple(node.letter for node in self.levels[level])

    def node_count(self) -> int:
        return sum(len(row) for row in self.levels)


class ExpansionOracle:
    """Grows tree rows on demand under a node cap; rows are cached.

    Shared machinery behind :func:`expand` and :func:`oracle_rep`; keep an
    instance around to trace many representations off one expansion.
    """

    def __init__(self, ns: NumerationSystem, cap: int = DEFAULT_NODE_CAP):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.ns = ns
        self.cap = cap
        row0 = []
        if ns.left is not None:
            row0.append(TreeNode(-1, ns.left, None, None))
        if ns.right is not None:
            row0.append(TreeNode(0, ns.right, None, None))
        self._rows: list[tuple[TreeNode, ...]] = [tuple(row0)]
        self._nodes = len(row0)

    def row(self, level: int) -> tuple[TreeNode, ...]:
        while len(self._rows) <= level:
            self._grow()
        return self._rows[level]

    def _grow(self) -> None:
        sub = self.ns.substitution
        prev = self._rows[-1]
        children: list[tuple[str, int, int]] = []  # (letter, parent index, edge)
        left_count = 0
        for idx, node in enumerate(prev):
            im = sub.image(node.letter)
            if node.column < 0:
                left_count += len(im)
            for d, letter in enumerate(im):
                children.append((letter, idx, d))
        if self._nodes + len(children) > self.cap:
            raise CapExceededError(
                f"expansion would exceed the node cap ({self.cap})"
            )
        row = tuple(
            TreeNode(pos - left_count, letter, parent, edge)
            for pos, (letter, parent, edge) in enumerate(children)
        )
        self._rows.append(row)
        self._nodes += len(row)

    def slice(self, depth: int) -> TreeSlice:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.row(depth)
        return TreeSlice(tuple(self._rows[: depth + 1]))

    def rep(self, n: int) -> DigitWord:
        """Path label to the earliest level (in the residue class) whose row
        contains column ``n``; sign digit from the side of the column."""
        ns = self.ns
        if n >= 0 and ns.right is None:
            raise SideMissingError("system has no right seed: cannot represent n >= 0")
        if n < 0 and ns.left is None:
            raise SideMissingError("system has no left seed: cannot represent n < 0")
        k = ns.residue
        while True:
            row = self.row(k)
            left_width = -row[0].column if row[0].column < 0 else 0
            if n >= 0:
                if n < len(row) - left_width:
                    break
            elif -n <= left_width:
                break
            k += ns.period
        idx = left_width + n
        digits = []
        for level in range(k, 0, -1):
            node = self._rows[level][idx]
            digits.append(node.edge)
            idx = node.parent
        digits.reverse()
        return DigitWord(tuple(digits), 0 if n >= 0 else 1)


def expand(ns: NumerationSystem, depth: int, cap: int = DEFAULT_NODE_CAP) -> TreeSlice:
    """Rows 0..depth of the tree of ``ns``; row ``l`` spells mu^l(b)|mu^l(a)."""
    return ExpansionOracle(ns, cap).slice(depth)


def oracle_rep(ns: NumerationSystem, n: int, cap: int = DEFAULT_NODE_CAP) -> DigitWord:
    """Representation by exhaustive expansion; agrees with ``numeration.rep``."""
    return ExpansionOracle(ns, cap).rep(n)


def to_dot(slice_: TreeSlice) -> str:
    """Deterministic Graphviz text; node ids ``L<level>C<column>``."""
    out = ["digraph tree {", "  node [shape=box];"]
    for level, row in enumerate(slice_.levels):
        for node in row:
            out.append(f'  "L{level}C{node.column}" [label="{node.letter}"];')
    for level in range(1, len(slice_.levels)):
        prev = slice_.levels[level - 1]
        for node in slice_.levels[level]:
            parent = prev[node.parent]
            out.append(
                f'  "L{level - 1}C{parent.column}" -> "L{level}C{node.column}"'
                f' [label="{node.edge}"];'
            )
    out.append("}")
    return "\n".join(out) + "\n"


def to_tsv(slice_: TreeSlice) -> str:
    """Flat dump: one node per line with level, column, letter, parent edge."""
    out = ["level\tcolumn\tletter\tparent_edge"]
    for level, row in enumerate(slice_.levels):
        for node in row:
            edge = "" if node.edge is None else str(node.edge)
            out.append(f"{level}\t{node.column}\t{node.letter}\t{edge}")
    return "\n".join(out) + "\n"
