"""Bounded explicit expansion of the one- and two-sided trees.

Rows hold the words ``mu^level(b) | mu^level(a)`` as parallel index
lists. The expansion doubles as the visual artifact (DOT/TSV output) and
as the independent oracle for representations: a path to the earliest
suitable level is read off the expanded rows instead of the arithmetic
descent used by ``numeration.rep``.

Level convention: the seed row is level 0, one level per application of
the substitution.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, count, repeat
from typing import NamedTuple, Optional

from .core import NumerationSystem, _Record
from .errors import CapExceededError, SideMissingError
from .numeration import DigitWord, _word

DEFAULT_NODE_CAP = 10**6


class TreeNode(NamedTuple):
    column: int
    letter: str
    parent: Optional[int]  # index into the previous row; None on the seed row
    edge: Optional[int]  # digit labeling the edge from the parent


# builds a node from a 4-tuple in C, without NamedTuple's Python-level __new__
_node_from_tuple = partial(tuple.__new__, TreeNode)


class TreeSlice(_Record):
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

    Level ``k`` is kept as three parallel lists, indexed by position in
    the row: letter indices into the alphabet, the parent's position in
    row ``k - 1`` and the digit on the edge from it (``None`` for both on
    the seed row), plus the number of nodes left of column 0. The node at
    position ``i`` sits at column ``i - left``. :class:`TreeNode` objects
    are built only by :meth:`row` and :meth:`slice`, for the rows asked
    for. :meth:`rep` reads the lists alone: it calls neither the descent
    in ``numeration`` nor the length table, and only builds its word with
    ``numeration._word``.
    """

    def __init__(self, ns: NumerationSystem, cap: int = DEFAULT_NODE_CAP):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.ns = ns
        self.cap = cap
        sub = ns.substitution
        seed = [sub.letter_index(x) for x in (ns.left, ns.right) if x is not None]
        self._letters: list[list[int]] = [seed]
        self._parents: list[list[Optional[int]]] = [[None] * len(seed)]
        self._edges: list[list[Optional[int]]] = [[None] * len(seed)]
        self._lefts: list[int] = [0 if ns.left is None else 1]
        self._nodes = len(seed)

    def _reach(self, level: int) -> None:
        while len(self._letters) <= level:
            self._grow()

    def _grow(self) -> None:
        images = self.ns.substitution.image_idx
        widths = [len(im) for im in images]
        digits = [range(w) for w in widths]
        prev = self._letters[-1]
        row_widths = [widths[x] for x in prev]
        if self._nodes + sum(row_widths) > self.cap:
            raise CapExceededError(
                f"expansion would exceed the node cap ({self.cap})"
            )
        # children in column order; a parent's index object is shared by
        # all its children
        self._letters.append(list(chain.from_iterable(map(images.__getitem__, prev))))
        self._parents.append(list(chain.from_iterable(map(repeat, range(len(prev)), row_widths))))
        self._edges.append(list(chain.from_iterable(map(digits.__getitem__, prev))))
        self._lefts.append(sum(row_widths[: self._lefts[-1]]))
        self._nodes += len(self._letters[-1])

    def row(self, level: int) -> tuple[TreeNode, ...]:
        """The nodes of row ``level``, built afresh on every call."""
        self._reach(level)
        alphabet = self.ns.substitution.alphabet
        fields = zip(
            count(-self._lefts[level]),
            map(alphabet.__getitem__, self._letters[level]),
            self._parents[level],
            self._edges[level],
        )
        return tuple(map(_node_from_tuple, fields))

    def slice(self, depth: int) -> TreeSlice:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self._reach(depth)
        return TreeSlice(tuple(self.row(level) for level in range(depth + 1)))

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
            self._reach(k)
            left = self._lefts[k]
            if n >= 0:
                if n < len(self._letters[k]) - left:
                    break
            elif -n <= left:
                break
            k += ns.period
        idx = left + n
        digits = []
        for level in range(k, 0, -1):
            digits.append(self._edges[level][idx])
            idx = self._parents[level][idx]
        digits.reverse()
        return _word(tuple(digits), 0 if n >= 0 else 1)


def expand(ns: NumerationSystem, depth: int, cap: int = DEFAULT_NODE_CAP) -> TreeSlice:
    """Rows 0..depth of the tree of ``ns``; row ``l`` spells mu^l(b)|mu^l(a)."""
    return ExpansionOracle(ns, cap).slice(depth)


def oracle_rep(ns: NumerationSystem, n: int, cap: int = DEFAULT_NODE_CAP) -> DigitWord:
    """Representation by exhaustive expansion; agrees with ``numeration.rep``."""
    return ExpansionOracle(ns, cap).rep(n)


class _DotLabels(dict):
    """letter -> ``[label=...]`` tail of its node line, the letter quoted
    as a DOT string (``\\`` and ``"`` escaped)."""

    def __missing__(self, letter: str) -> str:
        quoted = letter.replace("\\", "\\\\").replace('"', '\\"')
        tail = self[letter] = f' [label="{quoted}"];'
        return tail


def to_dot(slice_: TreeSlice) -> str:
    """Deterministic Graphviz text; node ids ``L<level>C<column>``.

    Every node line comes first, then every edge line, each in level and
    column order.
    """
    out = ["digraph tree {", "  node [shape=box];"]
    edges: list[str] = []
    labels = _DotLabels()
    above: list[str] = []  # node ids of the previous level only
    for level, row in enumerate(slice_.levels):
        ids = []
        prefix = f'"L{level}C'
        for column, letter, parent, edge in row:
            node_id = f'{prefix}{column}"'
            ids.append(node_id)
            out.append(f"  {node_id}{labels[letter]}")
            if level:
                edges.append(f'  {above[parent]} -> {node_id} [label="{edge}"];')
        above = ids
    out.extend(edges)
    out.append("}")
    out.append("")  # a final newline without a second copy of the text
    return "\n".join(out)


def to_tsv(slice_: TreeSlice) -> str:
    """Flat dump: one node per line with level, column, letter, parent edge."""
    out = ["level\tcolumn\tletter\tparent_edge"]
    for level, row in enumerate(slice_.levels):
        prefix = f"{level}\t"
        for column, letter, _, edge in row:
            out.append(f"{prefix}{column}\t{letter}\t{'' if edge is None else edge}")
    out.append("")  # a final newline without a second copy of the text
    return "\n".join(out)
