"""Substitution algebra: parsing, validation, exact growth data, and seeds.

Letters are strings: single characters in the compact rule form
(``a->abc``), arbitrary identifiers in the spaced form (``a1 -> b a1``).
All image lengths are plain Python integers, so iterated lengths stay
exact at any depth; no string ``mu^k(a)`` is ever materialized by the
counting machinery.
"""

from __future__ import annotations

import math
import re
import sys
import threading
from bisect import bisect_left
from collections import Counter
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from operator import attrgetter, itemgetter, mul
from typing import Iterable, Literal, Optional, Sequence, Union

from .errors import (
    DigitCapExceededError,
    DslSyntaxError,
    EmptyImageError,
    InvalidSeedError,
    NoGrowingLetterError,
    UnknownLetterError,
)

Domain = Literal["N", "Zneg", "Z"]

DOMAINS: tuple[Domain, ...] = ("N", "Zneg", "Z")

# a letter name: no whitespace, no separator of rules, sides or digits, no "->"
_NAME_RE = re.compile(r"(?:(?!->)[^\s,;|.])+")


# an entry of more terms than this is summed by one ``sum`` call: the
# compiler recurses once per ``+``, so a chain of 10,000 terms overflows its stack
_MAX_INLINE_TERMS = 32

# the highest level a length table grows to: a word has one digit per
# level, so a longer answer, such as the 10^60 digits of 10^60 on the
# polynomially growing a->ab,b->b, is refused instead of built
_MAX_LEVEL = 10**6

# the stored rows of a table hold at most about this many bits (512 KiB);
# above them the table keeps one checkpoint row every ``_SPAN`` levels, and
# reads of the levels between two checkpoints start from the lower one.
# Stored rows pay only where one table is read many times: the store closes
# at level 1023 on eight letters (values up to about 10^308) and at 1535 on
# a->abc,b->c,c->ac (about 10^527), so round trips up to 10^300 read no
# block. Half this budget closes the eight-letter store at level 767, below
# 10^300, which made such round trips about 18% slower; twice it stores rows
# that cold searches past the store do not read again, and raised the
# benchmark's peak memory by 3-14%
_STORE_BITS = 2**22
# the checkpoints hold at most about this many bits (64 MiB): past it every
# other one is dropped and the span doubles
_CHECKPOINT_BITS = 2**29
_SPAN = 128
# a climb or a read above the stored rows keeps only the rows it needs, so
# one call of the row-step kernel builds at most about this many bits of
# rows (128 KiB), plus one row: they are all held until the call returns
_BLOCK_BITS = 2**20

# the bits of one digit of a Python integer: a product of a big integer by
# one of d digits makes about d passes over the big one
_DIGIT_BITS = sys.int_info.bits_per_digit

# the distinct image sets whose generated code stays compiled: tables of
# equal images share their kernels, as ``re`` shares compiled patterns, and
# the least recently used set past this many is compiled again when next used
_KERNEL_CACHE = 128


def _shared_sums(
    image_idx: tuple[tuple[int, ...], ...]
) -> tuple[list[Counter], list[tuple[int, int]]]:
    """Row entries as multisets of terms, and the temporaries they share.

    Term ``y < n`` is letter ``y``'s entry in the row below; term ``n + i``
    is temporary ``i``, the sum of the pair ``temps[i]`` of earlier terms.
    Each round recounts every pair's disjoint occurrences over all
    entries; the pair with the most, the least such pair on a tie,
    becomes a temporary and replaces every occurrence, as long as it
    occurs twice or more: each occurrence past the first saves one big
    addition per level. Every round passes over all the pairs again, so
    compiling takes time quadratic in the number of distinct pairs.
    """
    n = len(image_idx)
    entries = [Counter(im) for im in image_idx]
    temps: list[tuple[int, int]] = []
    while True:
        uses: dict[tuple[int, int], int] = {}
        for entry in entries:
            for (a, i), (b, j) in combinations_with_replacement(sorted(entry.items()), 2):
                uses[a, b] = uses.get((a, b), 0) + (i // 2 if a == b else min(i, j))
        most = max(uses.values())
        if most < 2:
            return entries, temps
        u, v = pair = min(q for q, c in uses.items() if c == most)
        t = n + len(temps)
        temps.append(pair)
        for entry in entries:
            m = entry[u] // 2 if u == v else min(entry[u], entry[v])
            if m:
                entry[u] -= m
                entry[v] -= m
                entry[t] = m
                for x in (u, v):
                    if not entry[x]:
                        del entry[x]


def _sum_source(sums, names: list[str], temp: str) -> tuple[list[str], list[str]]:
    """Source of the sums ``(entries, temps)`` of ``_shared_sums``: one
    assignment per temporary, named ``temp`` and its number, and each
    entry's expression. Term ``y`` below the number of entries is
    ``names[y]``."""
    entries, temps = sums
    n = len(entries)
    names = names + [f"{temp}{i}" for i in range(len(temps))]
    assigns = [f"{names[n + i]} = {names[u]} + {names[v]}" for i, (u, v) in enumerate(temps)]

    def entry_source(entry: Counter) -> str:
        terms = [names[x] for x in sorted(entry, reverse=True) for _ in range(entry[x])]
        if not terms:  # only in the transposed step: a letter in no image
            return "0"
        if len(terms) <= _MAX_INLINE_TERMS:
            return " + ".join(terms)
        return f"sum(({', '.join(terms[1:])},), {terms[0]})"

    return assigns, [entry_source(entry) for entry in entries]


def _steps_source(image_idx: tuple[tuple[int, ...], ...], sums=None) -> str:
    """Source of ``steps(c, count)``, the row-step kernel: the ``count``
    rows from the row ``c`` up, ``c`` first. ``sums`` are the images'
    ``_shared_sums``, computed here when not given. The row lives in one
    local per letter, and each level builds one tuple.

    For ``a->abc,b->c,c->ac``::

        def steps(c, count):
            p0, p1, p2, = c
            rows = [c]
            add = rows.append
            for _ in range(count - 1):
                t0 = p0 + p2
                p0, p1, p2, = row = t0 + p1, p2, t0,
                add(row)
            return rows
    """
    m = len(image_idx)
    ps = "".join(f"p{y}, " for y in range(m)).rstrip()
    assigns, values = _sum_source(
        sums or _shared_sums(image_idx), [f"p{y}" for y in range(m)], "t"
    )
    lines = [
        "def steps(c, count):",
        f"    {ps} = c",
        "    rows = [c]",
        "    add = rows.append",
        "    for _ in range(count - 1):",
        *(f"        {line}" for line in assigns),
        f"        {ps} = row = {''.join(f'{v}, ' for v in values).rstrip()}",
        "        add(row)",
        "    return rows",
    ]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=_KERNEL_CACHE)
def _row_step(image_idx: tuple[tuple[int, ...], ...]):
    """The row-step kernel ``steps`` of the images (``_steps_source``) and
    the big additions one step makes, for ``_power_of``; compiled once per
    distinct image set and shared by every table of those images."""
    entries, temps = sums = _shared_sums(image_idx)
    adds = len(temps) + sum(sum(entry.values()) - 1 for entry in entries)
    return _compile(_steps_source(image_idx, sums))["steps"], adds


def _compile(source: str, **names) -> dict:
    """The namespace of ``source`` run with no builtins but ``sum``, ``range``
    and ``names``."""
    namespace = {"__builtins__": {}, "sum": sum, "range": range, **names}
    exec(source, namespace)
    return namespace


def _row_bits(row: Sequence[int]) -> int:
    return sum(map(int.bit_length, row))


def _fit(row: Sequence[int]) -> int:
    """The levels that one call of the row-step kernel may step up from
    ``row``: as many as keep the rows it builds within about ``_BLOCK_BITS``
    bits, counting each as ``row``'s letters times its longest entry's
    bits, and at least one."""
    return max(_BLOCK_BITS // (len(row) * max(row).bit_length()), 1)


def _times(matrix: list[list[int]], row: Sequence[int]) -> tuple[int, ...]:
    """The product ``matrix · row``, the matrix given by its rows."""
    return tuple([sum(map(mul, line, row)) for line in matrix])


class _LengthTable:
    """Grow-on-demand rows of ``|mu^level(x)|`` per letter index.

    Every row is stepped up from a row below by one kernel, generated from
    integer letter indices only (``_steps_source``) and shared by equal
    images through a bounded cache (``_row_step``): ``steps(c, count)``
    returns the ``count`` rows from ``c`` up, ``c`` first, keeping the row
    in one local per letter and building each level as one tuple. Entries
    share the partial sums that two or more of them need, so
    ``a->abc,b->c,c->ac`` takes 2 big additions per level, not 3, and a
    one-letter image's entry is the entry below it, shared, not copied.
    Rows are tuples of integers, which the cyclic collector stops tracking
    the first time it passes over them, so no later collection visits a
    stored row or a checkpoint again.

    Every new row and every checkpoint comes from one loop, ``_climb``,
    which moves up from the highest row computed (the front). Each turn
    jumps (below) or steps one block by one call of ``steps``: up to the
    next count level (``(level + 1) % _SPAN == 0``),
    in fewer levels where the span's rows would pass ``_BLOCK_BITS``
    (``_block``) or where a level search would more than double the
    front's rows. It bisects the block for its answer and keeps the rows
    up to it only. Rows are stored, appended fully built and never
    mutated, until they hold ``_STORE_BITS`` bits; a reader holding the
    list (from ``spans``) may index any level below its current length
    while another call grows it. Rows never shrink entrywise, so at every
    count level the newest row, times ``_SPAN``, bounds the bits of the
    rows it closes, and ``level`` finds its answer by bisection. The
    stored rows close when they reach the budget, and at no other time
    (``_count``), so a table's layout (stored rows, base, span,
    checkpoints) depends only on how high it has grown, not on the reads
    that grew it. The levels above them are streamed: the table keeps the
    front and a checkpoint row every ``span`` levels from the top stored
    row up. When the checkpoints pass ``_CHECKPOINT_BITS``, every other
    one is dropped and the span doubles. Rows satisfy
    ``row(j + 1) = M · row(j)``, where ``M[x][y]`` counts ``y`` in the
    image of ``x``, so a turn of ``_climb`` makes the next checkpoint by
    one jump, ``M^span`` times the top one (the power is cached and
    squared when the span doubles), wherever a jump costs less than
    stepping the span (``_power_of``), also when the front lies between
    the two. A jump past the climb's answer is dropped, and the levels
    below the answer are stepped. ``row`` recomputes a streamed row below the
    front by stepping up from the checkpoint below it (``_up``); ``level``
    bisects the checkpoints and then the one block it steps (``_scan``).
    ``spans`` recomputes none: it hands out the stored list and the
    checkpoints, and a reader steps a block's rows up from its checkpoint
    by ``block_rows``, shifted down to small integers, or exact to redo
    it. Memory is then at most the two budgets plus the rows of one
    block read: a block's shifted rows, or exact rows of at most about
    ``_BLOCK_BITS`` (``numeration._descend_blocks``).

    ``level``, ``row``, ``spans`` and ``block_rows`` are the only reads.
    ``level`` holds the lock for its whole search; ``row`` and ``spans``
    take it only for a level past the front, and climb inside it: the
    front only moves up, and is set only once every row and checkpoint
    below it is in place, or is itself the one checkpoint not yet
    appended. So threads growing one table at once append each level
    exactly once and share the checkpoints. Growth past ``_MAX_LEVEL``
    raises ``DigitCapExceededError``; reading built rows checks nothing.
    """

    __slots__ = (
        "_steps", "_adds", "_power", "_rows", "_bits", "_marks", "_front", "_lock",
    )

    def __init__(self, image_idx: tuple[tuple[int, ...], ...]):
        # the row-step kernel and the big additions of one step
        self._steps, self._adds = _row_step(image_idx)
        # (span, M^span, whether a jump pays), by ``_power_of``
        self._power: Optional[tuple[int, list[list[int]], Optional[bool]]] = None
        self._rows: list[tuple[int, ...]] = [(1,) * len(image_idx)]
        # the bits counted against a budget: the stored rows' until they
        # close, then the checkpoints'
        self._bits = 0
        # once the stored rows close: (base, span, checkpoints), checkpoint
        # i being the row at level base + i * span, and base the top stored level
        self._marks: Optional[tuple[int, int, list[tuple[int, ...]]]] = None
        self._front: tuple[int, tuple[int, ...]] = (0, self._rows[0])
        self._lock = threading.Lock()

    # -- growth, under the lock -------------------------------------------

    def _climb(self, k: int, p: int = 1, root: int = 0, need: int = 0) -> int:
        """Bring the front up to the least level ``>= k``, ``≡ k (mod p)``,
        whose ``root`` entry reaches ``need``, and return it; at or below
        the front it returns at once. Each turn either jumps or steps one
        block. It jumps when the next checkpoint lies at most at
        ``_MAX_LEVEL``, a jump pays (``_power_of``), and the jumped row,
        ``M^span`` times the top checkpoint, at or below the front, lies at
        most at ``k`` or its entry is still short of ``need``: that row
        becomes the front and the next checkpoint, and ``k`` is rounded up
        into its class past it. A jumped row that fails the test is
        dropped, and the turn steps instead; no later turn of the climb
        tries a jump to that checkpoint again, as each try costs a product,
        but once the front has stepped to it, the class may have rounded
        ``k`` past it, and jumps from it are tried. A block steps up to the next count level at most, and up
        to ``k`` when there is no need. With a need, a block from the front
        ``lv`` steps at most ``lv + 1`` levels, so a climb from a low front
        doubles the rows built per block instead of stepping a whole span
        it would mostly throw away. In each block the least level ``>= k``
        whose entry reaches ``need`` is bisected and rounded up into the
        class; the rows up to it, and no further, are kept. No row past the
        next count level or ``_MAX_LEVEL`` is built."""
        lv, row = self._front
        dropped = 0  # the checkpoint of a dropped jump, not tried again
        while k <= _MAX_LEVEL and (lv < k or row[root] < need):
            if self._marks is not None:
                base, span, marks = self._marks
                top = base + len(marks) * span  # the next checkpoint
                jump = dropped != top <= _MAX_LEVEL and (top <= k or need)
                if jump and (power := self._power_of(span)):
                    up = _times(power, marks[-1])
                    if top <= k or up[root] < need:
                        lv, row = self._front = (top, up)
                        self._mark(up)
                        k = max(k, k - (k - lv) // p * p)
                        continue
                    dropped = top
            count = (lv + 1) // _SPAN * _SPAN + _SPAN - 1  # the next count level
            last = min(count, _MAX_LEVEL, 2 * lv + 1) if need else min(count, k)
            block = self._block(row, last - lv)
            j = lv + bisect_left(block, need, k - lv, key=itemgetter(root))
            k = j + (k - j) % p  # the answer, or past the block
            end = min(k, lv + len(block) - 1)
            if self._marks is None:
                self._rows += block[1 : end - lv + 1]
            lv, row = end, block[end - lv]
            if lv == count:
                self._count(lv, row)
        self._front = (lv, row)
        if k > _MAX_LEVEL:
            raise DigitCapExceededError(
                f"the answer needs more than {_MAX_LEVEL} digits"
                if need
                else f"level {k} is past the cap of {_MAX_LEVEL} levels"
            )
        return k

    def _block(self, row: tuple[int, ...], levels: int) -> list[tuple[int, ...]]:
        """The rows from ``row`` up to ``levels`` levels above it, ``row``
        first, by one call of ``steps``; fewer, but at least one, where
        they would hold more than about ``_BLOCK_BITS`` bits."""
        return self._steps(row, min(levels, _fit(row)) + 1)

    def _up(self, row: tuple[int, ...], levels: int) -> tuple[int, ...]:
        """The row ``levels`` levels above ``row``, stepped a block at a time."""
        while levels:
            block = self._block(row, levels)
            levels -= len(block) - 1
            row = block[-1]
        return row

    def _power_of(self, span: int) -> Optional[list[list[int]]]:
        """``M^span`` by rows, where ``M[x][y]`` counts ``y`` in the image of
        ``x`` (the transpose of ``Substitution.adjacency``); None when one
        jump costs more than stepping ``span`` levels. Both costs count
        passes over a big entry: a step makes one per big addition
        (``_shared_sums``), a jump one per digit of each nonzero entry of
        the power, plus one to add the product. The first power steps each
        unit row up ``span`` levels (the step is ``p -> M · p``, so that
        gives its columns); when the span doubles it is squared."""
        if self._power is None:
            m = len(self._rows[0])
            units = [tuple(int(x == y) for x in range(m)) for y in range(m)]
            columns = [self._up(unit, span) for unit in units]
            self._power = (span, [list(line) for line in zip(*columns)], None)
        s, power, pays = self._power
        if s < span or pays is None:
            while s < span:
                power = [list(line) for line in zip(*[_times(power, c) for c in zip(*power)])]
                s *= 2
            cost = sum(-(-e.bit_length() // _DIGIT_BITS) + 1 for line in power for e in line if e)
            pays = cost < s * self._adds
            self._power = (s, power, pays)
        return power if pays else None

    def _count(self, level: int, row: tuple[int, ...]) -> None:
        """Count the row at a count level against its budget, and make it a
        checkpoint where one falls. The stored rows close when their bits
        reach ``_STORE_BITS``, and at no other time; the row that closes
        them is the first checkpoint."""
        if self._marks is None:
            bits = _row_bits(row)
            self._bits += _SPAN * bits
            if self._bits >= _STORE_BITS:
                self._marks = (level, _SPAN, [row])
                self._bits = bits
        elif not (level - self._marks[0]) % self._marks[1]:
            self._mark(row)

    def _mark(self, row: tuple[int, ...]) -> None:
        """Append the next checkpoint; past ``_CHECKPOINT_BITS``, drop every
        other one and double the span."""
        base, span, marks = self._marks
        marks.append(row)
        self._bits += _row_bits(row)
        if self._bits > _CHECKPOINT_BITS:
            marks = marks[::2]  # a new list: readers keep the old one whole
            self._marks = (base, 2 * span, marks)
            self._bits = sum(map(_row_bits, marks))

    # -- reads ---------------------------------------------------------------

    def row(self, level: int) -> tuple[int, ...]:
        rows = self._rows
        if level < len(rows):
            return rows[level]
        if level > self._front[0]:
            with self._lock:
                self._climb(level)
        if level < len(rows):
            return rows[level]
        lv, row = self._front
        if lv == level:
            return row
        base, span, marks = self._marks
        i = (level - base) // span
        return self._up(marks[i], level - base - i * span)

    def spans(
        self, k: int
    ) -> tuple[list[tuple[int, ...]], int, Sequence[tuple[tuple[int, ...], int]]]:
        """Levels ``0 .. k - 1`` as ``(rows, top, blocks)``, building no
        streamed row. ``rows`` is the stored list, bottom-up: the table's own,
        not a copy. It only grows, by rows appended fully built, so a reader
        may index any level below its length while another call grows it.
        Its levels ``0 .. top - 1`` are the lowest of the ``k``; ``blocks``
        covers the streamed levels above them, top block first, each a pair
        ``(checkpoint, count)``: the row at the block's lowest level, which
        is a checkpoint, and the number of its levels."""
        rows = self._rows
        if k - 1 > self._front[0]:
            with self._lock:
                self._climb(k - 1)
        if k <= len(rows):
            return rows, k, ()
        base, span, marks = self._marks
        i = (k - 1 - base) // span  # the top block's checkpoint
        # top block first, up to level k - 1, then whole spans; no
        # comprehension, whose closure would cost every call of ``spans``
        return rows, base, list(zip(marks[i::-1], [k - base - i * span] + [span] * i))

    def block_rows(
        self, checkpoint: tuple[int, ...], count: int, shift: int = 0
    ) -> list[tuple[int, ...]]:
        """The ``count`` rows of a block from ``spans``, bottom-up, stepped
        up by the ``steps`` kernel from its checkpoint with every entry
        first shifted right by ``shift`` bits. A shifted row ``e`` levels up
        is the exact row, divided by ``2**shift``, less at most
        ``|mu^e(x)|`` in entry ``x``."""
        if shift:
            checkpoint = tuple([v >> shift for v in checkpoint])
        return self._steps(checkpoint, count)

    def _scan(self, root: int, need: int, lo: int) -> int:
        """The least streamed level from ``lo`` up to the front whose ``root``
        entry reaches ``need``, or the level above the front if none does,
        which the front's entry tells at once. Otherwise the checkpoints are
        bisected by that entry, then the one block below the first that
        reaches it, or below the front, is stepped up from its checkpoint
        and bisected from ``lo`` or from the checkpoint, whichever is higher."""
        front, row = self._front
        if row[root] < need:
            return front + 1
        base, span, marks = self._marks
        key = itemgetter(root)
        i = bisect_left(marks, need, (lo - base) // span + 1, key=key)
        top = base + i * span if i < len(marks) else front + 1
        lv, row = base + (i - 1) * span, marks[i - 1]
        while True:
            block = self._block(row, top - 1 - lv)
            j = lv + bisect_left(block, need, max(lo - lv, 0), key=key)
            lv += len(block) - 1
            if j <= lv or lv == top - 1:
                return j
            row = block[-1]

    def level(self, root: int, need: int, r: int, p: int) -> int:
        """Least ``k >= r``, ``k ≡ r (mod p)``, with ``|mu^k(root)| >= need``.

        Images are non-empty, so rows never shrink entrywise from one
        level to the next: the answer is the least level ``>= r`` whose
        entry reaches ``need``, rounded up into the class. Under the lock,
        the stored rows are bisected for that level; past them, the
        streamed levels up to the front (``_scan``); past the front, the
        table grows up to the answer and never beyond it.
        """
        rows = self._rows
        with self._lock:
            k = bisect_left(rows, need, r, key=itemgetter(root))
            front = self._front[0]
            if len(rows) <= k <= front:
                k = self._scan(root, need, k)
            k += (r - k) % p
            if k <= front:
                return k
            return self._climb(k, p, root, need)


class _Record:
    """Base of the frozen value classes, in place of a frozen dataclass.

    A subclass names its fields by annotations, in order, and gives
    defaults as class attributes. Instances take the fields positionally
    or by keyword and then run ``__post_init__``; they compare and hash by
    their fields, print as ``Name(field=value, ...)``, and refuse
    assignment and deletion with ``dataclasses.FrozenInstanceError``.
    Fields live in the instance ``__dict__``, so ``vars()`` lists them and
    ``cached_property`` works. Unlike a dataclass, the class is built
    without ``dataclasses``, whose import costs a CLI process more than
    its own work on small values.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        key = attrgetter(*fields)

        # closures over ``key``: looking it up on the class would add about
        # a tenth to ``DigitWord ==``, which checks words against the tree oracle
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # ``object.__setattr__``, as a dataclass sets fields: an update of
        # ``self.__dict__`` would give the instance a dict of its own, through
        # which every later read of a field takes two to three times as long
        set_field = object.__setattr__
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords or defaults, in field order."""
        name = cls.__qualname__
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            unknown = next(iter(kwargs))
            raise TypeError(f"{name}() got an unexpected or repeated argument {unknown!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Substitution(_Record):
    """A morphism on a finite ordered alphabet with non-empty images.

    ``alphabet`` fixes letter order everywhere: adjacency columns, child
    order in trees, digit values. ``images[i]`` is the image of
    ``alphabet[i]`` as a tuple of letters. Instances are immutable and
    hashable; derived data (index maps, length tables) is cached lazily.
    """

    alphabet: tuple[str, ...]
    images: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.alphabet:
            raise DslSyntaxError("alphabet is empty")
        for letter in self.alphabet:
            if not _NAME_RE.fullmatch(letter):
                raise DslSyntaxError(f"invalid letter name {letter!r}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise DslSyntaxError("duplicate letters in alphabet")
        if len(self.images) != len(self.alphabet):
            raise DslSyntaxError("every letter needs exactly one image")
        known = set(self.alphabet)
        for letter, image in zip(self.alphabet, self.images):
            if len(image) == 0:
                raise EmptyImageError(f"image of {letter!r} is empty")
            for x in image:
                if x not in known:
                    raise UnknownLetterError(
                        f"image of {letter!r} uses undeclared letter {x!r}"
                    )
        if not self.growing:
            raise NoGrowingLetterError(
                "substitution has no growing letter: all iterated images stay bounded"
            )

    # -- derived structure ------------------------------------------------

    @cached_property
    def index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    @cached_property
    def image_idx(self) -> tuple[tuple[int, ...], ...]:
        idx = self.index
        return tuple(tuple(idx[x] for x in im) for im in self.images)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Occurrence matrix: ``adjacency[i][j]`` counts letter ``i`` in the
        image of letter ``j``, so column sums equal image lengths."""
        n = len(self.alphabet)
        m = [[0] * n for _ in range(n)]
        for j, im in enumerate(self.image_idx):
            for y in im:
                m[y][j] += 1
        return tuple(tuple(row) for row in m)

    @cached_property
    def growing(self) -> frozenset[str]:
        """Letters whose iterated image lengths diverge.

        A letter grows exactly when it reaches, in one step or more of the
        directed image graph, a letter with image length >= 2 that reaches
        itself, that is, lies on a cycle.
        """
        img = self.image_idx
        reach = [_reach(img, im) for im in img]  # reachable in >= 1 steps
        targets = {x for x, im in enumerate(img) if len(im) >= 2 and x in reach[x]}
        return frozenset(a for a, r in zip(self.alphabet, reach) if r & targets)

    @cached_property
    def lengths(self) -> _LengthTable:
        return _LengthTable(self.image_idx)

    @cached_property
    def kernels(self):
        """The descent and fold kernels of ``dtnum.kernels``, fetched once:
        a fetch from its cache hashes the nested image tuples."""
        from . import kernels

        return kernels.compile_kernels(self.image_idx, self.alphabet)

    # -- letter-level helpers ----------------------------------------------

    def letter_index(self, letter: str) -> int:
        try:
            return self.index[letter]
        except KeyError:
            raise UnknownLetterError(f"unknown letter {letter!r}") from None

    def image(self, letter: str) -> tuple[str, ...]:
        return self.images[self.letter_index(letter)]

    # -- text forms ---------------------------------------------------------

    def to_dsl(self) -> str:
        """Rule text that ``parse_substitution`` reads back as this substitution.

        The DSL orders letters by first appearance, so the rules are written
        in an order that names the letters in alphabet order. Some alphabet
        orders have no such rule order; their text keeps every image but
        not the letter order, which only the JSON form keeps.
        """
        rules = [(self.alphabet[i], self.images[i]) for i in self._rule_order()]
        if all(len(a) == 1 for a in self.alphabet) and not any(
            "->" in "".join(im) for im in self.images
        ):
            return ",".join(f"{a}->{''.join(im)}" for a, im in rules)
        return ", ".join(f"{a} -> {' '.join(im)}" for a, im in rules)

    def _rule_order(self) -> list[int]:
        """Letter indices whose rules, read in turn, first name the letters in
        alphabet order; alphabet order when no order does.

        Taking any rule that fits next never blocks a full order: its new
        letters are the next ones of the alphabet, and it names no later one.
        """
        order: list[int] = []
        pending = list(range(len(self.alphabet)))
        named = 0  # alphabet[:named] have appeared
        while pending:
            for i in pending:
                m = named
                for y in (i,) + self.image_idx[i]:
                    if y == m:
                        m += 1
                    elif y > m:
                        break
                else:
                    break
            else:
                return list(range(len(self.alphabet)))
            pending.remove(i)
            order.append(i)
            named = m
        return order

    def to_json_dict(self) -> dict:
        single = all(len(a) == 1 for a in self.alphabet)
        images: dict[str, object] = {}
        for a, im in zip(self.alphabet, self.images):
            images[a] = "".join(im) if single else list(im)
        return {"alphabet": list(self.alphabet), "images": images}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Substitution":
        try:
            alphabet = data["alphabet"]
            raw = data["images"]
        except (KeyError, TypeError):
            raise DslSyntaxError("JSON form needs 'alphabet' and 'images'") from None
        if not isinstance(alphabet, list) or not isinstance(raw, dict) or not all(
            isinstance(a, str) for a in alphabet
        ):
            raise DslSyntaxError("JSON form needs a list of string letters and an 'images' object")
        known = set(alphabet)
        for a in raw:
            if a not in known:
                raise DslSyntaxError(f"image given for {a!r}, which is not in the alphabet")
        images = []
        for a in alphabet:
            if a not in raw:
                raise DslSyntaxError(f"missing image for letter {a!r}")
            im = raw[a]
            # string images are split per character; multi-character
            # alphabets must use list images
            if not isinstance(im, (str, list)) or not all(isinstance(x, str) for x in im):
                raise DslSyntaxError(f"image of {a!r} must be a string or a list of letters")
            images.append(tuple(im))
        return cls(tuple(alphabet), tuple(images))


def parse_substitution(text: str) -> Substitution:
    """Parse rule text like ``a->abc,b->c,c->ac`` or ``a1 -> b a1, b -> a1``.

    Rules are separated by ``,`` or ``;``. With single-character letters
    the image letters are juxtaposed; any multi-character letter switches
    the whole text to spaced mode, where images are space-separated and
    every image token must be declared by some rule. Letter order follows
    first appearance.
    """
    if not text or not text.strip():
        raise DslSyntaxError("empty substitution text")
    rule_texts = [r for r in re.split(r"[,;]", text) if r.strip()]
    if not rule_texts:
        raise DslSyntaxError("no rules found")
    pairs: list[tuple[str, str]] = []
    for rt in rule_texts:
        if "->" not in rt:
            raise DslSyntaxError(f"rule {rt.strip()!r} lacks '->'")
        lhs, rhs = rt.split("->", 1)
        if "->" in rhs:
            raise DslSyntaxError(f"rule {rt.strip()!r} has more than one '->'")
        lhs = lhs.strip()
        if not lhs:
            raise DslSyntaxError(f"rule {rt.strip()!r} is missing its letter")
        if not _NAME_RE.fullmatch(lhs):
            raise DslSyntaxError(f"invalid letter name {lhs!r}")
        pairs.append((lhs, rhs.strip()))
    declared = [l for l, _ in pairs]
    if len(set(declared)) != len(declared):
        dupe = next(l for i, l in enumerate(declared) if l in declared[:i])
        raise DslSyntaxError(f"letter {dupe!r} has more than one rule")
    multi = any(len(l) > 1 for l in declared)
    declared_set = set(declared)

    images: dict[str, tuple[str, ...]] = {}
    for lhs, rhs in pairs:
        if multi:
            tokens = rhs.split()
            for t in tokens:
                if t not in declared_set:
                    raise UnknownLetterError(
                        f"image of {lhs!r} uses undeclared letter {t!r}"
                    )
            images[lhs] = tuple(tokens)
        else:
            chars = tuple(c for c in rhs if not c.isspace())
            for c in chars:
                if c not in declared_set:
                    raise DslSyntaxError(f"letter {c!r} has no rule")
            images[lhs] = chars

    alphabet = tuple(dict.fromkeys(x for lhs, _ in pairs for x in (lhs, *images[lhs])))
    return Substitution(alphabet, tuple(images[a] for a in alphabet))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, refusing a key given twice,
    which ``json.loads`` would read as its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise DslSyntaxError(f"bad JSON substitution: key {key!r} appears twice")
        data[key] = value
    return data


def substitution_from_text(text: str) -> Substitution:
    """Accept either the rule DSL or the canonical JSON form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json

        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise DslSyntaxError(f"bad JSON substitution: {e}") from None
        except RecursionError:
            raise DslSyntaxError("bad JSON substitution: nested too deeply") from None
        return Substitution.from_json_dict(data)
    return parse_substitution(text)


def image_length(sub: Substitution, letter: str, level: int) -> int:
    """Exact ``|mu^level(letter)|`` via the memoized length recursion."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return sub.lengths.row(level)[sub.letter_index(letter)]


def first_length_mismatch(
    sub: Substitution, letters: Sequence[str], exponents: Iterable[int]
) -> Optional[tuple[str, str, int, int, int]]:
    """First ``(letters[0], other, exponent, length0, length_other)`` with
    ``|mu^exponent|`` differing, exponents in order; None if none differs."""
    if len(letters) < 2:
        return None
    idx = sub.index
    first = letters[0]
    for exponent in exponents:
        row = sub.lengths.row(exponent)
        v0 = row[idx[first]]
        for other in letters[1:]:
            v = row[idx[other]]
            if v != v0:
                return first, other, exponent, v0, v
    return None


def is_primitive(sub: Substitution) -> bool:
    """Whether some power ``mu^k`` puts every letter in every image, that
    is, whether a power of the adjacency matrix is entrywise positive.

    The letters of ``mu^(k+1)(x)`` are those of the images of the letters
    of ``mu^k(x)``, so one set per letter is kept for k = 1, 2, ... up to
    the Wielandt bound ``(n-1)^2 + 1``, by which a primitive matrix is
    already positive.
    """
    img = sub.image_idx
    n = len(img)
    sets = [set(im) for im in img]
    for _ in range((n - 1) ** 2 + 1):
        if all(len(s) == n for s in sets):
            return True
        sets = [{y for z in s for y in img[z]} for s in sets]
    return False


# -- seeds -------------------------------------------------------------------


class SeedSpec(_Record):
    """Seed of a periodic point: left letter, right letter, and a period.

    One side may be absent. The period may be any positive multiple of
    the minimal one.
    """

    left: Optional[str]
    right: Optional[str]
    period: int

    def __post_init__(self):
        if self.left is None and self.right is None:
            raise InvalidSeedError("seed needs at least one side")
        if self.period < 1:
            raise InvalidSeedError("period must be >= 1")

    def text(self) -> str:
        return f"{self.left or '_'}|{self.right or '_'}"


def parse_seed(text: str) -> tuple[Optional[str], Optional[str]]:
    """Parse seed text ``b|a``, ``_|a`` or ``b|_`` into (left, right)."""
    if "|" not in text:
        raise DslSyntaxError(f"seed {text!r} must look like 'b|a', '_|a' or 'b|_'")
    left_s, right_s = (p.strip() for p in text.split("|", 1))
    left = None if left_s in ("", "_") else left_s
    right = None if right_s in ("", "_") else right_s
    if left is None and right is None:
        raise DslSyntaxError("seed has neither side")
    return left, right


def _cycle_length(sub: Substitution, letter: str, end: int) -> Optional[int]:
    """Length of the cycle through ``letter`` of the map sending each letter
    to the first (``end`` 0) or last (``end`` -1) letter of its image."""
    img = sub.image_idx
    start = x = sub.letter_index(letter)
    for t in range(1, len(img) + 1):
        x = img[x][end]
        if x == start:
            return t
    return None


def first_letter_cycle(sub: Substitution, letter: str) -> Optional[int]:
    """Length of the first-letter cycle through ``letter``, if it lies on one."""
    return _cycle_length(sub, letter, 0)


def last_letter_cycle(sub: Substitution, letter: str) -> Optional[int]:
    """Length of the last-letter cycle through ``letter``, if it lies on one."""
    return _cycle_length(sub, letter, -1)


def _seed_cycle(sub: Substitution, letter: str, end: int) -> Optional[int]:
    """The seed rule: the length of the cycle through ``letter`` of the
    first-letter (``end`` 0) or last-letter (``end`` -1) map when the
    letter grows and lies on one, else None. A right seed letter lies on
    a first-letter cycle, a left one on a last-letter cycle."""
    t = _cycle_length(sub, letter, end)
    return t if letter in sub.growing else None


def minimal_period(sub: Substitution, left: Optional[str], right: Optional[str]) -> int:
    """Minimal period of the periodic point with the given seed letters:
    the lcm of the cycle lengths ``_seed_cycle`` gives them; a letter it
    does not accept for its side raises ``InvalidSeedError``.
    """
    parts = []
    for letter, side, end in ((right, "right", 0), (left, "left", -1)):
        if letter is None:
            continue
        t = _seed_cycle(sub, letter, end)
        if t is None:
            raise InvalidSeedError(f"{letter!r} is not a valid {side} seed letter")
        parts.append(t)
    if not parts:
        raise InvalidSeedError("seed needs at least one side")
    return math.lcm(*parts)


def validate_seed(sub: Substitution, seed: SeedSpec) -> None:
    """Raise InvalidSeedError unless ``seed`` determines a periodic point."""
    p = minimal_period(sub, seed.left, seed.right)
    if seed.period % p != 0:
        raise InvalidSeedError(
            f"period {seed.period} is not a multiple of the minimal period {p}"
        )


def find_seeds(sub: Substitution, domain: Domain) -> list[SeedSpec]:
    """All seeds of the domain with their minimal periods.

    Right seeds are the letters ``_seed_cycle`` accepts on the
    first-letter map, left seeds those it accepts on the last-letter map,
    in alphabet order; two-sided seeds pair them with the lcm of the
    cycle lengths.
    """
    if domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}")
    rights = [(a, t) for a in sub.alphabet if (t := _seed_cycle(sub, a, 0)) is not None]
    lefts = [(b, t) for b in sub.alphabet if (t := _seed_cycle(sub, b, -1)) is not None]
    if domain == "N":
        return [SeedSpec(None, a, t) for a, t in rights]
    if domain == "Zneg":
        return [SeedSpec(b, None, t) for b, t in lefts]
    return [
        SeedSpec(b, a, math.lcm(tb, ta)) for b, tb in lefts for a, ta in rights
    ]


# -- numeration systems -------------------------------------------------------


class NumerationSystem(_Record):
    """A substitution together with a validated seed and residue class."""

    substitution: Substitution
    seed: SeedSpec
    residue: int = 0

    def __post_init__(self):
        validate_seed(self.substitution, self.seed)
        if not 0 <= self.residue < self.seed.period:
            raise InvalidSeedError(
                f"residue {self.residue} must satisfy 0 <= r < period {self.seed.period}"
            )

    @property
    def period(self) -> int:
        return self.seed.period

    @property
    def left(self) -> Optional[str]:
        return self.seed.left

    @property
    def right(self) -> Optional[str]:
        return self.seed.right

    def contains(self, n: int) -> bool:
        if n >= 0:
            return self.right is not None
        return self.left is not None

    def restricted(self) -> tuple["NumerationSystem", tuple[str, ...]]:
        """Drop letters unreachable from the seed; returns (system, dropped)."""
        roots = [x for x in (self.seed.left, self.seed.right) if x is not None]
        keep = reachable_letters(self.substitution, roots)
        if len(keep) == len(self.substitution.alphabet):
            return self, ()
        dropped = tuple(a for a in self.substitution.alphabet if a not in set(keep))
        sub = restrict(self.substitution, keep)
        return NumerationSystem(sub, self.seed, self.residue), dropped


def _reach(image_idx: tuple[tuple[int, ...], ...], starts: Iterable[int]) -> set[int]:
    """Letter indices reachable from ``starts``, themselves included,
    through iterated images."""
    todo = list(starts)
    seen = set(todo)
    while todo:
        for y in image_idx[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def reachable_letters(sub: Substitution, roots: Iterable[str]) -> tuple[str, ...]:
    """Letters reachable from ``roots`` through iterated images, in alphabet order."""
    seen = _reach(sub.image_idx, [sub.letter_index(r) for r in roots])
    return tuple(a for i, a in enumerate(sub.alphabet) if i in seen)


def restrict(sub: Substitution, keep: Iterable[str]) -> Substitution:
    """Restriction of the substitution to the given letters (order preserved)."""
    keep_set = set(keep)
    alphabet = tuple(a for a in sub.alphabet if a in keep_set)
    images = []
    for a in alphabet:
        im = sub.image(a)
        for x in im:
            if x not in keep_set:
                raise UnknownLetterError(
                    f"cannot restrict: image of {a!r} leaves the kept alphabet at {x!r}"
                )
        images.append(im)
    return Substitution(alphabet, tuple(images))


def make_system(
    sub: Union[Substitution, str],
    seed: Union[SeedSpec, str],
    residue: int = 0,
    period: Optional[int] = None,
) -> NumerationSystem:
    """Convenience constructor from texts; ``period`` overrides the minimal one."""
    if isinstance(sub, str):
        sub = substitution_from_text(sub)
    if isinstance(seed, str):
        left, right = parse_seed(seed)
        p = minimal_period(sub, left, right)
        seed = SeedSpec(left, right, p if period is None else period)
    elif period is not None:
        seed = SeedSpec(seed.left, seed.right, period)
    return NumerationSystem(sub, seed, residue)
