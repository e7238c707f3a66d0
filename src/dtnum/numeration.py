"""Representation and evaluation maps for substitution numeration systems.

Integers map to digit words by descending the prefix-decomposition tree
with exact image lengths; ``mu^k(seed)`` is never expanded as a string.
Every level of the descent runs in one loop, the ``descend`` kernel of
``dtnum.kernels``, fetched once per substitution (``Substitution.kernels``,
shared by equal images). Above a fixed memory budget the length table
keeps only checkpoint rows, and the maps read each block of levels above
a checkpoint through small integers: a path's sum over the block is a
short vector, folded by the transposed row step (``fold``), dotted with
the checkpoint, and the descent runs on the block's rows shifted down to
a few hundred bits by the table's row step (``block_rows``), checked
exactly by that sum (``_descend_blocks``), and a block that fails is
redone on exact rows a bounded part at a time. So values with hundreds
of thousands of digits are fine. The kernels keep their state in locals
and call nothing per level but ``append``. A ``val`` whose reads stay in
the stored rows imports no kernel.
The sign digit 0/1 selects the non-negative/negative subtree of a
two-sided system.

``rep`` finds its level by the length table's ``level``: the least
admissible ``k`` with ``|mu^k(root)| >= need``, where ``need`` is
``n + 1`` for ``n >= 0`` and ``-n`` for ``n < 0``. One descent,
``_descend_digits``, serves every map. ``val`` decides canonicality by
the spine rule (``_canonical``): a word of ``k`` digits with period
``p`` and residue ``r`` is canonical iff ``k ≡ r (mod p)`` and it does
not begin with the seed side's ``p`` spine digits, the first child of
each letter on the right side and the last child on the left. ``mu^p``
of a right seed begins with it and of a left seed ends with it, so the
level-``(k - p)`` tree lies below the spine digits at the same columns,
and a column has one path per level (Dumont & Thomas, TCS 65, 1989).
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Union

from .core import NumerationSystem, Substitution, _Record, _fit, _seed_cycle
from .errors import (
    DigitOutOfRangeError,
    NotFixedPointSeedError,
    OffsetOutOfRangeError,
    SideMissingError,
)

# the bits below the smallest checkpoint entry that a shifted block
# descent keeps, besides those its block's levels may lose (``_descend_blocks``)
_GUARD_BITS = 64


class AdmissibleStep(_Record):
    """One decomposition step: ``prefix`` then ``pivot`` prefixes the image above."""

    prefix: tuple[str, ...]
    pivot: str


class AdmissibleSequence(_Record):
    """Steps indexed least-significant first: ``steps[i]`` is expanded by mu^i."""

    root: str
    steps: tuple[AdmissibleStep, ...]

    @property
    def digits(self) -> tuple[int, ...]:
        """Digit reading: prefix lengths, most significant first."""
        return tuple(len(s.prefix) for s in reversed(self.steps))


class DigitWord(_Record):
    """Digits most significant first, with an optional sign digit in {0, 1}."""

    digits: tuple[int, ...]
    sign: Optional[int] = None

    def __post_init__(self):
        if self.sign not in (None, 0, 1):
            raise ValueError("sign digit must be 0, 1 or absent")
        if min(self.digits, default=0) < 0:
            raise ValueError("digits must be non-negative")

    def __len__(self) -> int:
        return len(self.digits) + (1 if self.sign is not None else 0)

    def text(self) -> str:
        parts = ([] if self.sign is None else [self.sign]) + list(self.digits)
        if not parts:
            return "ε"
        if max(parts) >= 10:
            return ".".join(str(p) for p in parts)
        return "".join(str(p) for p in parts)

    def __str__(self) -> str:
        return self.text()

    @classmethod
    def parse(cls, text: str, signed: bool) -> "DigitWord":
        """Parse the text form; dot-separated components when any digit >= 10.

        Every component is one or more ASCII digits ``0-9``; any other word
        raises ``ValueError("bad digit word ...")``.
        """
        text = text.strip()
        if text in ("", "ε", "eps", "epsilon"):
            if signed:
                raise ValueError("a signed word needs at least the sign digit")
            return cls(())
        parts = text.split(".") if "." in text else list(text)
        # ASCII decimal digits only: ``str.isdigit`` also takes '²', and
        # ``int`` also reads '０', '٣', '1_0', '+1' and ' 1'
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"bad digit word {text!r}")
        parts = [int(p) for p in parts]
        if signed:
            if parts[0] not in (0, 1):
                raise ValueError("sign digit must be 0 or 1")
            return cls(tuple(parts[1:]), parts[0])
        return cls(tuple(parts))


# -- descent ------------------------------------------------------------------


# looked up once: looking them up per word was about a twentieth of a
# small ``rep``
_new_object, _set_field = object.__new__, object.__setattr__


def _word(digits: tuple[int, ...], sign: Optional[int]) -> DigitWord:
    """A :class:`DigitWord` built without ``__post_init__``'s checks.

    Only for words this package derives itself: descent digits are child
    indices, so ``>= 0``, and the sign is 0, 1 or ``None`` by construction.
    The result is indistinguishable from ``DigitWord(digits, sign)``.
    """
    word = _new_object(DigitWord)
    _set_field(word, "digits", digits)
    _set_field(word, "sign", sign)
    return word


def _descend_digits(sub: Substitution, root: int, k: int, offset: int) -> list[int]:
    """Child indices along the path left of column ``offset`` below ``root``
    at level ``k``; a negative offset, down to ``-|mu^k(root)|``, is the
    column ``|mu^k(root)| + offset``.

    The levels come from ``spans()``: the streamed blocks, top first, by
    ``_descend_blocks``, then the stored rows, read in place, by the
    ``descend`` kernel. Its last child is taken unchecked, and level-0
    rows are all ones, so the offset is in range exactly when the
    descent ends at offset 0.
    """
    lengths = sub.lengths
    if offset < 0:
        offset += lengths.row(k)[root]
    rows, top, blocks = lengths.spans(k)
    digits: list[int] = []
    if blocks:  # then on from the letter and offset below the blocks
        root, offset = _descend_blocks(sub, blocks, root, offset, digits)
    path, _, t = sub.kernels.descend(rows[:top], root, offset)
    if t:
        raise OffsetOutOfRangeError("offset beyond row width")
    digits += path
    return digits


def _descend_blocks(
    sub: Substitution,
    blocks: list[tuple[tuple[int, ...], int]],
    x: int,
    t: int,
    digits: list[int],
) -> tuple[int, int]:
    """Append the digits of the streamed ``blocks`` of ``spans()`` to
    ``digits``, from letter ``x`` at offset ``t``; return the letter and
    offset below them.

    The descent of a block first runs on its rows stepped up from the
    checkpoint shifted right by ``s`` bits, with ``t >> s``, by the
    ``descend`` kernel; the ``fold`` kernel folds the path's prefix
    counts into ``w``, and the exact remainder is then
    ``t - w·checkpoint``. The subtrees
    at the block's lowest level tile its columns, so the digits are the
    true ones exactly when that remainder lies inside the subtree they
    reach, ``[0, checkpoint[y])``; the check is a proof on its own,
    whatever digits the shifted descent took (an offset past every other
    child takes the last one). A shifted row ``e`` levels up is
    short by up to ``|mu^e|``, which the descent's running offset sums
    over the block, so ``s`` leaves ``_GUARD_BITS`` below the smallest
    checkpoint entry of a growing letter plus the bits of the longest
    image once per level; the entries of bounded letters shift to 0.

    A block that fails is redone by ``descend`` on its exact rows where
    they ``_fit`` one call of the row step, and otherwise in halves,
    upper half first, each tried shifted first: the upper half's
    checkpoint is the table's
    ``_up`` from the block's, stepped a ``_fit`` at a time.
    So a redo holds about ``_BLOCK_BITS`` bits of exact rows at most, and
    one checkpoint per halving.
    """
    lengths = sub.lengths
    fold, descend = sub.kernels
    # the bits the longest image adds to an offset per level
    image_bits = max(map(len, sub.image_idx)).bit_length()
    growing = [sub.index[a] for a in sub.growing]
    parts = list(reversed(blocks))  # popped top first; a part that fails pushes its halves
    while parts:
        checkpoint, count = parts.pop()
        least = min(map(checkpoint.__getitem__, growing))
        s = least.bit_length() - _GUARD_BITS - count * image_bits
        if s > 0:
            path = descend(lengths.block_rows(checkpoint, count, s), x, t >> s)[0]
            w, y = fold(x, path)
            r = t - sum(map(mul, w, checkpoint))
            if 0 <= r < checkpoint[y]:
                digits += path
                x, t = y, r
                continue
        if count <= _fit(checkpoint):
            path, x, t = descend(lengths.block_rows(checkpoint, count), x, t)
            digits += path
            continue
        half = count // 2
        parts += [(checkpoint, half), (lengths._up(checkpoint, half), count - half)]
    return x, t


def decompose_prefix(
    sub: Substitution, root: str, k: int, n: int
) -> AdmissibleSequence:
    """The unique admissible decomposition of the length-``n`` prefix of mu^k(root).

    The digits come from the same top-down descent as ``rep``; digit
    ``d`` at a letter splits its image into the prefix of ``d`` letters
    and the pivot that the path enters.
    """
    root_idx = sub.letter_index(root)
    if k < 0:
        raise ValueError("k must be >= 0")
    total = sub.lengths.row(k)[root_idx]
    if not 0 <= n < total:
        raise OffsetOutOfRangeError(
            f"offset {n} outside [0, |mu^{k}({root})|) = [0, {total})"
        )
    steps_top_down: list[AdmissibleStep] = []
    x = root_idx
    for d in _descend_digits(sub, root_idx, k, n):
        letters = sub.images[x]
        steps_top_down.append(AdmissibleStep(letters[:d], letters[d]))
        x = sub.image_idx[x][d]
    return AdmissibleSequence(root, tuple(reversed(steps_top_down)))


# -- representation maps -------------------------------------------------------


def rep(ns: NumerationSystem, n: int) -> DigitWord:
    """The canonical digit word of ``n``: sign digit plus ``k`` digits with
    ``k`` congruent to the residue modulo the period."""
    sub = ns.substitution
    seed = ns.seed
    if n >= 0:
        sign, side, need = 0, seed.right, n + 1
        if side is None:
            raise SideMissingError("system has no right seed: cannot represent n >= 0")
    else:
        sign, side, need = 1, seed.left, -n
        if side is None:
            raise SideMissingError("system has no left seed: cannot represent n < 0")
    root = sub.index[side]
    k = sub.lengths.level(root, need, ns.residue, seed.period)
    # a negative n is the column |mu^k(left)| + n of the left tree
    return _word(tuple(_descend_digits(sub, root, k, n)), sign)


def val(ns: NumerationSystem, word: Union[DigitWord, str]) -> tuple[int, bool]:
    """Evaluate any valid tree path and report whether it is canonical.

    Non-canonical words (paths reaching the column at a non-minimal
    level) evaluate fine; canonicality is the spine rule (``_canonical``).
    """
    if isinstance(word, str):
        word = DigitWord.parse(word, signed=True)
    if word.sign is None:
        raise ValueError("complement evaluation needs a sign digit; see val_classic_N")
    sub = ns.substitution
    side = ns.right if word.sign == 0 else ns.left
    if side is None:
        raise SideMissingError(
            f"word has sign {word.sign} but the system lacks that seed side"
        )
    root = sub.index[side]
    value = _evaluate_path(sub, root, word.digits, negative=word.sign == 1)
    return value, _canonical(sub, root, word.digits, ns.residue, ns.period, -word.sign)


def _canonical(sub: Substitution, x: int, digits, r: int, p: int, end: int) -> bool:
    """The spine rule for a path below the seed letter ``x``, whose spine
    takes the first (``end`` 0) or last (``end`` -1) child; the digits
    must be in range."""
    if (len(digits) - r) % p:
        return False
    for d in digits[:p]:
        im = sub.image_idx[x]
        if d != end % len(im):
            return True
        x = im[d]
    return len(digits) < p


def _evaluate_path(
    sub: Substitution, root: int, digits: tuple[int, ...], negative: bool
) -> int:
    lengths = sub.lengths
    image_idx = sub.image_idx
    k = len(digits)
    x = root
    # the leading zeros of a long non-canonical word need no rows: the
    # first nonzero digit needs the highest one
    i = 0
    while i < k and not digits[i]:
        x = image_idx[x][0]
        i += 1
    rows, top, blocks = lengths.spans(k - i)
    total = 0
    if blocks:
        fold = sub.kernels.fold
        for checkpoint, count in blocks:
            w, x = fold(x, digits[i : i + count])
            i += count
            total += sum(map(mul, w, checkpoint))
    widths: list[int] = []
    add = widths.append
    # iterated, not indexed per level: ``rows[j]`` per level is slower
    for row, d in zip(reversed(rows[:top]), digits[i:]):
        im = image_idx[x]
        if d >= len(im):
            raise DigitOutOfRangeError(
                f"digit {d} >= |image({sub.alphabet[x]})| = {len(im)}"
            )
        if d:
            for y in im[:d]:
                add(row[y])
        x = im[d]
    # smallest first: the running total grows with its terms instead of
    # being copied at full size by every addition
    total += sum(reversed(widths))
    if negative:
        return total - lengths.row(k)[root]
    return total


def _require_fixed_point(sub: Substitution, root: int) -> None:
    letter = sub.alphabet[root]
    if _seed_cycle(sub, letter, 0) != 1:
        raise NotFixedPointSeedError(
            f"{letter!r} is not the growing seed of a fixed point (image must start with it)"
        )


def rep_classic_N(sub: Substitution, root: str, n: int) -> DigitWord:
    """Unsigned representation over N for a fixed-point seed.

    ``rep(0)`` is the empty word; otherwise the digits of the unique
    shortest decomposition, whose leading digit is nonzero.
    """
    root_idx = sub.letter_index(root)
    _require_fixed_point(sub, root_idx)
    if n < 0:
        raise ValueError("classic representation is defined for n >= 0")
    k = sub.lengths.level(root_idx, n + 1, 0, 1)
    return _word(tuple(_descend_digits(sub, root_idx, k, n)), None)


def val_classic_N(
    sub: Substitution, root: str, word: Union[DigitWord, str]
) -> tuple[int, bool]:
    """Evaluate an unsigned word below a fixed-point seed; reports canonicality."""
    if isinstance(word, str):
        word = DigitWord.parse(word, signed=False)
    if word.sign is not None:
        raise ValueError("classic words carry no sign digit")
    root_idx = sub.letter_index(root)
    _require_fixed_point(sub, root_idx)
    value = _evaluate_path(sub, root_idx, word.digits, negative=False)
    # a fixed point's spine is its first child: empty, or a nonzero first digit
    return value, _canonical(sub, root_idx, word.digits, 0, 1, 0)
