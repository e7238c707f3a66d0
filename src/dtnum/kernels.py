"""Read kernels: code compiled per substitution for the top-down descent
and for a path's sum over a block of levels.

Above its stored rows a length table keeps one checkpoint row per block of
levels, and ``numeration`` reads each block on small integers. The block's
rows come from the table's own row-step kernel, ``steps`` of
``core._steps_source``, shared by equal images, which steps them up from
the checkpoint, shifted right or exact (``block_rows``). This module adds
the two kernels that read rows: the descent that picks each level's child
digit, on the stored rows and on a block's rows alike (``descend``), and a
path's prefix counts folded down a block by the transposed step into a
short vector whose dot product with the checkpoint is the path's sum over
the block (``fold``). Each kernel keeps its state in local variables and
calls nothing per level but ``append``, so the source is generated from
the images' letter indices. A substitution fetches its kernels once
(``Substitution.kernels``, by ``compile_kernels``); they are compiled the
first time an image set is read, then shared by equal images through a
bounded cache. ``rep`` imports this module; a ``val`` whose reads stay in
the stored rows does not.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .core import _KERNEL_CACHE, _compile, _shared_sums, _sum_source
from .errors import DigitOutOfRangeError


class Kernels(NamedTuple):
    """The read kernels of one substitution (``kernel_source``)."""

    fold: Callable[[int, Sequence[int]], tuple[list[int], int]]
    descend: Callable[[list[tuple[int, ...]], int, int], tuple[list[int], int, int]]


@lru_cache(maxsize=_KERNEL_CACHE)
def compile_kernels(
    image_idx: tuple[tuple[int, ...], ...], alphabet: tuple[str, ...]
) -> Kernels:
    """The kernels of the images ``image_idx``; ``alphabet`` names the
    letters in the text of ``DigitOutOfRangeError``, so it is part of the
    key under which the last ``_KERNEL_CACHE`` compilations are shared."""

    def bad(d: int, x: int) -> DigitOutOfRangeError:
        return DigitOutOfRangeError(f"digit {d} >= |image({alphabet[x]})| = {len(image_idx[x])}")

    namespace = _compile(kernel_source(image_idx), IndexError=IndexError, bad=bad)
    return Kernels(namespace["fold"], namespace["descend"])


def kernel_source(image_idx: tuple[tuple[int, ...], ...]) -> str:
    """Source of the two read kernels, their state in locals.

    - ``fold(x, digits)``: a path's prefix counts from letter ``x`` down a
      block, folded by Horner's rule with the transposed step; returns
      ``(w, y)``, ``y`` the letter below the last digit. A digit past its
      image raises ``DigitOutOfRangeError``.
    - ``descend(rows, x, t)``: the descent from letter ``x`` at offset
      ``t`` down ``rows``, top level last: at each level the child digit
      is the first child whose row entry exceeds the offset left, less
      the entries of the children before it; returns ``(digits, y, t)``,
      ``y`` the letter and ``t`` the offset reached. An offset past every
      other child takes the last child, so it never raises.

    Each level branches on its letter by a binary tree of ``if``/``else``,
    so the code nests only ``log2`` of the alphabet deep. In ``descend``
    every child but the last is one flat test ending in ``continue``, and
    the last child is taken unchecked. On exact rows an offset in range
    stays in range, and one past a letter's width stays past the width of
    every letter below it, so the offset reached tells which it was: on
    the stored rows, down to the all-ones level 0, it is 0 exactly when
    the offset was in range. A shifted row is the exact sum of the
    shifted row below, so an offset past a letter's width passes every
    non-last child below it too, and the exact remainder check after the
    kernel decides the digits. The code grows linearly with the images;
    compiling it is the cost of the first read of images the cache does
    not hold: about 1 ms on 3 letters, 6-10 ms on 60.
    """
    m = len(image_idx)
    ws = ", ".join(f"w{y}" for y in range(m))
    zeros = " = ".join(f"w{y}" for y in range(m)) + " = 0"
    transposed: list[list[int]] = [[] for _ in range(m)]
    for x, im in enumerate(image_idx):
        for y in im:
            transposed[y].append(x)
    back, back_values = _sum_source(_shared_sums(transposed), [f"w{y}" for y in range(m)], "u")
    back.append(f"{ws}, = {', '.join(back_values)},")

    def branches(lo: int, hi: int, indent: str, leaf):
        if hi - lo == 1:
            yield from (indent + line for line in leaf(image_idx[lo]))
            return
        mid = (lo + hi) // 2
        yield f"{indent}if x < {mid}:"
        yield from branches(lo, mid, indent + "    ", leaf)
        yield f"{indent}else:"
        yield from branches(mid, hi, indent + "    ", leaf)

    def fold_leaf(im: tuple[int, ...]):
        for i, y in enumerate(im[:-1]):
            yield f"w{y} += d > {i}"
        yield f"x = {im}[d]"  # IndexError past the image

    def descend_leaf(im: tuple[int, ...]):
        for d, y in enumerate(im[:-1]):
            yield f"if t < (v := row[{y}]): x = {y}; add({d}); continue"
            yield "t -= v"
        yield f"x = {im[-1]}; add({len(im) - 1})"

    lines = [
        "def fold(x, digits):",
        f"    {zeros}",
        "    try:",
        "        for d in digits:",
        *(f"            {line}" for line in back),
        *branches(0, m, "            ", fold_leaf),
        "    except IndexError:",
        "        raise bad(d, x) from None",
        f"    return [{ws}], x",
        "def descend(rows, x, t):",
        "    digits = []",
        "    add = digits.append",
        "    for row in rows[::-1]:",
        *branches(0, m, "        ", descend_leaf),
        "    return digits, x, t",
    ]
    return "\n".join(lines) + "\n"
