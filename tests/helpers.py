"""Shared independent oracles for the test-suite.

Everything here is deliberately written against the definitions (string
rewriting, dense matrix powers, explicit tree scans) rather than reusing
the library's counting machinery, so tests cross two genuinely different
routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from dtnum import (
    ConsistentWeights,
    DigitWord,
    NumerationSystem,
    SeedSpec,
    Substitution,
    WeightContradiction,
    core,
    find_seeds,
    make_system,
    rep,
)
from dtnum.errors import CapExceededError, DigitOutOfRangeError, NumerationError, SideMissingError
from dtnum.positionality import FitResult, _constraint_text, _domain_values, _var_name
from dtnum.trees import DEFAULT_NODE_CAP, TreeSlice


def expand_word(sub: Substitution, letter: str, level: int) -> tuple[str, ...]:
    """mu^level(letter) by direct string rewriting."""
    word = (letter,)
    for _ in range(level):
        out: list[str] = []
        for x in word:
            out.extend(sub.image(x))
        word = tuple(out)
    return word


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def mat_pow(m, e):
    n = len(m)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [list(row) for row in m]
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def descend_with_invariants(ns: NumerationSystem, n: int) -> list[int]:
    """Re-derive the digits of rep(n) with its own descent, asserting the
    partial-sum bound at every level (the decomposition-sum inequality)."""
    sub = ns.substitution
    if n >= 0:
        root = sub.letter_index(ns.right)
        k = ns.residue
        while sub.lengths.row(k)[root] <= n:
            k += ns.period
        t = n
    else:
        root = sub.letter_index(ns.left)
        k = ns.residue
        while sub.lengths.row(k)[root] < -n:
            k += ns.period
        t = sub.lengths.row(k)[root] + n
    digits = []
    x = root
    for level in range(k - 1, -1, -1):
        row = sub.lengths.row(level)
        im = sub.image_idx[x]
        acc = 0
        for i, y in enumerate(im):
            w = row[y]
            if t < acc + w:
                pos = i
                break
            acc += w
        # sum of the remaining decomposition is t, strictly below the
        # chosen child's upper cutoff |mu^level(m a)|
        assert t < acc + row[im[pos]]
        digits.append(pos)
        t -= acc
        x = im[pos]
    assert t == 0
    return digits


def as_lists(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Length rows as lists, to compare their values with ``PlainRows``'s
    whatever sequence type a table builds them as."""
    return [list(row) for row in rows]


class PlainRows:
    """Every row ``|mu^level(x)|`` in one plain list, summed from the images:
    the reference for the library's stored and streamed length rows."""

    def __init__(self, sub: Substitution):
        self.sub = sub
        self.rows = [[1] * len(sub.alphabet)]

    def __getitem__(self, level: int) -> list[int]:
        while len(self.rows) <= level:
            below = self.rows[-1]
            self.rows.append([sum(below[y] for y in im) for im in self.sub.image_idx])
        return self.rows[level]

    def level(self, root: int, need: int, r: int, p: int) -> int:
        k = r
        while self[k][root] < need:
            k += p
        return k

    def descend(self, root: int, k: int, offset: int) -> list[int]:
        digits = []
        x = root
        for level in range(k - 1, -1, -1):
            row = self[level]
            for i, y in enumerate(self.sub.image_idx[x]):
                if offset < row[y]:
                    break
                offset -= row[y]
            digits.append(i)
            x = y
        return digits

    def evaluate(self, root: int, digits: Sequence[int]) -> int:
        """The column the path ``digits`` reaches below ``root``."""
        k = len(digits)
        x = root
        total = 0
        for i, d in enumerate(digits):
            im = self.sub.image_idx[x]
            if d >= len(im):
                raise DigitOutOfRangeError(f"digit {d} out of range")
            total += sum(self[k - 1 - i][y] for y in im[:d])
            x = im[d]
        return total


def budget_close(naive: PlainRows) -> int:
    """The level at which a length table's stored rows close, by their
    budget alone: the first count level at which ``_SPAN`` times the bits
    of each count level's row, summed, reach ``_STORE_BITS``. Both
    constants are read at call time, so a patched budget counts."""
    level, bits = core._SPAN - 1, 0
    while True:
        bits += core._SPAN * sum(v.bit_length() for v in naive[level])
        if bits >= core._STORE_BITS:
            return level
        level += core._SPAN


def horner_fold(sub: Substitution, x: int, digits: Sequence[int]) -> tuple[list[int], int]:
    """A path's prefix counts from letter ``x`` folded down its levels by
    Horner's rule: before each digit ``w`` becomes ``Aᵀ w``, ``A[x][y]``
    counting ``y`` in the image of ``x`` (read from ``adjacency``), then
    gains one per letter left of the path. Returns ``w`` and the letter
    below the last digit; the reference for the ``fold`` kernel."""
    adjacency = sub.adjacency
    w = [0] * len(sub.alphabet)
    for d in digits:
        w = [sum(a * v for a, v in zip(line, w)) for line in adjacency]
        im = sub.image_idx[x]
        if d >= len(im):
            raise DigitOutOfRangeError(f"digit {d} >= |image({sub.alphabet[x]})| = {len(im)}")
        for y in im[:d]:
            w[y] += 1
        x = im[d]
    return w, x


def reference_rep(ns: NumerationSystem, n: int) -> DigitWord:
    """``rep`` over a ``PlainRows`` list."""
    sub = ns.substitution
    plain = PlainRows(sub)
    side, need = (ns.right, n + 1) if n >= 0 else (ns.left, -n)
    root = sub.index[side]
    k = plain.level(root, need, ns.residue, ns.period)
    digits = plain.descend(root, k, n % plain[k][root])
    return DigitWord(tuple(digits), 0 if n >= 0 else 1)


def reference_val(ns: NumerationSystem, word: DigitWord) -> tuple[int, bool]:
    """``val`` over a ``PlainRows`` list; canonical means ``rep`` gives the word."""
    sub = ns.substitution
    plain = PlainRows(sub)
    root = sub.index[ns.right if word.sign == 0 else ns.left]
    value = plain.evaluate(root, word.digits)
    if word.sign == 1:
        value -= plain[len(word.digits)][root]
    return value, reference_rep(ns, value) == word


# -- fingerprints: a word checked modulo primes, with no length row -----------------

# the fixed primes of ``fingerprint_primes``; it adds one of ``SEEDED_PRIMES``,
# picked by a seeded generator, so that runs repeat
FINGERPRINT_PRIMES = (2**61 - 1, 2**31 - 1)
SEEDED_PRIMES = (
    998_244_353, 1_000_000_007, 1_000_000_009, 2**64 - 59, 2**89 - 1, 2**107 - 1, 2**127 - 1
)


def fingerprint_primes(seed: int = 0) -> tuple[int, ...]:
    return FINGERPRINT_PRIMES + (random.Random(seed).choice(SEEDED_PRIMES),)


def path_fingerprint(
    sub: Substitution, root: int, digits: Sequence[int], negative: bool, q: int
) -> int:
    """The value of the path ``digits`` below letter index ``root`` modulo
    ``q``, from ``sub.image_idx`` alone: no length row, no row step and no
    power of the library. The path's prefix counts fold top-down by
    Horner's rule, ``w ← Aᵀw + c (mod q)``: ``w[y]`` counts the letters
    ``y`` left of the path one level down, ``Aᵀ`` carries each letter to
    its image, and ``c`` counts the letters left of the child taken. Level
    0 is all ones, so the value is ``sum(w)``. A negative word then
    subtracts ``|mu^k(root)| mod q``, its rows stepped modulo ``q``.
    Raises ``DigitOutOfRangeError`` on a digit past its letter's image."""
    img = sub.image_idx
    m = len(img)
    # (Aᵀ w)[y] sums w over the letters whose images hold y, once per occurrence
    sources = [[x for x, im in enumerate(img) for z in im if z == y] for y in range(m)]
    # the letters left of child d of each letter, counted per letter
    lefts = [[[im[:d].count(y) for y in range(m)] for d in range(len(im))] for im in img]
    w = [0] * m
    x = root
    for d in digits:
        if not 0 <= d < len(img[x]):
            raise DigitOutOfRangeError(f"digit {d} >= |image({sub.alphabet[x]})| = {len(img[x])}")
        w = [(sum([w[s] for s in src]) + c) % q for src, c in zip(sources, lefts[x][d])]
        x = img[x][d]
    value = sum(w)
    if negative:
        row = [1] * m
        for _ in digits:
            row = [sum([row[y] for y in im]) % q for im in img]
        value -= row[root]
    return value % q


def check_fingerprints(ns: NumerationSystem, n: int, word: DigitWord, seed: int = 0) -> None:
    """Raise ``AssertionError`` unless ``word`` is the canonical
    representation of ``n`` up to the fingerprints' error bound, by checks
    that share nothing with the length table: the word's sign is ``n``'s,
    its digits are in range, its ``path_fingerprint`` equals ``n`` modulo
    each of ``fingerprint_primes(seed)``, and it passes the spine rule:
    its length lies in the residue class and it does not begin with the
    seed side's spine digits (``spine_digits``)."""
    sub, p = ns.substitution, ns.period
    negative = word.sign == 1
    if negative != (n < 0):
        raise AssertionError(f"sign digit {word.sign} for a value of sign {(n > 0) - (n < 0)}")
    side = ns.left if negative else ns.right
    for q in fingerprint_primes(seed):
        if path_fingerprint(sub, sub.index[side], word.digits, negative, q) != n % q:
            raise AssertionError(f"the fingerprint modulo {q} differs from the value's")
    spine = spine_digits(sub, side, p, -word.sign)
    if (len(word.digits) - ns.residue) % p or word.digits[:p] == spine:
        raise AssertionError(f"the {len(word.digits)} digits fail the spine rule")


# -- baselines the systems are compared with ----------------------------------------


def twos_complement_rep(n: int) -> DigitWord:
    """The unique binary word avoiding leading 00/11 that evaluates to ``n``."""
    if n == 0:
        return DigitWord(())
    if n > 0:
        return DigitWord((0,) + tuple(int(b) for b in bin(n)[2:]))
    k = 1
    while -(1 << (k - 1)) > n:
        k += 1
    body = n + (1 << (k - 1))
    bits = bin(body)[2:].zfill(k - 1) if k > 1 else ""
    return DigitWord((1,) + tuple(int(b) for b in bits))


def twos_complement_val(word: Union[DigitWord, str]) -> int:
    """Evaluate binary digits with a negative weight on the leading one."""
    if isinstance(word, str):
        word = DigitWord.parse(word, signed=False)
    digits = word.digits if word.sign is None else (word.sign,) + word.digits
    if any(d > 1 for d in digits):
        raise DigitOutOfRangeError("two's complement words are over {0, 1}")
    if not digits:
        return 0
    k = len(digits)
    return -digits[0] * (1 << (k - 1)) + sum(
        d << (k - 2 - i) for i, d in enumerate(digits[1:])
    )


def greedy_rep(weights: Sequence[int], n: int) -> DigitWord:
    """Greedy digits of ``n >= 0`` over a strictly increasing weight sequence."""
    if n < 0:
        raise ValueError("greedy representation is defined for n >= 0")
    if n == 0:
        return DigitWord(())
    if not weights or weights[0] != 1:
        raise ValueError("greedy weights must start at 1")
    if weights[-1] <= n:
        raise ValueError(f"weight sequence too short to place n = {n}")
    top = max(i for i, u in enumerate(weights) if u <= n)
    digits = []
    rest = n
    for i in range(top, -1, -1):
        d, rest = divmod(rest, weights[i])
        digits.append(d)
    return DigitWord(tuple(digits))


# -- random corpora ---------------------------------------------------------------

CORPUS_SEED = 20250809
LETTERS = "abcd"


def random_substitutions(rng: random.Random, count: int) -> list[Substitution]:
    """Valid random substitutions: alphabets <= 4 letters, images <= length 3."""
    out = []
    while len(out) < count:
        size = rng.randint(2, 4)
        letters = LETTERS[:size]
        images = tuple(
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            for _ in letters
        )
        try:
            out.append(Substitution(tuple(letters), images))
        except NumerationError:
            continue
    return out


def corpus_systems(seed: int = CORPUS_SEED, min_systems: int = 200):
    """Deterministic stream of systems: all seeds and residues per substitution."""
    rng = random.Random(seed)
    systems: list[NumerationSystem] = []
    while len(systems) < min_systems:
        for sub in random_substitutions(rng, 5):
            for domain in ("Z", "N", "Zneg"):
                for spec in find_seeds(sub, domain):
                    for r in range(spec.period):
                        systems.append(NumerationSystem(sub, spec, r))
    return systems


def period_multiples(sub: Substitution, spec: SeedSpec):
    """``sub`` seeded by ``spec`` at 1, 2 and 3 times its period, with every residue."""
    for m in (1, 2, 3):
        seed = SeedSpec(spec.left, spec.right, m * spec.period)
        for r in range(seed.period):
            yield NumerationSystem(sub, seed, r)


# -- random words ----------------------------------------------------------------


def random_path(
    rng: random.Random, sub: Substitution, root: str, length: int, prefix: Sequence[int] = ()
) -> tuple[int, ...]:
    """Digits of a uniformly chosen valid path of the given length below
    ``root`` that begins with the valid path ``prefix``."""
    digits = list(prefix)
    x = root
    for d in prefix:
        x = sub.image(x)[d]
    for _ in range(length - len(prefix)):
        image = sub.image(x)
        d = rng.randrange(len(image))
        digits.append(d)
        x = image[d]
    return tuple(digits)


def spine_digits(sub: Substitution, letter: str, p: int, end: int) -> tuple[int, ...]:
    """The ``p`` child indices of the first (``end`` 0) or last (``end`` -1)
    child of each letter along the first- or last-letter map from ``letter``."""
    digits = []
    for _ in range(p):
        image = sub.image(letter)
        digits.append(len(image) - 1 if end else 0)
        letter = image[end]
    return tuple(digits)


def canonicality_words(rng: random.Random, ns: NumerationSystem, count: int):
    """``count`` random valid signed words on a random seed side of ``ns``.
    The even-numbered ones have 0 to 10 digits; the odd-numbered ones have
    a length in the residue class, at least the period, and begin with the
    seed side's spine digits, so they are never canonical."""
    sub, p, r = ns.substitution, ns.period, ns.residue
    sides = [(s, side) for s, side in ((0, ns.right), (1, ns.left)) if side is not None]
    for i in range(count):
        sign, root = rng.choice(sides)
        if i % 2:
            spine = spine_digits(sub, root, p, -sign)
            digits = random_path(rng, sub, root, r + p * rng.randint(1, 3), spine)
        else:
            digits = random_path(rng, sub, root, rng.randint(0, 10))
        yield DigitWord(digits, sign)


# -- reference weight fit ----------------------------------------------------------


class _FractionRow:
    __slots__ = ("coeffs", "rhs", "sources")

    def __init__(self, coeffs: dict, rhs: Fraction, sources: set):
        self.coeffs = coeffs
        self.rhs = rhs
        self.sources = sources


def fit_weights_reference(ns: NumerationSystem, lo: int, hi: int) -> FitResult:
    """``fit_weights_oracle`` as it was written over ``Fraction``: the
    reference for the library's integer-only elimination.

    Fit positional weights to the representations of ``[lo, hi]`` exactly.

    Builds one linear equation per integer in range (over the system's
    domain) from the positional evaluation shape, solves over the
    rationals, and returns either the solved coordinates or a
    contradiction certificate naming the witnessing integers. A solved
    coordinate that is negative or non-integral is also a contradiction:
    weights must be natural numbers.
    """
    pivots: dict[tuple[str, int], _FractionRow] = {}
    for n in _domain_values(ns, lo, hi):
        word = rep(ns, n)
        k = len(word.digits)
        original: dict[tuple[str, int], int] = {}
        for i, d in enumerate(word.digits):
            if d:
                original[("U", k - 1 - i)] = d
        if word.sign == 1:
            original[("V", k)] = -1
        coeffs = {v: Fraction(c) for v, c in original.items()}
        rhs = Fraction(n)
        sources = {n}
        for var, prow in pivots.items():
            c = coeffs.pop(var, None)
            if c:
                for v2, c2 in prow.coeffs.items():
                    coeffs[v2] = coeffs.get(v2, Fraction(0)) - c * c2
                rhs -= c * prow.rhs
                sources |= prow.sources
        coeffs = {v: c for v, c in coeffs.items() if c}
        if not coeffs:
            if rhs != 0:
                others = sorted(sources - {n})
                return WeightContradiction(
                    tuple(sorted(sources)),
                    f"rep({n}) = {word} gives {_constraint_text(original, n)}, "
                    f"inconsistent with the weights forced by reps of {others}",
                )
            continue
        pivot_var = min(coeffs)
        c0 = coeffs.pop(pivot_var)
        new_row = _FractionRow(
            {v: c / c0 for v, c in coeffs.items()}, rhs / c0, set(sources)
        )
        for prow in pivots.values():
            c = prow.coeffs.pop(pivot_var, None)
            if c:
                for v2, c2 in new_row.coeffs.items():
                    prow.coeffs[v2] = prow.coeffs.get(v2, Fraction(0)) - c * c2
                    if not prow.coeffs[v2]:
                        del prow.coeffs[v2]
                prow.rhs -= c * new_row.rhs
                prow.sources |= new_row.sources
        pivots[pivot_var] = new_row

    solved_u: dict[int, int] = {}
    solved_v: dict[int, int] = {}
    for var in sorted(pivots):
        row = pivots[var]
        if row.coeffs:
            continue  # underdetermined coordinate
        value = row.rhs
        if value.denominator != 1 or value < 0:
            return WeightContradiction(
                tuple(sorted(row.sources)),
                f"{_var_name(var)} is forced to {value}, not a natural number",
            )
        if var[0] == "U":
            solved_u[var[1]] = int(value)
        else:
            solved_v[var[1]] = int(value)
    return ConsistentWeights(solved_u, solved_v)


# -- reference tree expansion ------------------------------------------------------


@dataclass(frozen=True)
class ReferenceTreeNode:
    column: int
    letter: str
    parent: Optional[int]  # index into the previous row; None on the seed row
    edge: Optional[int]  # digit labeling the edge from the parent


class ExpansionOracleReference:
    """``ExpansionOracle`` as it was written node by node, one frozen
    dataclass per node: the reference for the library's index-list rows.

    Grows tree rows on demand under a node cap; rows are cached.
    """

    def __init__(self, ns: NumerationSystem, cap: int = DEFAULT_NODE_CAP):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.ns = ns
        self.cap = cap
        row0 = []
        if ns.left is not None:
            row0.append(ReferenceTreeNode(-1, ns.left, None, None))
        if ns.right is not None:
            row0.append(ReferenceTreeNode(0, ns.right, None, None))
        self._rows: list[tuple[ReferenceTreeNode, ...]] = [tuple(row0)]
        self._nodes = len(row0)

    def row(self, level: int) -> tuple[ReferenceTreeNode, ...]:
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
            ReferenceTreeNode(pos - left_count, letter, parent, edge)
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


def to_dot_reference(slice_: TreeSlice) -> str:
    """``to_dot`` as it was written node by node, before labels were escaped."""
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


def to_tsv_reference(slice_: TreeSlice) -> str:
    """``to_tsv`` as it was written node by node."""
    out = ["level\tcolumn\tletter\tparent_edge"]
    for level, row in enumerate(slice_.levels):
        for node in row:
            edge = "" if node.edge is None else str(node.edge)
            out.append(f"{level}\t{node.column}\t{node.letter}\t{edge}")
    return "\n".join(out) + "\n"
