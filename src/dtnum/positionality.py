"""Positionality analysis of substitution numeration systems.

The structural decision works on residue letter sets: for each residue
class j of tree levels, collect the letters that occur somewhere at such
a level with a younger sibling, track a column -2 adjustment next to the
left spine, and decide positionality by testing that iterated image
lengths are constant over each set (sampled finitely, which suffices by
the characteristic polynomial of the adjacency matrix). A weight-fitting
oracle, exact and integer-only, cross-checks the verdict from collected
representations alone.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Union

from .core import (
    _MAX_LEVEL,
    NumerationSystem,
    _Record,
    first_length_mismatch,
    reachable_letters,
)
from .errors import DigitCapExceededError, NotPositionalSystemError
from .numeration import DigitWord, rep


class ConditionC(_Record):
    """Length obligation for the column -2 letter at literal level ``residue``:
    ``|mu^exponent(letter)|`` must match every letter of ``reference``."""

    residue: int
    letter: str
    exponent: int
    reference: tuple[str, ...]


class ResidueSets(_Record):
    """Per-residue letter sets driving the positionality criterion."""

    period: int
    base: tuple[tuple[str, ...], ...]
    added: tuple[tuple[str, ...], ...]  # column -2 letters adjoined per residue
    obligations: tuple[ConditionC, ...]

    def full(self, j: int) -> tuple[str, ...]:
        return self.base[j] + self.added[j]


class Counterexample(_Record):
    kind: str  # "length-mismatch" or "condition-C"
    residue: int
    exponent: int
    letters: tuple[str, str]
    lengths: tuple[int, int]

    def describe(self) -> str:
        a, b = self.letters
        la, lb = self.lengths
        if self.kind == "length-mismatch":
            return (
                f"residue {self.residue}: |mu^{self.exponent}({a})| = {la} "
                f"differs from |mu^{self.exponent}({b})| = {lb}"
            )
        return (
            f"column -2 obligation at level {self.residue}: "
            f"|mu^{self.exponent}({a})| = {la} differs from |mu^{self.exponent}({b})| = {lb}"
        )


class WeightTable(_Record):
    """Positional weights: U for digit positions, V for the sign position."""

    U: tuple[int, ...]
    V: tuple[int, ...]
    unconstrained: tuple[int, ...]


class PositionalityReport(_Record):
    positional: bool
    residue_sets: ResidueSets
    weights: Optional[WeightTable]
    counterexample: Optional[Counterexample]
    notes: tuple[str, ...]

    def __post_init__(self):
        if (self.weights is not None) != self.positional or (
            self.counterexample is not None
        ) == self.positional:
            raise ValueError(
                "a report holds weights exactly when positional and a "
                "counterexample exactly when not"
            )

    def to_json_dict(self) -> dict:
        rs = self.residue_sets
        w = self.weights
        ce = self.counterexample
        return {
            "positional": self.positional,
            "E": {str(j): list(rs.full(j)) for j in range(rs.period)},
            "c2_added": {
                str(j): list(rs.added[j])
                for j in range(rs.period)
                if rs.added[j]
            },
            "condition_C": [
                {
                    "j": ob.residue,
                    "letter": ob.letter,
                    "exponent": ob.exponent,
                    "reference": list(ob.reference),
                }
                for ob in rs.obligations
            ],
            "U": None if w is None else list(w.U),
            "V": None if w is None else list(w.V),
            "unconstrained": None if w is None else list(w.unconstrained),
            "counterexample": None if ce is None else {
                "kind": ce.kind,
                "j": ce.residue,
                "exponent": ce.exponent,
                "letters": list(ce.letters),
                "lengths": list(ce.lengths),
            },
        }


# -- residue letter sets --------------------------------------------------------


def compute_residue_sets(ns: NumerationSystem) -> ResidueSets:
    """Letter sets per residue class of tree levels.

    Runs one closure over occurrence states (on_spine, letter, level
    residue), where on_spine marks nodes of the left spine (the column -1
    chain). Each state adds the letters of its node's children that have
    a younger sibling to the next residue, except a spine node's
    second-to-last child, whose younger sibling sits on column -1. The
    column -2 adjustment is then applied at the literal levels 1..p-1.
    Each of the 2 * |alphabet| * period states is pushed at most once, so
    the closure always reaches its fixpoint.
    """
    sub = ns.substitution
    names = sub.alphabet
    p = ns.period
    img = sub.image_idx

    todo: list[tuple[bool, int, int]] = []
    if ns.right is not None:
        todo.append((False, sub.index[ns.right], 0))
    if ns.left is not None:
        todo.append((True, sub.index[ns.left], 0))
    seen = set(todo)
    base_sets: list[set[int]] = [set() for _ in range(p)]
    while todo:
        on_spine, x, i = todo.pop()
        j = (i + 1) % p
        im = img[x]
        base_sets[j].update(im[: len(im) - 2] if on_spine else im[:-1])
        # the last child inherits its parent's place on or off the spine
        for state in [(False, y, j) for y in im[:-1]] + [(on_spine, im[-1], j)]:
            if state not in seen:
                seen.add(state)
                todo.append(state)
    base = tuple(tuple(names[i] for i in sorted(s)) for s in base_sets)

    added: list[tuple[str, ...]] = [()] * p
    obligations: list[ConditionC] = []
    for j, im, c in _left_spine(ns, p):
        if len(im) < 2:
            continue  # column -2 node (if any) hangs off a different parent
        if _longer_than_one(img, im[-1], p - j):
            if c not in base_sets[j]:
                added[j] = (names[c],)
        elif j <= ns.residue:
            obligations.append(
                ConditionC(
                    residue=j,
                    letter=names[c],
                    exponent=ns.residue - j,
                    reference=base[j],
                )
            )

    return ResidueSets(
        period=p,
        base=base,
        added=tuple(added),
        obligations=tuple(obligations),
    )


def _longer_than_one(img: tuple[tuple[int, ...], ...], x: int, e: int) -> bool:
    """Whether ``|mu^e(x)| > 1``, with no length row: that is when the walk
    along one-letter images from ``x`` meets an image of two or more
    letters within ``e`` steps. Past ``|alphabet|`` steps the walk only
    cycles, so that many steps decide it at most."""
    for _ in range(min(e, len(img))):
        if len(img[x]) > 1:
            return True
        x = img[x][0]
    return False


def _left_spine(ns: NumerationSystem, level_bound: int):
    """Walk the left spine: for each level 1..level_bound-1, yield the level,
    the image (letter indices) of the spine node one level up, whose last
    letter is the spine node, and the column -2 letter index, or None while
    no spine image has had two letters."""
    if ns.left is None:
        return
    img = ns.substitution.image_idx
    x = ns.substitution.index[ns.left]
    col2: Optional[int] = None
    for level in range(1, level_bound):
        im = img[x]
        if len(im) >= 2:
            col2 = im[-2]
        elif col2 is not None:
            col2 = img[col2][-1]
        x = im[-1]
        yield level, im, col2


# -- the decision ----------------------------------------------------------------


def check_positional(ns: NumerationSystem, weight_count: int = 8) -> PositionalityReport:
    """Decide positionality; emit weights or a counterexample.

    Every letter the analysis meets is reachable from the seed, and
    length constancy over a residue set need only be sampled at as many
    exponents per arithmetic progression as there are such letters: the
    difference of two of their length sequences satisfies the recurrence
    of the characteristic polynomial of the adjacency matrix restricted
    to them, so that many consecutive zero samples force it to vanish
    identically.
    """
    if weight_count < 0:
        raise ValueError(f"weight count must be >= 0, got {weight_count}")
    if weight_count > _MAX_LEVEL:
        raise DigitCapExceededError(
            f"weight count {weight_count} is past the cap of {_MAX_LEVEL}"
        )
    sub = ns.substitution
    p = ns.period
    r = ns.residue
    rs = compute_residue_sets(ns)
    keep = reachable_letters(sub, [x for x in (ns.left, ns.right) if x is not None])
    dropped = [a for a in sub.alphabet if a not in keep]

    notes = []
    if dropped:
        notes.append(
            "alphabet restricted to letters reachable from the seed; dropped: "
            + ", ".join(dropped)
        )
    notes.append(
        f"length constancy sampled at {len(keep)} exponents per residue; "
        "sufficient by the adjacency characteristic polynomial"
    )
    for level, _, c in _left_spine(ns, 2 * p):
        if c is not None:
            notes.append(f"column -2 letter at level {level}: {sub.alphabet[c]}")
    empty = [j for j in range(p) if not rs.full(j)]
    if empty:
        notes.append(
            "empty letter sets at residues "
            + ", ".join(str(j) for j in empty)
            + ": only the digit 0 occurs at the matching positions"
        )

    samples = len(keep)
    checks = [
        ("length-mismatch", j, rs.full(j), [(r - j) % p + t * p for t in range(samples)])
        for j in range(p)
    ] + [
        ("condition-C", ob.residue, (ob.letter,) + ob.reference, (ob.exponent,))
        for ob in rs.obligations
    ]
    found = first_length_mismatch(sub, [check[2:] for check in checks])
    if found is not None:
        i, (a, b, exponent, la, lb) = found
        kind, residue = checks[i][:2]
        return PositionalityReport(
            positional=False,
            residue_sets=rs,
            weights=None,
            counterexample=Counterexample(kind, residue, exponent, (a, b), (la, lb)),
            notes=tuple(notes),
        )

    table = _weight_table(ns, rs, weight_count)
    return PositionalityReport(
        positional=True,
        residue_sets=rs,
        weights=table,
        counterexample=None,
        notes=tuple(notes),
    )


# the weights emitted hold at most this many bits (64 MiB): U alone has
# about 0.69 bits per level on Fibonacci, so a count near the level cap
# would hold tens of gigabytes
_MAX_WEIGHT_BITS = 2**29


def _weight_table(ns: NumerationSystem, rs: ResidueSets, count: int) -> WeightTable:
    sub = ns.substitution
    idx = sub.index
    r = ns.residue
    p = ns.period
    left = None if ns.left is None else idx[ns.left]
    condition_at = {ob.exponent: ob for ob in rs.obligations}
    U: list[int] = []
    V: list[int] = []
    unconstrained: list[int] = []
    bits = 0
    for exponent in range(count):
        row = sub.lengths.row(exponent)
        j = (r - exponent) % p
        letters = rs.full(j)
        if letters:
            U.append(row[idx[letters[0]]])
        elif exponent in condition_at:
            ob = condition_at[exponent]
            U.append(row[idx[ob.letter]])
        else:
            # only the digit 0 ever occurs at these positions
            U.append(0)
            unconstrained.append(exponent)
        bits += U[-1].bit_length()
        if left is not None:
            V.append(row[left])
            bits += V[-1].bit_length()
        if bits > _MAX_WEIGHT_BITS:
            raise DigitCapExceededError(
                f"{count} weights hold more than {_MAX_WEIGHT_BITS} bits "
                f"(the first {exponent + 1} already do)"
            )
    return WeightTable(tuple(U), tuple(V), tuple(unconstrained))


def weights(ns: NumerationSystem, count: int) -> WeightTable:
    """Weight tables of a positional system; raises otherwise."""
    report = check_positional(ns, weight_count=count)
    if not report.positional:
        raise NotPositionalSystemError(
            "system is not positional: " + report.counterexample.describe()
        )
    return report.weights


def evaluate_with_weights(
    word: DigitWord, U, V=()
) -> int:
    """Positional evaluation: weighted digit sum, minus V at the sign position."""
    k = len(word.digits)
    total = 0
    for i, d in enumerate(word.digits):
        if d:
            total += d * U[k - 1 - i]
    if word.sign == 1:
        total -= V[k]
    return total


# -- weight-fitting oracle --------------------------------------------------------


class ConsistentWeights(_Record):
    """Solved weight coordinates; positions never pinned by any collected
    representation are simply absent."""

    U: dict[int, int]
    V: dict[int, int]


class WeightContradiction(_Record):
    witnesses: tuple[int, ...]
    detail: str


FitResult = Union[ConsistentWeights, WeightContradiction]


class _Row:
    """A solved equation ``d*pivot + sum(coeffs[v]*v) = rhs`` in integers.

    Kept primitive: ``d > 0`` and the gcd of ``d``, the coefficients and
    ``rhs`` is 1, so a row with no free coefficient holds its pivot's value
    ``rhs/d`` in lowest terms.
    """

    __slots__ = ("d", "coeffs", "rhs", "sources")

    def __init__(self, d: int, coeffs: dict, rhs: int, sources: set):
        coeffs = {v: c for v, c in coeffs.items() if c}
        g = gcd(d, rhs, *coeffs.values())
        if d < 0:
            g = -g
        if g != 1:
            d //= g
            rhs //= g
            coeffs = {v: c // g for v, c in coeffs.items()}
        self.d = d
        self.coeffs = coeffs
        self.rhs = rhs
        self.sources = sources


def _eliminate(coeffs: dict, rhs: int, c: int, row: _Row) -> int:
    """Scale an equation by ``row.d`` and subtract ``c`` times ``row``, which
    removes ``row``'s pivot, whose coefficient was ``c``. ``coeffs`` is
    updated in place; the new right-hand side is returned."""
    d = row.d
    if d != 1:
        for v in coeffs:
            coeffs[v] *= d
        rhs *= d
    for v, cv in row.coeffs.items():
        coeffs[v] = coeffs.get(v, 0) - c * cv
    return rhs - c * row.rhs


def _var_name(var: tuple[str, int]) -> str:
    return f"{var[0]}{var[1]}"


def _constraint_text(coeffs: dict, n: int) -> str:
    terms = [
        (f"{c}*" if c != 1 else "") + _var_name(v)
        for v, c in sorted(coeffs.items())
    ]
    lhs = " + ".join(terms) if terms else "0"
    return f"{lhs} = {n}"


def fit_weights_oracle(ns: NumerationSystem, lo: int, hi: int) -> FitResult:
    """Fit positional weights to the representations of ``[lo, hi]`` exactly.

    Builds one linear equation per integer in range (over the system's
    domain) from the positional evaluation shape and solves the system by
    exact, integer-only (fraction-free) elimination: each solved row keeps
    an integer pivot coefficient and is divided by its gcd. Returns either
    the solved coordinates or a contradiction certificate naming the
    witnessing integers. A solved coordinate that is negative or
    non-integral is also a contradiction: weights must be natural numbers.

    A pivot row with no free coefficient and ``d == 1`` never changes
    again, and its coordinate's value is ``rhs``; those values are also
    kept in one map per letter, ``U`` and ``V`` by index. An equation
    whose coordinates all have such values, and whose sum with them is
    ``n``, is skipped: the elimination would reduce it to ``0 = 0`` and
    add no row. Every other equation, one whose sum is not ``n`` among
    them, is eliminated in full, so the rows, the results and the
    contradiction texts are those of the elimination alone.
    """
    pivots: dict[tuple[str, int], _Row] = {}
    known: dict[str, dict[int, int]] = {"U": {}, "V": {}}
    known_u, known_v = known["U"], known["V"]
    for n in _domain_values(ns, lo, hi):
        word = rep(ns, n)
        k = len(word.digits)
        try:
            rest = n + known_v[k] if word.sign else n
            for i, d in enumerate(reversed(word.digits)):
                if d:
                    rest -= d * known_u[i]
        except KeyError:
            rest = None  # a coordinate without a value yet
        if rest == 0:
            continue  # it restates solved values: 0 = 0 after elimination
        original: dict[tuple[str, int], int] = {}
        for i, d in enumerate(word.digits):
            if d:
                original[("U", k - 1 - i)] = d
        if word.sign == 1:
            original[("V", k)] = -1
        coeffs = dict(original)
        rhs = n
        used = []  # the sources of the rows substituted
        # rows hold no pivot variable, so substituting one row never brings
        # back another row's pivot
        for var in original:
            prow = pivots.get(var)
            if prow is not None:
                rhs = _eliminate(coeffs, rhs, coeffs.pop(var), prow)
                used.append(prow.sources)
        coeffs = {v: c for v, c in coeffs.items() if c}
        if not coeffs:
            # most equations reduce to 0 = 0 and need no sources
            if rhs != 0:
                sources = {n}.union(*used)
                others = sorted(sources - {n})
                return WeightContradiction(
                    tuple(sorted(sources)),
                    f"rep({n}) = {word} gives {_constraint_text(original, n)}, "
                    f"inconsistent with the weights forced by reps of {others}",
                )
            continue
        pivot_var = min(coeffs)
        new_row = _Row(coeffs.pop(pivot_var), coeffs, rhs, {n}.union(*used))
        changed = [(pivot_var, new_row)]
        for var, prow in pivots.items():
            c = prow.coeffs.pop(pivot_var, None)
            if c:
                prow_rhs = _eliminate(prow.coeffs, prow.rhs, c, new_row)
                pivots[var] = row = _Row(
                    prow.d * new_row.d,
                    prow.coeffs,
                    prow_rhs,
                    prow.sources | new_row.sources,
                )
                changed.append((var, row))
        pivots[pivot_var] = new_row
        for (name, i), row in changed:
            if not row.coeffs and row.d == 1:
                known[name][i] = row.rhs

    solved_u: dict[int, int] = {}
    solved_v: dict[int, int] = {}
    for var in sorted(pivots):
        row = pivots[var]
        if row.coeffs:
            continue  # underdetermined coordinate
        if not (row.rhs % row.d == 0 and row.rhs // row.d >= 0):
            value = str(row.rhs) if row.d == 1 else f"{row.rhs}/{row.d}"
            return WeightContradiction(
                tuple(sorted(row.sources)),
                f"{_var_name(var)} is forced to {value}, not a natural number",
            )
        if var[0] == "U":
            solved_u[var[1]] = row.rhs // row.d
        else:
            solved_v[var[1]] = row.rhs // row.d
    return ConsistentWeights(solved_u, solved_v)


def _domain_values(ns: NumerationSystem, lo: int, hi: int):
    start = lo if ns.left is not None else max(lo, 0)
    stop = hi if ns.right is not None else min(hi, -1)
    return range(start, stop + 1)
