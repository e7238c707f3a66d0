"""Structure theory of the generated numeration systems.

Covers non-final letters, tree-shape comparison (the decision procedure
for conjugacy of substitutions with seeds), merging all non-final
letters into one, the canonical digit-chain form a1 -> a1^d1 a2, ...,
an -> a1^dn ak ("Fabre-like"), and the Parry-condition test deciding
whether the induced system equals a Bertrand numeration system.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    SeedSpec,
    Substitution,
    _Record,
    first_length_mismatch,
    first_letter_cycle,
    reachable_letters,
    restrict,
    validate_seed,
)
from .errors import NotLengthUniformError, ShapeMismatchError

NOT_FABRE_LIKE = "NotFabreLike"
NOT_BERTRAND = "NotBertrand"
TRIVIAL = "Trivial"
CANONICAL_PARRY = "CanonicalParry"
CANONICAL_SIMPLE_PARRY = "CanonicalSimpleParry"
NON_CANONICAL_SIMPLE_PARRY = "NonCanonicalSimpleParry"

BERTRAND_CLASSES = (
    NOT_FABRE_LIKE,
    NOT_BERTRAND,
    TRIVIAL,
    CANONICAL_PARRY,
    CANONICAL_SIMPLE_PARRY,
    NON_CANONICAL_SIMPLE_PARRY,
)


def nonfinal_letters(sub: Substitution) -> tuple[str, ...]:
    """Letters occurring at a non-last position of some image, alphabet order."""
    hit: set[int] = set()
    for im in sub.image_idx:
        hit.update(im[:-1])
    return tuple(a for i, a in enumerate(sub.alphabet) if i in hit)


def tree_shape_equal(
    sub1: Substitution, root1: str, sub2: Substitution, root2: str
) -> bool:
    """Whether the unfolding trees from the two roots have the same shape.

    Closure over letter pairs: corresponding letters must have images of
    equal length, recursively position by position. The trees are the
    unfoldings of finite graphs, so the closure is exact, not a bounded
    approximation.
    """
    start = (sub1.letter_index(root1), sub2.letter_index(root2))
    seen = {start}
    todo = [start]
    img1, img2 = sub1.image_idx, sub2.image_idx
    while todo:
        x, y = todo.pop()
        im1, im2 = img1[x], img2[y]
        if len(im1) != len(im2):
            return False
        for pair in zip(im1, im2):
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def simplify(
    sub: Substitution, seed: SeedSpec
) -> tuple[Substitution, SeedSpec, dict[str, str]]:
    """Merge all non-final letters into the first one and prune.

    Requires iterated image lengths to be constant over the non-final
    letters (otherwise the merged tree would change shape). The result
    has exactly one non-final letter and a tree of identical shape; both
    facts are verified, not assumed.
    """
    nonfinal = nonfinal_letters(sub)
    # |alphabet| samples suffice, as in positionality.check_positional
    found = first_length_mismatch(sub, [(nonfinal, range(len(sub.alphabet)))])
    if found is not None:
        _, mismatch = found
        first, other, exponent, v0, v = mismatch
        raise NotLengthUniformError(
            f"|mu^{exponent}({first})| = {v0} but |mu^{exponent}({other})| = {v}",
            witness=mismatch,
        )
    keep_letter = nonfinal[0] if nonfinal else None
    mapping = {
        a: (keep_letter if keep_letter is not None and a in nonfinal else a)
        for a in sub.alphabet
    }
    merged = Substitution(
        sub.alphabet,
        tuple(tuple(mapping[x] for x in im) for im in sub.images),
    )
    new_left = mapping[seed.left] if seed.left is not None else None
    new_right = mapping[seed.right] if seed.right is not None else None
    roots = [x for x in (new_left, new_right) if x is not None]
    sub2 = restrict(merged, reachable_letters(merged, roots))
    seed2 = SeedSpec(new_left, new_right, seed.period)
    validate_seed(sub2, seed2)
    if len(nonfinal_letters(sub2)) > 1:
        raise ShapeMismatchError("merge left more than one non-final letter")
    for old_root, new_root in ((seed.left, new_left), (seed.right, new_right)):
        if old_root is not None and not tree_shape_equal(sub, old_root, sub2, new_root):
            raise ShapeMismatchError("merged tree changed shape")
    return sub2, seed2, mapping


# -- the digit-chain canonical form ------------------------------------------------


class FabreForm(_Record):
    """The shape a1 -> a1^d1 a2, a2 -> a1^d2 a3, ..., an -> a1^dn ak."""

    digits: tuple[int, ...]
    cycle_entry: int  # k, 1-based index of the chain letter the last image returns to

    def __post_init__(self):
        if not self.digits or self.digits[0] < 1:
            raise ValueError("the first chain digit must be >= 1")
        if not 1 <= self.cycle_entry <= len(self.digits):
            raise ValueError("cycle entry outside the chain")

    @property
    def size(self) -> int:
        return len(self.digits)


def fabre_form(sub: Substitution, a1: str) -> Optional[FabreForm]:
    """Match the digit-chain shape along final letters starting at ``a1``.

    Walks a1 -> final(mu(a1)) -> ...; every image on the way must be a
    power of a1 followed by the next chain letter. Letters unreachable
    from a1 are irrelevant. Returns None when the shape does not match.
    """
    sub.letter_index(a1)
    chain = [a1]
    digits: list[int] = []
    while True:
        im = sub.image(chain[-1])
        body, last = im[:-1], im[-1]
        if any(x != a1 for x in body):
            return None
        digits.append(len(body))
        if last in chain:
            entry = chain.index(last) + 1
            break
        chain.append(last)
    if digits[0] < 1:
        return None
    return FabreForm(tuple(digits), entry)


def fabre_like_periodic(sub: Substitution, a1: str) -> bool:
    """Diagnostic for the periodic variant of the chain shape.

    True when the seed is not itself the repeated letter but every
    reachable image is e^d followed by a single letter for one non-final
    e, with the seed sitting on a first-letter cycle of length > 1. Such
    systems fall outside the Bertrand classification here.
    """
    return fabre_form(sub, a1) is None and _periodic_chain_shape(sub, a1)


def _periodic_chain_shape(sub: Substitution, a1: str) -> bool:
    """``fabre_like_periodic`` for a root already known not to be Fabre-like.

    Decided on the letters reachable from ``a1`` without restricting the
    substitution to them: the restriction need not grow, as on root ``a``
    of ``a->a,b->baa``, and building it would raise."""
    bodies = {x for a in reachable_letters(sub, [a1]) for x in sub.image(a)[:-1]}
    if len(bodies) != 1:
        return False
    cycle = first_letter_cycle(sub, a1)
    return cycle is not None and cycle > 1


# -- ultimately periodic digit words ------------------------------------------------


class UPWord(_Record):
    """Ultimately periodic digit word ``preperiod (cycle)^w``, always normalized:
    the cycle is primitive and the preperiod is as short as possible."""

    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be non-empty")
        if any(d < 0 for d in self.preperiod + self.cycle):
            raise ValueError("digits must be non-negative")
        pre, cyc = _normalize_up(self.preperiod, self.cycle)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "cycle", cyc)

    def prefix(self, length: int) -> tuple[int, ...]:
        out = list(self.preperiod[:length])
        i = 0
        while len(out) < length:
            out.append(self.cycle[i % len(self.cycle)])
            i += 1
        return tuple(out)

    def text(self) -> str:
        pre = "".join(str(d) for d in self.preperiod)
        cyc = "".join(str(d) for d in self.cycle)
        return f"{pre}({cyc})^w"

    def __str__(self) -> str:
        return self.text()


def _normalize_up(
    pre: tuple[int, ...], cyc: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    for d in range(1, len(cyc) + 1):
        if len(cyc) % d == 0 and cyc[:d] * (len(cyc) // d) == cyc:
            cyc = cyc[:d]
            break
    while pre and pre[-1] == cyc[-1]:
        cyc = (cyc[-1],) + cyc[:-1]
        pre = pre[:-1]
    return pre, cyc


def expansion_word(form: FabreForm) -> UPWord:
    """The ultimately periodic digit word read off the chain: the digits up
    to the cycle entry, then the cycle digits forever."""
    k = form.cycle_entry
    return UPWord(form.digits[: k - 1], form.digits[k - 1 :])


def quasi_greedy(word: UPWord) -> UPWord:
    """Rewrite a finite expansion d1..dl 0^w as (d1..d(l-1) (dl - 1))^w.

    Words not ending in 0^w are returned unchanged; the all-zero word has
    no last nonzero digit to borrow from and is rejected.
    """
    if word.cycle != (0,):
        return word
    digits = word.preperiod  # normalization guarantees no trailing zeros
    if not digits:
        raise ShapeMismatchError("the all-zero word has no quasi-greedy form")
    return UPWord((), digits[:-1] + (digits[-1] - 1,))


def inverse_quasi_greedy(word: UPWord) -> UPWord:
    """Rewrite a purely periodic (d1..dl)^w as the finite d1..d(l-1) (dl + 1) 0^w."""
    if word.preperiod:
        raise ShapeMismatchError("inverse quasi-greedy needs a purely periodic word")
    cyc = word.cycle
    return UPWord(cyc[:-1] + (cyc[-1] + 1,), (0,))


def parry_check(word: UPWord) -> Optional[int]:
    """Smallest shift that lexicographically exceeds the word, else None.

    Every shift of an ultimately periodic word repeats within preperiod +
    cycle positions, and each comparison is decided within preperiod +
    2 * cycle symbols.
    """
    max_shift = len(word.preperiod) + len(word.cycle)
    window = len(word.preperiod) + 2 * len(word.cycle)
    expanded = word.prefix(max_shift + window)
    reference = expanded[:window]
    for i in range(1, max_shift + 1):
        if expanded[i : i + window] > reference:
            return i
    return None


def bertrand_classify(sub: Substitution, a1: str) -> str:
    """Classify the system of a fixed-point seed against Bertrand numeration."""
    return classification_json(sub, a1)["class"]


def classification_json(sub: Substitution, a1: str) -> dict:
    """Machine-readable classification record for the CLI."""
    form = fabre_form(sub, a1)
    data: dict = {"fabre": None, "d_word": None, "parry": None}
    if form is None:
        data["class"] = NOT_FABRE_LIKE
        if _periodic_chain_shape(sub, a1):
            data["diagnostic"] = "FabreLikePeriodic"
        return data
    word = expansion_word(form)
    shift = parry_check(word)
    data["fabre"] = {"digits": list(form.digits), "cycle_entry": form.cycle_entry}
    data["d_word"] = {"preperiod": list(word.preperiod), "cycle": list(word.cycle)}
    data["parry"] = "pass" if shift is None else f"fail@{shift}"
    if shift is not None:
        data["class"] = NOT_BERTRAND
    elif word.preperiod == (1,) and word.cycle == (0,):
        data["class"] = TRIVIAL
    elif not word.preperiod:
        data["class"] = CANONICAL_SIMPLE_PARRY
    elif word.cycle == (0,):
        data["class"] = NON_CANONICAL_SIMPLE_PARRY
    else:
        data["class"] = CANONICAL_PARRY
    return data
