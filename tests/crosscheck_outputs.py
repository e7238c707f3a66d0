"""One md5 over the outputs of the maps, to pin them across changes.

The lines hashed are, in order:

- ``rep``/``val`` on every golden complement system, and
  ``rep_classic_N``/``val_classic_N`` on every golden classic one, at
  ``±(10^e + 4242)`` for ``e`` in 0, 10, 300, 1000 and 3000, on the sides
  the system has;
- ``rep``/``val`` on the test corpus over ``-300..300`` and at
  ``±(10^300 + 4242)``, or the refusal of a value too long to represent;
- the ``repr`` of ``fit_weights_oracle(ns, -200, 200)`` on the test corpus;
- the refusals of bad words on every golden system at ``±(10^e + 4242)``
  for ``e`` in 300 and 3000, on the sides the system has: the word with
  its top digit raised past its image (read in a block where the word
  reaches above the stored rows) and with its last digit raised (read in
  the stored rows), each also with a zero prefixed.

    PYTHONPATH=src python tests/crosscheck_outputs.py

Prints the md5 and the number of lines hashed. A change that keeps every
output keeps the md5; CI compares it with the recorded value. It takes
about 3.5 s and pins a digest, not a property, so it runs as its own CI
step rather than inside the tier-1 suite.
"""

from __future__ import annotations

import hashlib
import sys

from dtnum import DigitWord, fit_weights_oracle, rep, rep_classic_N, val, val_classic_N
from dtnum.errors import NumerationError
from dtnum.golden import classic_fixtures, complement_fixtures

from helpers import corpus_systems

EXPONENTS = (0, 10, 300, 1000, 3000)
BAD_EXPONENTS = (300, 3000)


def signed(bound: int) -> tuple[int, int]:
    return bound, -bound


def round_trips(ns, values):
    """A line per value on the system's sides: its word and the word's
    value, or the refusal, such as a polynomially growing system's
    ``DigitCapExceededError`` at 10^300."""
    for n in values:
        if ns.contains(n):
            try:
                word = rep(ns, n)
            except NumerationError as e:
                yield f"{n} {type(e).__name__}: {e}"
                continue
            yield f"{n} {word.text()} {val(ns, word)}"


def raised(sub, root: str, digits: tuple[int, ...], i: int) -> tuple[int, ...]:
    """``digits`` with digit ``i`` raised to the length of its letter's
    image, the least digit past it."""
    x = sub.index[root]
    for d in digits[:i]:
        x = sub.image_idx[x][d]
    return (*digits[:i], len(sub.image_idx[x]), *digits[i + 1 :])


def refusals(evaluate, sub, root: str, digits: tuple[int, ...]):
    """A line per bad word made from ``digits``: the top or last digit
    raised, with or without a zero prefixed, and what ``evaluate`` makes
    of it."""
    for i in (0, len(digits) - 1):
        bad = raised(sub, root, digits, i)
        for word in (bad, (0, *bad)):
            try:
                outcome = evaluate(word)
            except NumerationError as e:
                outcome = f"{type(e).__name__}: {e}"
            yield f"{i} {len(word)} {outcome}"


def bad_words():
    for entry, ns in complement_fixtures():
        yield entry["name"]
        sub = ns.substitution
        for e in BAD_EXPONENTS:
            for n in signed(10**e + 4242):
                if ns.contains(n):
                    word = rep(ns, n)
                    root = ns.right if word.sign == 0 else ns.left
                    evaluate = lambda bad, sign=word.sign: val(ns, DigitWord(bad, sign))
                    yield from refusals(evaluate, sub, root, word.digits)
    for entry, sub, root in classic_fixtures():
        yield entry["name"]
        for e in BAD_EXPONENTS:
            word = rep_classic_N(sub, root, 10**e + 4242)
            evaluate = lambda bad: val_classic_N(sub, root, DigitWord(bad))
            yield from refusals(evaluate, sub, root, word.digits)


def lines():
    for entry, ns in complement_fixtures():
        yield entry["name"]
        for e in EXPONENTS:
            yield from round_trips(ns, signed(10**e + 4242))
    for entry, sub, root in classic_fixtures():
        yield entry["name"]
        for e in EXPONENTS:
            n = 10**e + 4242
            word = rep_classic_N(sub, root, n)
            yield f"{n} {word.text()} {val_classic_N(sub, root, word)}"
    systems = corpus_systems()
    for ns in systems:
        yield f"{ns.substitution.to_dsl()} {ns.seed.text()} {ns.period} {ns.residue}"
        yield from round_trips(ns, [*range(-300, 301), *signed(10**300 + 4242)])
    for ns in systems:
        yield repr(fit_weights_oracle(ns, -200, 200))
    yield from bad_words()


def main() -> int:
    digest = hashlib.md5()
    count = 0
    for line in lines():
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()} over {count} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
