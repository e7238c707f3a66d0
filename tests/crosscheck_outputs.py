"""One md5 over the outputs of the maps, to pin them across changes.

The lines hashed are, in order:

- ``rep``/``val`` on every golden complement system, and
  ``rep_classic_N``/``val_classic_N`` on every golden classic one, at
  ``±(10^e + 4242)`` for ``e`` in 0, 10, 300, 1000 and 3000, on the sides
  the system has;
- ``rep``/``val`` on the test corpus over ``-300..300`` and at
  ``±(10^300 + 4242)``, or the refusal of a value too long to represent;
- the ``repr`` of ``fit_weights_oracle(ns, -200, 200)`` on the test corpus.

    PYTHONPATH=src python tests/crosscheck_outputs.py

Prints the md5 and the number of lines hashed. A change that keeps every
output keeps the md5; CI compares it with the recorded value. It takes
about 3 s and pins a digest, not a property, so it runs as its own CI
step rather than inside the tier-1 suite.
"""

from __future__ import annotations

import hashlib
import sys

from dtnum import fit_weights_oracle, rep, rep_classic_N, val, val_classic_N
from dtnum.errors import NumerationError
from dtnum.golden import classic_fixtures, complement_fixtures

from helpers import corpus_systems

EXPONENTS = (0, 10, 300, 1000, 3000)


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
