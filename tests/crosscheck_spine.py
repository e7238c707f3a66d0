"""Cross-check of the spine rule for canonicality against its definition.

``val`` decides canonicality by the spine rule alone: a word of ``k``
digits is canonical iff ``k ≡ r (mod p)`` and it does not begin with the
seed side's ``p`` spine digits. The definition is that the word equals
``rep`` of its value, and ``rep`` finds its level by the length table's
level search. The systems are the test corpus, plus every seed, residue and
period times 1, 2 and 3 of ``random_substitutions(Random(11), 300)``:
28,495 systems, 30 random words each, half of them beginning with the
spine digits.

    PYTHONPATH=src python tests/crosscheck_spine.py

Prints one line per disagreement and a summary; exits 1 if any word
disagrees. It takes 15 to 25 s, so it runs as its own CI step rather than
inside the tier-1 suite.
"""

from __future__ import annotations

import random
import sys

from dtnum import DOMAINS, find_seeds, rep, val

from helpers import canonicality_words, corpus_systems, period_multiples, random_substitutions

WORDS = 30


def systems():
    yield from corpus_systems()
    for sub in random_substitutions(random.Random(11), 300):
        for domain in DOMAINS:
            for spec in find_seeds(sub, domain):
                yield from period_multiples(sub, spec)


def main() -> int:
    rng = random.Random(20251018)
    count = words = disagreements = canonical = 0
    for ns in systems():
        count += 1
        for word in canonicality_words(rng, ns, WORDS):
            words += 1
            value, flag = val(ns, word)
            canonical += flag
            if flag != (word == rep(ns, value)):
                disagreements += 1
                print(
                    f"disagreement: {ns.substitution.to_dsl()} seed {ns.seed.text()} "
                    f"period {ns.period} residue {ns.residue}: word {word.text()}, "
                    f"val says {'' if flag else 'non-'}canonical"
                )
    print(
        f"{count} systems, {words} words, {canonical} canonical, "
        f"{disagreements} disagreements"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
