"""Exhaustive cross-check of the positionality verdict on two letters.

Every substitution on {a, b} whose images have length 1 to 3 and that
``Substitution`` accepts, every seed ``find_seeds`` gives in each domain,
with its minimal period p and with 2p, and every residue: the structural
verdict of ``check_positional`` must equal the verdict of the weight-fitting
oracle, which reads only the representations of -200..200.

    PYTHONPATH=src python tests/crosscheck_two_letters.py

Prints one line per disagreement and a summary with the sweep's wall
time; exits 1 if any system disagrees. It takes about 4-7 s on a shared
2-vCPU machine (3.6-6.6 s over six runs, against 5.2-7.3 s before the
weight oracle skipped equations of solved weights), so it runs as its
own CI step rather than inside the tier-1 suite.
"""

from __future__ import annotations

import itertools
import sys
import time

from dtnum import (
    DOMAINS,
    ConsistentWeights,
    NumerationSystem,
    SeedSpec,
    Substitution,
    check_positional,
    find_seeds,
    fit_weights_oracle,
)
from dtnum.errors import NumerationError

LETTERS = ("a", "b")
MAX_IMAGE = 3
FIT_BOUND = 200


def two_letter_substitutions() -> list[Substitution]:
    images = [
        word
        for length in range(1, MAX_IMAGE + 1)
        for word in itertools.product(LETTERS, repeat=length)
    ]
    subs = []
    for pair in itertools.product(images, repeat=len(LETTERS)):
        try:
            subs.append(Substitution(LETTERS, pair))
        except NumerationError:
            continue
    return subs


def seeded_systems(sub: Substitution) -> list[NumerationSystem]:
    """Every seed of every domain, with periods p and 2p, and every residue."""
    systems = []
    for domain in DOMAINS:
        for spec in find_seeds(sub, domain):
            for period in (spec.period, 2 * spec.period):
                seed = SeedSpec(spec.left, spec.right, period)
                for r in range(period):
                    systems.append(NumerationSystem(sub, seed, r))
    return systems


def two_letter_systems() -> list[NumerationSystem]:
    return [ns for sub in two_letter_substitutions() for ns in seeded_systems(sub)]


def main() -> int:
    start = time.perf_counter()
    systems = two_letter_systems()
    disagreements = 0
    positional = 0
    for ns in systems:
        verdict = check_positional(ns).positional
        fit = fit_weights_oracle(ns, -FIT_BOUND, FIT_BOUND)
        positional += verdict
        if verdict != isinstance(fit, ConsistentWeights):
            disagreements += 1
            print(
                f"disagreement: {ns.substitution.to_dsl()} seed {ns.seed.text()} "
                f"period {ns.period} residue {ns.residue}: verdict {verdict}, "
                f"oracle {fit}"
            )
    print(
        f"{len(systems)} systems, {positional} positional, "
        f"{disagreements} disagreements; {time.perf_counter() - start:.1f} s wall"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
