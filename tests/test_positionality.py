from __future__ import annotations

import hashlib
import json
import random

import pytest

from dtnum import (
    ConsistentWeights,
    NumerationSystem,
    SeedSpec,
    WeightContradiction,
    check_positional,
    compute_residue_sets,
    evaluate_with_weights,
    expand,
    find_seeds,
    fit_weights_oracle,
    make_system,
    rep,
    substitution_from_text,
    val,
    weights,
)
from dtnum.core import _MAX_LEVEL
from dtnum.errors import DigitCapExceededError, NotPositionalSystemError


def tree_occurrences(ns, depth):
    """Per-residue letters occurring with an immediate right sibling at some
    level <= depth, skipping occurrences whose sibling is the column -1 node.

    Explicit-expansion witness scan: a sound (possibly shallow) oracle for
    the base residue sets.
    """
    slice_ = expand(ns, depth, cap=500_000)
    p = ns.period
    sets = [set() for _ in range(p)]
    for level in range(1, depth + 1):
        row = slice_.levels[level]
        for node, sibling in zip(row, row[1:]):
            if sibling.parent != node.parent:
                continue
            if sibling.column == -1:
                continue  # the excluded spine-adjacent position
            sets[level % p].add(node.letter)
    return sets


class TestResidueSets:
    def test_intertwined(self):
        ns = make_system("a->ccd,b->cd,c->ab,d->a", "a|a")
        rs = compute_residue_sets(ns)
        assert rs.full(0) == ("a",)
        assert rs.full(1) == ("c",)

    def test_spine_blocked_adds_column_minus2_letter(self):
        ns = make_system("a->bcd,d->ba,b->bb,c->b", "a|b")
        rs = compute_residue_sets(ns)
        assert rs.base == (("b",), ("b",))
        assert rs.added == ((), ("c",))

    def test_doubling_excludes_spine_adjacent_letter(self):
        ns = make_system("a->bca,b->bb,c->b", "a|b")
        rs = compute_residue_sets(ns)
        assert rs.full(0) == ("b",)
        assert rs.obligations == ()

    def test_eight_letter_obligation(self):
        ns = make_system(
            "a1 -> b c a2, f -> b b, a2 -> a3, b -> d d, c -> d d e, a3 -> a1, d -> f f, e -> f f f f",
            "a1|_",
            residue=2,
        )
        rs = compute_residue_sets(ns)
        assert rs.base == (("f",), ("b",), ("d",))
        assert len(rs.obligations) == 1
        ob = rs.obligations[0]
        assert (ob.residue, ob.letter, ob.exponent, ob.reference) == (1, "c", 1, ("b",))

    def test_tree_occurrences_subset_of_base(self, golden_complement):
        for entry, ns in golden_complement:
            ns2, _ = ns.restricted()
            rs = compute_residue_sets(ns)
            depth = min(2 * len(ns2.substitution.alphabet) * ns2.period, 10)
            for j, found in enumerate(tree_occurrences(ns2, depth)):
                assert found <= set(rs.base[j]), (entry["name"], j)

    def test_tree_occurrences_saturate_small_systems(self):
        # depths chosen so the occurrence scan has provably stabilized while
        # the rows still fit comfortably in memory
        for text, seed, r, depth in (
            ("a->ccd,b->cd,c->ab,d->a", "a|a", 0, 10),
            ("a->bca,b->bb,c->b", "a|b", 0, 8),
            ("a->aab,b->a", "b|a", 0, 8),
            ("a->abb,b->ab", "b|a", 0, 6),
            ("a1 -> b c a2, f -> b b, a2 -> a3, b -> d d, c -> d d e, a3 -> a1, d -> f f, e -> f f f f",
             "a1|_", 2, 12),
        ):
            ns = make_system(text, seed, residue=r)
            rs = compute_residue_sets(ns)
            found = tree_occurrences(ns, depth)
            for j in range(ns.period):
                assert found[j] == set(rs.base[j]), (text, j)

    def test_unreachable_letters_dropped(self):
        ns = make_system("a->ab,b->a,c->cb", "_|a")
        rs = compute_residue_sets(ns)
        assert rs.full(0) == ("a",)
        report = check_positional(ns)
        assert any("dropped: c" in note for note in report.notes)

    def test_primitive_two_sided_sets_equal_nonfinal_letters(self):
        # with primitivity every residue set collapses to the non-final letters
        from dtnum import (
            find_seeds,
            is_primitive,
            nonfinal_letters,
            parse_substitution,
            NumerationSystem,
        )

        for text in ("a->ab,b->ac,c->a", "a->ab,b->ba", "a->aab,b->a", "a->abb,b->ab"):
            sub = parse_substitution(text)
            assert is_primitive(sub)
            expected = set(nonfinal_letters(sub))
            for spec in find_seeds(sub, "Z"):
                for r in range(spec.period):
                    rs = compute_residue_sets(NumerationSystem(sub, spec, r))
                    for j in range(spec.period):
                        assert set(rs.full(j)) == expected, (text, spec, r, j)

    def test_fixed_point_case_reduces_to_nonfinal_letters(self):
        # over N with a fixed-point seed the single set is the non-final letters
        from dtnum import nonfinal_letters

        for text, root in (("a->ab,b->ac,c->a", "a"), ("a->aab,b->aaaa", "a"),
                           ("a->ababa,b->aba,c->ccdcd,d->ccd", "a")):
            ns = make_system(text, f"_|{root}")
            ns2, _ = ns.restricted()
            rs = compute_residue_sets(ns)
            assert set(rs.full(0)) == set(nonfinal_letters(ns2.substitution)), text


class TestCheckPositional:
    def test_silver_pair(self):
        good = make_system("a->aab,b->a", "b|a")
        bad = make_system("a->abb,b->ab", "b|a")
        assert check_positional(good).positional
        report = check_positional(bad)
        assert not report.positional
        ce = report.counterexample
        assert ce.letters == ("a", "b")
        assert ce.lengths == (3, 2)
        assert ce.exponent == 1

    def test_eight_letter_condition_failure(self):
        ns = make_system(
            "a1 -> b c a2, f -> b b, a2 -> a3, b -> d d, c -> d d e, a3 -> a1, d -> f f, e -> f f f f",
            "a1|_",
            residue=2,
        )
        report = check_positional(ns)
        assert not report.positional
        assert report.counterexample.kind == "condition-C"
        fixed = make_system(
            "a1 -> b c a2, f -> b b, a2 -> a3, b -> d d, c -> d e, a3 -> a1, d -> f f, e -> f f f f",
            "a1|_",
            residue=2,
        )
        assert check_positional(fixed).positional

    def test_verdicts_match_golden(self, golden_complement):
        for entry, ns in golden_complement:
            assert check_positional(ns).positional == entry["positional"], entry["name"]

    def test_report_json_shape(self):
        report = check_positional(make_system("a->aab,b->a", "b|a"))
        data = report.to_json_dict()
        assert set(data) >= {"positional", "E", "c2_added", "condition_C", "U", "V",
                             "unconstrained", "counterexample"}
        assert data["positional"] is True
        assert data["counterexample"] is None
        report2 = check_positional(make_system("a->abb,b->ab", "b|a"))
        data2 = report2.to_json_dict()
        assert data2["U"] is None
        assert data2["counterexample"]["letters"] == ["a", "b"]

    def test_mismatched_report_refused(self):
        from dataclasses import replace

        good = check_positional(make_system("a->aab,b->a", "b|a"))
        bad = check_positional(make_system("a->abb,b->ab", "b|a"))
        for fields in (
            {"positional": False},  # weights, no counterexample
            {"counterexample": bad.counterexample},  # both
            {"weights": None},  # neither
        ):
            with pytest.raises(ValueError, match="exactly when"):
                replace(good, **fields)
        with pytest.raises(ValueError, match="exactly when"):
            replace(bad, positional=True)


class TestWeights:
    def test_intertwined_weights(self):
        even = make_system("a->ccd,b->cd,c->ab,d->a", "a|a", residue=0)
        odd = make_system("a->ccd,b->cd,c->ab,d->a", "a|a", residue=1)
        assert list(weights(even, 6).U) == [1, 2, 5, 8, 21, 34]
        assert list(weights(odd, 6).U) == [1, 3, 5, 13, 21, 55]

    def test_doubling_weights(self):
        ns = make_system("a->bca,b->bb,c->b", "a|b")
        table = weights(ns, 11)
        assert list(table.U) == [2**i for i in range(11)]
        assert table.V[0] == 1
        assert list(table.V[1:]) == [3 * 2 ** (i - 1) for i in range(1, 11)]

    def test_fibonacci_two_sided(self):
        ns = make_system("a->ab,b->a", "a|a")
        assert list(weights(ns, 6).U) == [1, 2, 3, 5, 8, 13]

    def test_unconstrained_positions_weight_zero(self):
        ns = make_system("a->b,b->aa", "_|a")
        table = weights(ns, 6)
        assert list(table.U) == [1, 0, 2, 0, 4, 0]
        assert list(table.unconstrained) == [1, 3, 5]

    def test_not_positional_raises(self):
        with pytest.raises(NotPositionalSystemError):
            weights(make_system("a->abb,b->ab", "b|a"), 4)

    def test_count_past_the_level_cap_refused_before_any_row(self):
        ns = make_system("a->aab,b->a", "b|a")
        with pytest.raises(DigitCapExceededError):
            weights(ns, _MAX_LEVEL + 1)
        assert len(ns.substitution.lengths.rows(0)) == 1

    def test_soundness_on_golden(self, golden_complement):
        for entry, ns in golden_complement:
            report = check_positional(ns, weight_count=60)
            if not report.positional:
                continue
            U, V = report.weights.U, report.weights.V
            for n in range(-(10**4), 10**4 + 1):
                if ns.contains(n):
                    assert evaluate_with_weights(rep(ns, n), U, V) == n, entry["name"]

    def test_chain_systems_weight_equals_seed_image_length(self):
        # over N, chain-shaped systems weight position l by |mu^l(seed)|
        from dtnum import image_length

        for text in ("a->ab,b->a", "a->ab,b->ac,c->a", "a->aab,b->aaaa", "a->ab,b->b"):
            ns = make_system(text, "_|a")
            table = weights(ns, 10)
            assert list(table.U) == [
                image_length(ns.substitution, "a", i) for i in range(10)
            ], text

    def test_condition_letter_supplies_weight_when_sets_are_empty(self):
        # all residue sets empty, but the column -2 letter pins position r j
        ns = make_system("b->cd,c->e,d->b,e->c", "b|_", residue=1)
        rs = compute_residue_sets(ns)
        assert rs.base == ((), ())
        assert [ob.exponent for ob in rs.obligations] == [0]
        assert rs.obligations[0].letter == "c"
        report = check_positional(ns)
        assert report.positional
        table = weights(ns, 4)
        assert list(table.U) == [1, 0, 0, 0]
        assert list(table.unconstrained) == [1, 2, 3]
        for n in range(-60, 0):
            word = rep(ns, n)
            assert val(ns, word) == (n, True)
            assert evaluate_with_weights(word, table.U, weights(ns, len(word.digits) + 1).V) == n


class TestFitOracle:
    def test_silver_contradiction(self):
        fit = fit_weights_oracle(make_system("a->abb,b->ab", "b|a"), -5, 5)
        assert isinstance(fit, WeightContradiction)
        assert fit.witnesses == (3, 5)
        assert "U1" in fit.detail

    def test_interleaved_square_contradiction(self):
        ns = make_system("a->ababa,b->aba,c->ccdcd,d->ccd", "_|a")
        fit = fit_weights_oracle(ns, 0, 10)
        assert isinstance(fit, WeightContradiction)
        assert fit.witnesses == (5, 8)

    def test_silver_consistent_matches_weights(self):
        ns = make_system("a->aab,b->a", "b|a")
        fit = fit_weights_oracle(ns, -50, 50)
        assert isinstance(fit, ConsistentWeights)
        top = max([*fit.U, *fit.V], default=0)
        table = weights(ns, top + 1)
        for i, u in fit.U.items():
            assert u == table.U[i]
        for i, v in fit.V.items():
            assert v == table.V[i]

    def test_agreement_on_golden(self, golden_complement):
        for entry, ns in golden_complement:
            fit = fit_weights_oracle(ns, -300, 300)
            assert isinstance(fit, ConsistentWeights) == entry["positional"], entry["name"]

    @pytest.mark.parametrize(
        "sub, seed, lo, hi, witnesses, detail",
        [
            ("a->aba,b->bb", "a|a", 4, 5, (4, 5),
             "U0 is forced to 3/2, not a natural number"),
            ("a->cab,b->a,c->b", "a|a", 3, 5, (3, 4, 5),
             "U2 is forced to -1, not a natural number"),
        ],
    )
    def test_forced_value_not_natural(self, sub, seed, lo, hi, witnesses, detail):
        fit = fit_weights_oracle(make_system(sub, seed), lo, hi)
        assert fit == WeightContradiction(witnesses, detail)

    def test_matches_fraction_reference(self, golden_complement):
        """The integer-only elimination returns what the ``Fraction`` one
        returned: the same coordinates, witnesses and detail text."""
        from helpers import corpus_systems, fit_weights_reference

        for ns in corpus_systems():
            assert fit_weights_oracle(ns, -60, 60) == fit_weights_reference(ns, -60, 60), ns
        for entry, ns in golden_complement:
            assert fit_weights_oracle(ns, -300, 300) == fit_weights_reference(
                ns, -300, 300
            ), entry["name"]

    def test_matches_fraction_reference_on_short_windows(self):
        """Windows of 1 to 8 integers leave coordinates underdetermined, so
        rows meet negative pivots and forced values that are fractions,
        negative or zero."""
        from crosscheck_two_letters import seeded_systems
        from helpers import fit_weights_reference

        for ns in seeded_systems(substitution_from_text("a->a,b->bab")):
            for lo in range(-12, 13):
                for hi in range(lo, min(lo + 8, 13)):
                    assert fit_weights_oracle(ns, lo, hi) == fit_weights_reference(
                        ns, lo, hi
                    ), (ns, lo, hi)


def test_two_letter_crosscheck_covers_every_system():
    """The exhaustive cross-check script (run as its own CI step) still
    enumerates every accepted substitution and every seed, period and residue."""
    from crosscheck_two_letters import two_letter_substitutions, two_letter_systems

    assert len(two_letter_substitutions()) == 188
    assert len(two_letter_systems()) == 3996


def test_analysis_sweep_is_pinned(golden_complement):
    """``check_positional`` on the golden, corpus and random systems, each
    seed at its period and at twice it, hashed together: the JSON report
    and the notes. A change to any letter set, obligation, verdict, weight
    or note changes the hash."""
    from helpers import corpus_systems, random_substitutions

    systems = [ns for _, ns in golden_complement] + corpus_systems()
    for sub in random_substitutions(random.Random(8), 200):
        for domain in ("Z", "N", "Zneg"):
            for spec in find_seeds(sub, domain):
                for period in (spec.period, 2 * spec.period):
                    seed = SeedSpec(spec.left, spec.right, period)
                    systems += [NumerationSystem(sub, seed, r) for r in range(period)]
    digest = hashlib.md5()
    for ns in systems:
        report = check_positional(ns)
        digest.update(json.dumps(report.to_json_dict()).encode())
        digest.update(repr(report.notes).encode())
    assert len(systems) == 7_657
    assert digest.hexdigest() == "ff6d620b774a72413ea45f74025f17ca"
