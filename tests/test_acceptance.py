"""Acceptance suite: one test per shipped criterion, exact expectations.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion; each test also prints an ``ACCEPTANCE`` line (visible with
``-s``).
"""

from __future__ import annotations

import random

from dtnum import (
    ConsistentWeights,
    ExpansionOracle,
    FabreForm,
    WeightContradiction,
    bertrand_classify,
    check_positional,
    compute_residue_sets,
    expansion_word,
    fabre_form,
    fit_weights_oracle,
    image_length,
    make_system,
    parry_check,
    parse_substitution,
    rep,
    rep_classic_N,
    simplify,
    tree_shape_equal,
    val,
    val_classic_N,
    weights,
    SeedSpec,
    Substitution,
)
from dtnum.golden import classic_fixtures, complement_fixtures
from helpers import corpus_systems, descend_with_invariants, greedy_rep

EIGHT = (
    "a1 -> b c a2, f -> b b, a2 -> a3, b -> d d, c -> d d e, a3 -> a1, "
    "d -> f f, e -> f f f f"
)
EIGHT_FIXED = EIGHT.replace("c -> d d e", "c -> d e")


def _ok(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {label}")


def test_c01_tribonacci_table():
    sub = parse_substitution("a->ab,b->ac,c->a")
    expected = ["ε", "1", "10", "11", "100", "101", "110"]
    got = [rep_classic_N(sub, "a", n).text() for n in range(7)]
    assert got == expected
    _ok(1, "classic table for the three-letter chain, n = 0..6")


def test_c02_three_letter_two_sided_table():
    ns = make_system("a->abc,b->c,c->ac", "c|a")
    expected = {
        -5: "100", -4: "101", -3: "102", -2: "10", -1: "1",
        0: "0", 1: "01", 2: "02", 3: "010", 4: "020", 5: "021",
    }
    for n, text in expected.items():
        word = rep(ns, n)
        assert word.text() == text, n
        assert val(ns, word) == (n, True), n
    _ok(2, "two-sided table reproduced and inverted canonically, n = -5..5")


def test_c03_silver_mean_pair():
    good = make_system("a->aab,b->a", "b|a")
    bad = make_system("a->abb,b->ab", "b|a")
    table_good = {
        -5: "10112", -4: "10120", -3: "100", -2: "101", -1: "1",
        0: "0", 1: "001", 2: "002", 3: "010", 4: "011", 5: "012",
    }
    table_bad = {
        -5: "100", -4: "101", -3: "102", -2: "10", -1: "1",
        0: "0", 1: "01", 2: "02", 3: "010", 4: "011", 5: "020",
    }
    for ns, table in ((good, table_good), (bad, table_bad)):
        for n, text in table.items():
            assert rep(ns, n).text() == text, n
    assert check_positional(good).positional
    assert not check_positional(bad).positional
    fit = fit_weights_oracle(bad, -5, 5)
    assert isinstance(fit, WeightContradiction)
    assert fit.witnesses == (3, 5)
    assert "U1" in fit.detail
    _ok(3, "silver-mean tables, verdicts, and the U1 contradiction from 3 vs 5")


def test_c04_intertwined_tables_and_weights():
    even = make_system("a->ccd,b->cd,c->ab,d->a", "a|a", residue=0)
    odd = make_system("a->ccd,b->cd,c->ab,d->a", "a|a", residue=1)
    table_even = {
        -4: "101", -3: "110", -2: "111", -1: "1", 0: "0", 1: "001",
        2: "010", 3: "011", 4: "020", 5: "00100", 6: "00101", 7: "00110",
    }
    table_odd = {
        -4: "1111", -3: "10", -2: "11", -1: "12", 0: "00", 1: "01",
        2: "02", 3: "0010", 4: "0011", 5: "0100", 6: "0101", 7: "0102",
    }
    for ns, table in ((even, table_even), (odd, table_odd)):
        for n, text in table.items():
            assert rep(ns, n).text() == text, (ns.residue, n)
    assert list(weights(even, 6).U) == [1, 2, 5, 8, 21, 34]
    assert list(weights(odd, 6).U) == [1, 3, 5, 13, 21, 55]
    _ok(4, "intertwined system: both residue tables and weight prefixes exact")


def test_c05_doubling_left():
    ns = make_system("a->bca,b->bb,c->b", "a|b")
    expected = {-1: "1", -2: "11", -3: "10", -4: "110", -5: "101", -6: "100"}
    for n, text in expected.items():
        assert rep(ns, n).text() == text, n
    assert check_positional(ns).positional
    table = weights(ns, 11)
    assert list(table.U) == [2**i for i in range(11)]
    assert table.V[0] == 1
    assert list(table.V)[1:] == [3 * 2 ** (i - 1) for i in range(1, 11)]
    _ok(5, "left doubling system: reps -1..-6, verdict, and both weight formulas")


def test_c06_eight_letter_system():
    ns = make_system(EIGHT, "a1|_", residue=2)
    assert ns.period == 3
    assert rep(ns, -6).text() == "100"
    assert rep(ns, -4).text() == "110"
    assert rep(ns, -1).text() == "120"
    assert not check_positional(ns).positional
    fixed = make_system(EIGHT_FIXED, "a1|_", residue=2)
    assert check_positional(fixed).positional
    for n in range(-200, 0):
        assert val(fixed, rep(fixed, n)) == (n, True), n
    _ok(6, "eight-letter system: reps, verdict flip after the image edit, inversion")


def test_c07_spine_blocked_sets():
    ns = make_system("a->bcd,d->ba,b->bb,c->b", "a|b")
    rs = compute_residue_sets(ns)
    assert rs.full(0) == ("b",)
    assert rs.full(1) == ("b", "c")
    assert rs.added[1] == ("c",)
    assert not check_positional(ns).positional
    _ok(7, "column -2 letter adjoined at residue 1; verdict not positional")


def test_c08_renamed_square():
    sub = parse_substitution("a->ababa,b->aba,c->ccdcd,d->ccd")
    assert rep_classic_N(sub, "a", 5).text() == "10"
    assert rep_classic_N(sub, "a", 8).text() == "20"
    ns = make_system(sub, "_|a")
    assert not check_positional(ns).positional
    _ok(8, "renamed square: rep(5) = 10, rep(8) = 20, not positional")


def test_c09_bertrand_classification():
    dense = parse_substitution("a->aab,b->aaaa")
    assert list(weights(make_system(dense, "_|a"), 4).U) == [1, 3, 10, 32]
    assert rep_classic_N(dense, "a", 9).text() == "23"
    assert bertrand_classify(dense, "a") == "NotBertrand"
    assert parry_check(expansion_word(fabre_form(dense, "a"))) == 1

    fib = parse_substitution("a->ab,b->a")
    assert bertrand_classify(fib, "a") == "CanonicalSimpleParry"
    fib_table = weights(make_system(fib, "_|a"), 18)
    for n in range(0, 1001):
        assert greedy_rep(fib_table.U, n) == rep_classic_N(fib, "a", n), n

    assert bertrand_classify(parse_substitution("a->ab,b->b"), "a") == "Trivial"
    _ok(9, "dense chain NotBertrand (shift 1); Zeckendorf canonical; chain trivial")


def test_c10_thue_morse_simplification():
    sub = parse_substitution("a->ab,b->ba")
    sub2, seed2, _mapping = simplify(sub, SeedSpec(None, "a", 1))
    assert sub2.to_dsl() == "a->aa"
    for n in range(0, 1001):
        assert rep_classic_N(sub2, seed2.right, n).text() == (bin(n)[2:] if n else "ε")
    assert tree_shape_equal(sub, "a", sub2, seed2.right)
    _ok(10, "two-letter swap merges to pure doubling; binary reps; equal tree shape")


def test_c11_property_suite():
    fixtures = list(complement_fixtures())
    for entry, ns in fixtures:
        name = entry["name"]
        p, r = ns.period, ns.residue
        for n in range(-10**4, 10**4 + 1):
            if not ns.contains(n):
                continue
            word = rep(ns, n)
            assert val(ns, word) == (n, True), (name, n)
            assert len(word.digits) % p == r, (name, n)
            assert word.sign == (0 if n >= 0 else 1), (name, n)
            # decomposition-sum bound at every level, via an independent descent
            assert descend_with_invariants(ns, n) == list(word.digits), (name, n)
        # descent equals the explicit-expansion oracle through level 8
        oracle = ExpansionOracle(ns)
        sub = ns.substitution
        hi = image_length(sub, ns.right, 8) if ns.right else 0
        lo = -image_length(sub, ns.left, 8) if ns.left else 0
        for n in range(lo + 1, hi):
            if ns.contains(n):
                assert oracle.rep(n) == rep(ns, n), (name, n)
    for entry, sub, root in classic_fixtures():
        for n in range(0, 10**4 + 1):
            assert val_classic_N(sub, root, rep_classic_N(sub, root, n)) == (n, True)

    # zero extension and greatest-word prefix chain for the chain-shaped fixtures
    for text in ("a->ab,b->a", "a->ab,b->ac,c->a", "a->aab,b->aaaa", "a->ab,b->b"):
        sub = parse_substitution(text)
        lang = {()}
        n = 0
        while True:
            w = rep_classic_N(sub, "a", n).digits
            if len(w) > 9:
                break
            lang.add(w)
            n += 1
        for w in lang:
            if 1 <= len(w) <= 8:
                assert w + (0,) in lang, (text, w)
        for w in lang:
            if len(w) >= 2 and w[-1] == 0:
                assert w[:-1] in lang, (text, w)
        greatest = {}
        for w in lang:
            if w and (len(w) not in greatest or w > greatest[len(w)]):
                greatest[len(w)] = w
        for length in range(1, 8):
            assert greatest[length] == greatest[length + 1][:length], text
    _ok(11, "inversion/digit-count/sign/bound/oracle sweeps and both chain properties")


def test_c12_corpus_agreement():
    systems = corpus_systems()
    assert len(systems) >= 200
    disagreements = []
    unresolved = []
    for ns in systems:
        report = check_positional(ns)
        fit = fit_weights_oracle(ns, -500, 500)
        consistent = isinstance(fit, ConsistentWeights)
        if report.positional:
            if not consistent:
                disagreements.append(ns)
                continue
            top = max([*fit.U, *fit.V], default=0)
            table = weights(ns, top + 1)
            if any(table.U[i] != u for i, u in fit.U.items()) or any(
                table.V[i] != v for i, v in fit.V.items()
            ):
                disagreements.append(ns)
        elif consistent:
            unresolved.append(ns)  # no contradiction surfaced inside the range
    assert disagreements == []
    assert unresolved == []
    _ok(12, f"corpus of {len(systems)} systems: zero disagreements, zero unresolved")


def _chain_substitution(form: FabreForm) -> Substitution:
    letters = tuple(f"a{i}" for i in range(1, form.size + 1))
    images = []
    for i, d in enumerate(form.digits):
        target = letters[i + 1] if i + 1 < form.size else letters[form.cycle_entry - 1]
        images.append(("a1",) * d + (target,))
    return Substitution(letters, tuple(images))


def test_c13_matching_weights_identical_reps():
    rng = random.Random(1312)
    pairs: list[tuple[FabreForm, FabreForm]] = []
    buckets: dict[tuple[int, ...], list[FabreForm]] = {}
    while len(pairs) < 50:
        size = rng.randint(1, 4)
        digits = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(size - 1)]
        form = FabreForm(tuple(digits), rng.randint(1, size))
        sub = _chain_substitution(form)
        key = tuple(image_length(sub, "a1", i) for i in range(12))
        bucket = buckets.setdefault(key, [])
        for other in bucket:
            if other != form and (other, form) not in pairs:
                pairs.append((other, form))
                break
        bucket.append(form)
    for f1, f2 in pairs[:50]:
        s1, s2 = _chain_substitution(f1), _chain_substitution(f2)
        for n in range(0, 1001):
            assert rep_classic_N(s1, "a1", n) == rep_classic_N(s2, "a1", n), (f1, f2, n)
    _ok(13, "50 chain pairs with equal first-12 weights: identical reps on 0..1000")
