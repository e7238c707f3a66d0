from __future__ import annotations

import random

import pytest

from dtnum import (
    FabreForm,
    SeedSpec,
    UPWord,
    bertrand_classify,
    classification_json,
    expansion_word,
    fabre_form,
    fabre_like_periodic,
    image_length,
    inverse_quasi_greedy,
    make_system,
    nonfinal_letters,
    parry_check,
    parse_substitution,
    quasi_greedy,
    rep,
    rep_classic_N,
    simplify,
    tree_shape_equal,
    NumerationSystem,
    Substitution,
)
from dtnum.classify import (
    CANONICAL_PARRY,
    CANONICAL_SIMPLE_PARRY,
    NON_CANONICAL_SIMPLE_PARRY,
    NOT_BERTRAND,
    NOT_FABRE_LIKE,
    TRIVIAL,
)
from dtnum.errors import NotLengthUniformError, ShapeMismatchError
from helpers import greedy_rep


class TestNonfinal:
    def test_examples(self):
        assert nonfinal_letters(parse_substitution("a->ab,b->ba")) == ("a", "b")
        assert nonfinal_letters(parse_substitution("a->ab,b->ac,c->a")) == ("a",)
        assert nonfinal_letters(parse_substitution("a->ab,b->b")) == ("a",)


class TestTreeShape:
    def test_reflexive(self):
        sub = parse_substitution("a->ab,b->ac,c->a")
        assert tree_shape_equal(sub, "a", sub, "a")

    def test_fibonacci_vs_tribonacci(self):
        fib = parse_substitution("a->ab,b->a")
        trib = parse_substitution("a->ab,b->ac,c->a")
        assert not tree_shape_equal(fib, "a", trib, "a")

    def test_equivalence_relation_on_fixture_roots(self, fixture_substitutions):
        roots = [
            (sub, letter)
            for sub in fixture_substitutions
            for letter in sub.alphabet[:2]
        ]
        m = [
            [tree_shape_equal(s1, l1, s2, l2) for (s2, l2) in roots]
            for (s1, l1) in roots
        ]
        n = len(roots)
        for i in range(n):
            assert m[i][i]
            for j in range(n):
                assert m[i][j] == m[j][i]
                for k in range(n):
                    if m[i][j] and m[j][k]:
                        assert m[i][k]


class TestSimplify:
    def test_thue_morse(self):
        sub = parse_substitution("a->ab,b->ba")
        sub2, seed2, mapping = simplify(sub, SeedSpec(None, "a", 1))
        assert sub2.to_dsl() == "a->aa"
        assert seed2.right == "a"
        assert mapping == {"a": "a", "b": "a"}
        assert tree_shape_equal(sub, "a", sub2, "a")

    def test_tribonacci_unchanged(self):
        sub = parse_substitution("a->ab,b->ac,c->a")
        sub2, seed2, _ = simplify(sub, SeedSpec(None, "a", 1))
        assert sub2 == sub

    def test_intertwined_not_uniform(self):
        sub = parse_substitution("a->ccd,b->cd,c->ab,d->a")
        with pytest.raises(NotLengthUniformError) as exc:
            simplify(sub, SeedSpec("a", "a", 2))
        witness = exc.value.witness
        assert witness[:2] == ("a", "c")
        assert witness[3:] == (3, 2)

    def test_mismatch_past_exponent_zero_found(self):
        # every letter has length 1 at exponent 0; the lengths part at 1
        with pytest.raises(NotLengthUniformError) as exc:
            simplify(parse_substitution("a->bab,b->a"), SeedSpec("a", "a", 2))
        assert exc.value.witness == ("a", "b", 1, 3, 1)

    def test_preserves_representations(self):
        for text, seed_text in (("a->ab,b->ba", "a|a"), ("a->ba,b->ab", "b|a")):
            ns = make_system(text, seed_text)
            sub2, seed2, _ = simplify(ns.substitution, ns.seed)
            ns2 = NumerationSystem(sub2, seed2, ns.residue)
            for n in range(-1000, 1001):
                assert rep(ns, n) == rep(ns2, n), (text, n)


class TestFabreForm:
    def test_fibonacci(self):
        form = fabre_form(parse_substitution("a->ab,b->a"), "a")
        assert (form.digits, form.cycle_entry) == ((1, 0), 1)

    def test_tribonacci(self):
        form = fabre_form(parse_substitution("a->ab,b->ac,c->a"), "a")
        assert (form.digits, form.cycle_entry) == ((1, 1, 0), 1)

    def test_thue_morse_none(self):
        assert fabre_form(parse_substitution("a->ab,b->ba"), "a") is None

    def test_trivial_chain(self):
        form = fabre_form(parse_substitution("a->ab,b->b"), "a")
        assert (form.digits, form.cycle_entry) == ((1, 0), 2)

    def test_dense(self):
        form = fabre_form(parse_substitution("a->aab,b->aaaa"), "a")
        assert (form.digits, form.cycle_entry) == ((2, 3), 1)

    def test_binary(self):
        form = fabre_form(parse_substitution("a->aa"), "a")
        assert (form.digits, form.cycle_entry) == ((1,), 1)

    def test_periodic_chain_diagnostic(self):
        # seed on a first-letter 2-cycle: the chain shape holds around e, not a
        sub = parse_substitution("a->xya,x->a,y->a")
        assert fabre_form(sub, "a") is None
        assert not fabre_like_periodic(sub, "a")  # two non-final letters x, y
        sub2 = parse_substitution("a->xxa,x->a")
        assert fabre_form(sub2, "a") is None
        assert fabre_like_periodic(sub2, "a")


class TestUPWord:
    def test_normalization_primitive_cycle(self):
        assert UPWord((), (2, 3, 2, 3)) == UPWord((), (2, 3))

    def test_normalization_absorbs_tail(self):
        assert UPWord((2, 3), (3,)) == UPWord((2,), (3,))
        assert UPWord((1, 1, 0), (0,)) == UPWord((1, 1), (0,))

    def test_expansion_words(self):
        fib = fabre_form(parse_substitution("a->ab,b->a"), "a")
        assert expansion_word(fib) == UPWord((), (1, 0))
        trivial = fabre_form(parse_substitution("a->ab,b->b"), "a")
        assert expansion_word(trivial) == UPWord((1,), (0,))
        dense = fabre_form(parse_substitution("a->aab,b->aaaa"), "a")
        assert expansion_word(dense) == UPWord((), (2, 3))

    def test_prefix(self):
        w = UPWord((1,), (2, 0))
        assert w.prefix(6) == (1, 2, 0, 2, 0, 2)


class TestQuasiGreedy:
    def test_golden_ratio(self):
        assert quasi_greedy(UPWord((1, 1), (0,))) == UPWord((), (1, 0))

    def test_dense(self):
        assert quasi_greedy(UPWord((2, 4), (0,))) == UPWord((), (2, 3))

    def test_unchanged_when_not_finite(self):
        w = UPWord((1,), (2, 1))
        assert quasi_greedy(w) == w

    def test_all_zero_rejected(self):
        with pytest.raises(ShapeMismatchError):
            quasi_greedy(UPWord((0,), (0,)))

    def test_inverse(self):
        assert inverse_quasi_greedy(UPWord((), (1, 0))) == UPWord((1, 1), (0,))
        assert inverse_quasi_greedy(UPWord((), (2, 3))) == UPWord((2, 4), (0,))
        with pytest.raises(ShapeMismatchError):
            inverse_quasi_greedy(UPWord((2,), (1,)))

    def test_round_trip_on_periodic_parry_words(self):
        rng = random.Random(7)
        done = 0
        while done < 40:
            cyc = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
            if not any(cyc):
                continue
            # rotate the maximum to the front so the shift condition can hold
            top = cyc.index(max(cyc))
            w = UPWord((), cyc[top:] + cyc[:top])
            if parry_check(w) is not None:
                continue
            assert quasi_greedy(inverse_quasi_greedy(w)) == w
            done += 1


class TestParry:
    def test_fibonacci_passes(self):
        assert parry_check(UPWord((), (1, 0))) is None

    def test_dense_fails_at_one(self):
        assert parry_check(UPWord((), (2, 3))) == 1

    def test_trivial_passes(self):
        assert parry_check(UPWord((1,), (0,))) is None


class TestBertrandClassify:
    def test_golden_examples(self):
        assert bertrand_classify(parse_substitution("a->aab,b->aaaa"), "a") == NOT_BERTRAND
        assert bertrand_classify(parse_substitution("a->ab,b->b"), "a") == TRIVIAL
        assert bertrand_classify(parse_substitution("a->ab,b->a"), "a") == CANONICAL_SIMPLE_PARRY
        assert bertrand_classify(parse_substitution("a->ab,b->ba"), "a") == NOT_FABRE_LIKE

    def test_non_canonical_simple_parry(self):
        # the chain of (10)^w improperly written as 110^w
        assert (
            bertrand_classify(parse_substitution("a->ab,b->ac,c->c"), "a")
            == NON_CANONICAL_SIMPLE_PARRY
        )

    def test_canonical_parry_non_simple(self):
        assert (
            bertrand_classify(parse_substitution("a->aab,b->ab"), "a")
            == CANONICAL_PARRY
        )

    def test_classification_json(self):
        data = classification_json(parse_substitution("a->ab,b->a"), "a")
        assert data["class"] == CANONICAL_SIMPLE_PARRY
        assert data["fabre"] == {"digits": [1, 0], "cycle_entry": 1}
        assert data["d_word"] == {"preperiod": [], "cycle": [1, 0]}
        assert data["parry"] == "pass"
        none = classification_json(parse_substitution("a->ab,b->ba"), "a")
        assert none["fabre"] is None and none["class"] == NOT_FABRE_LIKE

    def test_fabre_form_runs_once_per_classification(self, monkeypatch):
        import dtnum.classify as classify

        calls = []

        def counted(sub, a1):
            calls.append(a1)
            return fabre_form(sub, a1)

        monkeypatch.setattr(classify, "fabre_form", counted)
        sub = parse_substitution("a->ab,b->ba")
        assert "diagnostic" not in classification_json(sub, "a")
        assert calls == ["a"]
        assert bertrand_classify(sub, "a") == NOT_FABRE_LIKE
        assert calls == ["a", "a"]
        periodic = classification_json(parse_substitution("a->xxa,x->a"), "a")
        assert periodic["diagnostic"] == "FabreLikePeriodic"
        assert len(calls) == 3

    def test_bertrand_classes_match_greedy(self):
        for text in ("a->ab,b->a", "a->ab,b->b", "a->aa", "a->ab,b->ac,c->c",
                     "a->aab,b->ab"):
            sub = parse_substitution(text)
            cls = bertrand_classify(sub, "a")
            assert cls not in (NOT_FABRE_LIKE, NOT_BERTRAND)
            ns = make_system(sub, "_|a")
            from dtnum import weights

            count = 2
            while image_length(sub, "a", count - 1) <= 1000:
                count += 1
            table = weights(ns, count)
            for n in range(0, 1001):
                assert greedy_rep(table.U, n) == rep_classic_N(sub, "a", n), (text, n)

    def test_dense_is_not_greedy(self):
        sub = parse_substitution("a->aab,b->aaaa")
        assert rep_classic_N(sub, "a", 9).text() == "23"
        assert greedy_rep([1, 3, 10, 32], 9).text() == "30"


def _fabre_substitution(form: FabreForm) -> Substitution:
    letters = tuple(f"a{i}" for i in range(1, form.size + 1))
    images = []
    for i, d in enumerate(form.digits):
        target = letters[i + 1] if i + 1 < form.size else letters[form.cycle_entry - 1]
        images.append(("a1",) * d + (target,))
    return Substitution(letters, tuple(images))


class TestChainProperties:
    FIXTURES = ("a->ab,b->a", "a->ab,b->ac,c->a", "a->aab,b->aaaa", "a->ab,b->b")

    def _language_by_length(self, sub, root, max_len):
        words = {()}
        n = 0
        while True:
            w = rep_classic_N(sub, root, n)
            if len(w.digits) > max_len:
                break
            words.add(w.digits)
            n += 1
        return words

    def test_zero_extension_property(self):
        for text in self.FIXTURES:
            sub = parse_substitution(text)
            lang9 = self._language_by_length(sub, "a", 9)
            lang8 = {w for w in lang9 if len(w) <= 8}
            # both directions of: w is a representation iff w0 is, over
            # nonempty words (the empty word represents 0, while a bare
            # "0" is never canonical: leading digits are nonzero)
            for w in lang8:
                if w:
                    assert w + (0,) in lang9, (text, w)
            for w in lang9:
                if len(w) >= 2 and w[-1] == 0:
                    assert w[:-1] in lang8, (text, w)

    def test_lexicographically_greatest_form_a_prefix_chain(self):
        for text in self.FIXTURES:
            sub = parse_substitution(text)
            lang = self._language_by_length(sub, "a", 8)
            greatest = {}
            for w in lang:
                if w and (len(w) not in greatest or w > greatest[len(w)]):
                    greatest[len(w)] = w
            for length in range(1, 8):
                assert greatest[length] == greatest[length + 1][: length], text

    def test_matching_weights_give_identical_representations(self):
        rng = random.Random(99)
        pairs = []
        buckets: dict[tuple[int, ...], list[FabreForm]] = {}
        while len(pairs) < 12:
            size = rng.randint(1, 4)
            digits = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(size - 1)]
            form = FabreForm(tuple(digits), rng.randint(1, size))
            sub = _fabre_substitution(form)
            key = tuple(image_length(sub, "a1", i) for i in range(12))
            for other in buckets.setdefault(key, []):
                if other != form:
                    pairs.append((other, form))
                    break
            else:
                buckets[key].append(form)
        for f1, f2 in pairs:
            s1, s2 = _fabre_substitution(f1), _fabre_substitution(f2)
            for n in range(0, 1001):
                assert rep_classic_N(s1, "a1", n) == rep_classic_N(s2, "a1", n), (f1, f2, n)
