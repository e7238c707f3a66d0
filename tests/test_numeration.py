from __future__ import annotations

import dataclasses
import hashlib
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from dtnum import (
    DigitWord,
    ExpansionOracle,
    decompose_prefix,
    evaluate_with_weights,
    find_seeds,
    image_length,
    make_system,
    minimal_period,
    oracle_rep,
    parse_substitution,
    rep,
    rep_classic_N,
    val,
    val_classic_N,
    weights,
    NumerationSystem,
    Substitution,
)
from dtnum import core, kernels, numeration
from dtnum.errors import (
    DigitCapExceededError,
    DigitOutOfRangeError,
    InvalidSeedError,
    NotFixedPointSeedError,
    NumerationError,
    OffsetOutOfRangeError,
    SideMissingError,
)
from helpers import (
    budget_close,
    canonicality_words,
    check_fingerprints,
    corpus_systems,
    descend_with_invariants,
    expand_word,
    horner_fold,
    period_multiples,
    PlainRows,
    random_path,
    random_substitutions,
    reference_rep,
    reference_val,
    spine_digits,
    twos_complement_rep,
    twos_complement_val,
)


class TestDigitWord:
    def test_text_plain(self):
        assert DigitWord((1, 0), 0).text() == "010"
        assert DigitWord(()).text() == "ε"
        assert DigitWord((), 1).text() == "1"

    def test_text_dotted(self):
        assert DigitWord((0, 12, 0), 1).text() == "1.0.12.0"

    def test_parse_round_trip(self):
        for w in (DigitWord((1, 0), 0), DigitWord((0, 12, 0), 1), DigitWord((3,))):
            signed = w.sign is not None
            assert DigitWord.parse(w.text(), signed=signed) == w

    def test_negative_digit_rejected(self):
        with pytest.raises(ValueError, match="digits must be non-negative"):
            DigitWord((1, -1))

    def test_parse_empty(self):
        assert DigitWord.parse("ε", signed=False) == DigitWord(())
        with pytest.raises(ValueError):
            DigitWord.parse("", signed=True)

    @pytest.mark.parametrize(
        "text, signed",
        [
            ("0²", True),  # '²'.isdigit(), but int('²') fails
            ("０２", True),  # fullwidth digits, which int() reads
            ("0.٣", True),  # an Arabic-Indic three, which int() reads
            ("0.1_0", True),  # int('1_0') == 10
            ("01_0", True),
            ("0. 1", True),  # int(' 1') == 1
            ("0.+1", True),
            ("0..1", True),
            ("²", False),
            ("1.", False),
        ],
        ids=(
            "superscript", "fullwidth", "arabic-indic", "dotted-underscore",
            "underscore", "dotted-blank", "dotted-plus", "empty-component",
            "unsigned-superscript", "trailing-dot",
        ),
    )
    def test_parse_takes_ascii_decimal_digits_only(self, text, signed):
        with pytest.raises(ValueError, match="^bad digit word "):
            DigitWord.parse(text, signed=signed)


def _assert_like_a_validated_word(word: DigitWord) -> None:
    """``word`` cannot be told apart from the same word built by ``DigitWord``."""
    assert type(word) is DigitWord
    twin = DigitWord(word.digits, word.sign)
    assert word == twin
    assert (hash(word), repr(word), vars(word)) == (hash(twin), repr(twin), vars(twin))
    assert type(word.digits) is tuple
    for name in ("digits", "sign"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(word, name, None)


class TestTrustedWords:
    """``rep``, ``rep_classic_N`` and ``ExpansionOracle.rep`` build their
    words without ``DigitWord``'s checks; the words must still be the same
    objects in every observable way."""

    def test_golden_complement(self, golden_complement):
        for _entry, ns in golden_complement:
            oracle = ExpansionOracle(ns)
            for n in range(-64, 65):
                if ns.contains(n):
                    _assert_like_a_validated_word(rep(ns, n))
                    _assert_like_a_validated_word(oracle.rep(n))
            for n in (10**30 + 4242, -(10**30 + 4242)):
                if ns.contains(n):
                    _assert_like_a_validated_word(rep(ns, n))

    def test_golden_classic(self, golden_classic):
        for _entry, sub, root in golden_classic:
            for n in [*range(65), 10**30 + 4242]:
                _assert_like_a_validated_word(rep_classic_N(sub, root, n))

    def test_corpus(self):
        classic = 0
        for ns in corpus_systems():
            oracle = ExpansionOracle(ns)
            for n in range(-16, 17):
                if ns.contains(n):
                    _assert_like_a_validated_word(rep(ns, n))
                    _assert_like_a_validated_word(oracle.rep(n))
            if ns.right is not None:
                try:
                    words = [rep_classic_N(ns.substitution, ns.right, n) for n in range(17)]
                except NotFixedPointSeedError:
                    continue
                classic += 1
                for word in words:
                    _assert_like_a_validated_word(word)
        assert classic


class TestDecompose:
    def test_tribonacci_column_three(self):
        sub = parse_substitution("a->ab,b->ac,c->a")
        seq = decompose_prefix(sub, "a", 3, 3)
        assert [(s.prefix, s.pivot) for s in seq.steps] == [
            (("a",), "c"),
            (("a",), "b"),
            ((), "a"),
        ]
        assert seq.digits == (0, 1, 1)

    def test_zero_offset_follows_the_leftmost_chain(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        seq = decompose_prefix(sub, "a", 4, 0)
        assert all(s.prefix == () for s in seq.steps)
        assert seq.digits == (0, 0, 0, 0)

    def test_silver_column_five(self):
        sub = parse_substitution("a->aab,b->a")
        seq = decompose_prefix(sub, "a", 2, 5)
        assert seq.digits == (1, 2)

    def test_prefix_concatenation_recovers_the_word(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        k, n = 4, 17  # |mu^4(a)| = 29
        seq = decompose_prefix(sub, "a", k, n)
        word: list[str] = []
        for i, step in zip(range(k - 1, -1, -1), reversed(seq.steps)):
            for x in step.prefix:
                word.extend(expand_word(sub, x, i))
        assert tuple(word) == expand_word(sub, "a", k)[:n]

    def test_offset_out_of_range(self):
        sub = parse_substitution("a->ab,b->a")
        with pytest.raises(OffsetOutOfRangeError):
            decompose_prefix(sub, "a", 2, 3)  # |mu^2(a)| = 3

    def test_steps_are_admissible(self):
        # prefix . pivot must prefix the image of the pivot one level up
        sub = parse_substitution("a->abc,b->c,c->ac")
        for k, n in ((3, 0), (3, 7), (4, 11), (5, 36)):
            seq = decompose_prefix(sub, "a", k, n)
            above = [s.pivot for s in seq.steps[1:]] + [seq.root]
            for step, parent in zip(seq.steps, above):
                image = sub.image(parent)
                assert image[: len(step.prefix) + 1] == step.prefix + (step.pivot,)


class TestGoldenTables:
    def test_classic_tables(self, golden_classic):
        for entry, sub, root in golden_classic:
            for n_text, expected in entry["table"].items():
                word = rep_classic_N(sub, root, int(n_text))
                assert word.text() == expected, (entry["name"], n_text)
                value, canonical = val_classic_N(sub, root, word)
                assert (value, canonical) == (int(n_text), True)

    def test_complement_tables(self, golden_complement):
        for entry, ns in golden_complement:
            for n_text, expected in entry["table"].items():
                n = int(n_text)
                word = rep(ns, n)
                assert word.text() == expected, (entry["name"], n_text)
                value, canonical = val(ns, word)
                assert (value, canonical) == (n, True)


class TestVal:
    def test_non_canonical_path(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        assert val(ns, DigitWord.parse("002", signed=True)) == (2, False)
        assert val(ns, DigitWord.parse("02", signed=True)) == (2, True)

    def test_digit_out_of_range(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        with pytest.raises(DigitOutOfRangeError):
            val(ns, DigitWord.parse("03", signed=True))

    def test_side_missing(self):
        ns = make_system("a->ab,b->a", "_|a")
        with pytest.raises(SideMissingError):
            rep(ns, -1)
        with pytest.raises(SideMissingError):
            val(ns, DigitWord((0,), 1))

    def test_sign_zero_iff_nonnegative(self, golden_complement):
        for entry, ns in golden_complement:
            for n in range(-40, 41):
                if not ns.contains(n):
                    continue
                assert rep(ns, n).sign == (0 if n >= 0 else 1)

    def test_digit_count_congruent_to_residue(self, golden_complement):
        for entry, ns in golden_complement:
            for n in range(-40, 41):
                if not ns.contains(n):
                    continue
                assert len(rep(ns, n).digits) % ns.period == ns.residue % ns.period


class TestClassicN:
    def test_rep_zero_is_empty(self):
        sub = parse_substitution("a->ab,b->ac,c->a")
        assert rep_classic_N(sub, "a", 0) == DigitWord(())

    def test_not_fixed_point_seed(self):
        sub = parse_substitution("a->ab,b->a")
        with pytest.raises(NotFixedPointSeedError):
            rep_classic_N(sub, "b", 1)
        # the root is checked before the word: '1' is past b's image and '0'
        # is a valid path, yet both are refused for the root
        for word in ("1", "0"):
            with pytest.raises(NotFixedPointSeedError):
                val_classic_N(sub, "b", word)

    def test_negative_rejected(self):
        sub = parse_substitution("a->ab,b->a")
        with pytest.raises(ValueError):
            rep_classic_N(sub, "a", -1)

    def test_fixed_point_roots_are_the_right_seeds_of_period_one(self):
        accepted = 0
        for sub in random_substitutions(random.Random(10), 500):
            for root in sub.alphabet:
                try:
                    seeds = minimal_period(sub, None, root) == 1
                except InvalidSeedError:
                    seeds = False
                for call, arg in ((rep_classic_N, 5), (val_classic_N, "0")):
                    try:
                        call(sub, root, arg)
                    except NotFixedPointSeedError:
                        assert not seeds, (sub, root, call)
                    else:
                        assert seeds, (sub, root, call)
                        accepted += 1
        assert accepted > 200

    def test_leading_digit_nonzero(self):
        sub = parse_substitution("a->aab,b->aaaa")
        for n in range(1, 200):
            assert rep_classic_N(sub, "a", n).digits[0] != 0


class TestTwosComplement:
    TABLE = {
        -4: "100", -3: "101", -2: "10", -1: "1",
        0: "ε", 1: "01", 2: "010", 3: "011", 4: "0100",
    }

    def test_table(self):
        for n, expected in self.TABLE.items():
            assert twos_complement_rep(n).text() == expected

    def test_val_examples(self):
        assert twos_complement_val("011") == 3
        assert twos_complement_val("100") == -4
        assert twos_complement_val("ε") == 0

    @given(st.integers(-(10**9), 10**9))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_no_leading_repeats(self, n):
        w = twos_complement_rep(n)
        assert twos_complement_val(w) == n
        assert w.digits[:2] not in ((0, 0), (1, 1))

    @given(st.integers(-(10**6), 10**6))
    @settings(max_examples=100, deadline=None)
    def test_positional_contract_with_powers_of_two(self, n):
        w = twos_complement_rep(n)
        if not w.digits:
            assert n == 0
            return
        # leading digit acts as the sign position
        signed = DigitWord(w.digits[1:], w.digits[0])
        powers = [1 << i for i in range(len(w.digits) + 1)]
        assert evaluate_with_weights(signed, powers, powers) == n

    def test_matches_the_doubling_substitution_system(self):
        # the doubling system writes 0 as "0": the sole divergence from the
        # bare two's complement convention rep(0) = empty word
        ns = make_system("a->aa", "a|a")
        for n in range(-40, 41):
            expected = twos_complement_rep(n).text() if n else "0"
            assert rep(ns, n).text() == expected


class TestAgainstOracleAndOrder:
    def test_descent_equals_tree_oracle_small(self, golden_complement):
        for entry, ns in golden_complement:
            for n in range(-60, 61):
                if ns.contains(n):
                    assert rep(ns, n) == oracle_rep(ns, n), (entry["name"], n)

    def test_same_length_words_sorted_like_integers(self, golden_complement):
        for entry, ns in golden_complement:
            by_shape: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
            for n in range(-300, 301):
                if not ns.contains(n):
                    continue
                w = rep(ns, n)
                by_shape.setdefault((w.sign, len(w.digits)), []).append((n, w.digits))
            for group in by_shape.values():
                digit_lists = [d for _n, d in sorted(group)]
                assert digit_lists == sorted(digit_lists)

    def test_descent_invariant_bound(self, golden_complement):
        for entry, ns in golden_complement:
            for n in range(-200, 201):
                if ns.contains(n):
                    assert descend_with_invariants(ns, n) == list(rep(ns, n).digits)


class TestRandomSystems:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_val_rep_round_trip(self, seed):
        rng = random.Random(seed)
        (sub,) = random_substitutions(rng, 1)
        for domain in ("Z", "N", "Zneg"):
            seeds = find_seeds(sub, domain)
            if not seeds:
                continue
            spec = seeds[rng.randrange(len(seeds))]
            ns = NumerationSystem(sub, spec, rng.randrange(spec.period))
            for n in range(-60, 61):
                if not ns.contains(n):
                    continue
                word = rep(ns, n)
                assert val(ns, word) == (n, True)
                assert len(word.digits) % ns.period == ns.residue


class TestCanonicalityRule:
    """``val`` reads canonicality off the word by the spine rule: ``k``
    digits are canonical iff ``k ≡ r (mod p)`` and they do not begin with
    the seed side's ``p`` spine digits. The reference is the definition: a
    word is canonical when it equals the representation of its value, whose
    level ``rep`` finds by the length table's level search."""

    def test_val_matches_rep_definition_on_corpus(self):
        # each corpus seed at 1, 2 and 3 times its period, every residue;
        # half the words begin with the spine digits
        rng = random.Random(20251018)
        seeds = dict.fromkeys((ns.substitution, ns.seed) for ns in corpus_systems())
        verdicts = {True: 0, False: 0}
        for sub, spec in seeds:
            for ns in period_multiples(sub, spec):
                for word in canonicality_words(rng, ns, 30):
                    value, canonical = val(ns, word)
                    assert canonical == (word == rep(ns, value)), (ns, word)
                    verdicts[canonical] += 1
        assert min(verdicts.values()) > 1000, verdicts

    def test_val_classic_matches_rep_definition(self, golden_classic):
        rng = random.Random(20251018)
        for entry, sub, root in golden_classic:
            for _ in range(200):
                word = DigitWord(random_path(rng, sub, root, rng.randint(0, 10)))
                value, canonical = val_classic_N(sub, root, word)
                assert canonical == (word == rep_classic_N(sub, root, value)), (
                    entry["name"],
                    word,
                )

    def test_zero_prefixed_long_word_builds_no_rows_for_its_zeros(self):
        # 20,001 digits after the sign digit; the last one reads row 0 only,
        # and the spine rule reads no row
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        assert val(ns, "0" + "0" * 20_000 + "1") == (1, False)
        assert len(ns.substitution.lengths._rows) == 1
        sub = parse_substitution("a->ab,b->ac,c->a")
        assert val_classic_N(sub, "a", "0" * 20_000 + "1") == (1, False)
        assert len(sub.lengths._rows) == 1

    def test_word_of_inadmissible_length_at_the_level_cap(self, monkeypatch):
        # the value needs level 50, but odd levels are admissible: its
        # level, 51, lies past the cap, yet the 50-digit word is simply
        # non-canonical
        monkeypatch.setattr(core, "_MAX_LEVEL", 50)
        ns = make_system("a->abc,b->c,c->ac", "c|a", residue=1, period=2)
        value = image_length(ns.substitution, "a", 49)
        assert val(ns, "01" + "0" * 49) == (value, False)
        with pytest.raises(DigitCapExceededError):
            rep(ns, value)

    def test_val_runs_no_level_search(self, monkeypatch, golden_classic, golden_complement):
        def refuse(*args):
            raise AssertionError("val ran the level search")

        monkeypatch.setattr(core._LengthTable, "level", refuse)
        for entry, sub, root in golden_classic:
            for n_text, text in entry["table"].items():
                word = DigitWord.parse(text, signed=False)
                assert val_classic_N(sub, root, word) == (int(n_text), True)
                zero = DigitWord((0, *word.digits))
                assert val_classic_N(sub, root, zero) == (int(n_text), False)
        for entry, ns in golden_complement:
            for n_text, text in entry["table"].items():
                word = DigitWord.parse(text, signed=True)
                side = ns.right if word.sign == 0 else ns.left
                spine = spine_digits(ns.substitution, side, ns.period, -word.sign)
                assert val(ns, word) == (int(n_text), True)
                longer = DigitWord(spine + word.digits, word.sign)
                assert val(ns, longer) == (int(n_text), False)

    def test_val_refuses_only_rows_past_the_level_cap(self, monkeypatch):
        # the values of these right words need level 51, past the cap, but
        # their evaluation reads rows 0..50 only; a left word of 51 digits
        # reads row 51 for its offset
        monkeypatch.setattr(core, "_MAX_LEVEL", 50)
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        assert val(ns, "02" + "1" * 50) == (405235326396683948, True)
        assert val(ns, "002" + "1" * 50) == (405235326396683948, False)
        with pytest.raises(DigitCapExceededError):
            rep(ns, 405235326396683948)
        with pytest.raises(DigitCapExceededError):
            val(ns, "1" * 52)

    def test_val_classic_non_fixed_point_root_exit_2(self, capsys):
        from dtnum.cli import main

        code = main(
            ["val", "--classic", "--sub", "a->ba,b->ab", "--seed", "_|a", "--word", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: NotFixedPointSeed:")


class TestKernel:
    """The level search and ``_descend_digits`` read the table's live rows."""

    def test_level_independent_of_table_height(self):
        text = "a->aab,b->a"
        need = 10**40
        # the reference: the first k ≡ 1 (mod 3) whose naive length reaches need
        sub = parse_substitution(text)
        row, k = [1, 1], 0
        while not (k % 3 == 1 and row[0] >= need):
            row = [sum(row[y] for y in im) for im in sub.image_idx]
            k += 1
        assert k > 40
        assert sub.lengths.level(0, need, 1, 3) == k  # cold table
        for height in (k - 5, k + 30):
            sub = parse_substitution(text)
            sub.lengths.row(height)
            assert sub.lengths.level(0, need, 1, 3) == k

    def test_out_of_range_offset_raises(self, monkeypatch):
        """On stored rows, and on a streamed level under each small budget,
        whose blocks pass an offset past their columns on to the stored
        rows below them: the one check after the descent raises."""
        from dtnum.numeration import _descend_digits

        sub = parse_substitution("a->abc,b->c,c->ac")
        root = sub.index["a"]
        width = sub.lengths.row(6)[root]
        assert len(_descend_digits(sub, root, 6, width - 1)) == 6
        with pytest.raises(OffsetOutOfRangeError):
            _descend_digits(sub, root, 6, width)
        k = 1000
        for bits, span in _SMALL_BUDGETS:
            monkeypatch.setattr(core, "_STORE_BITS", bits)
            monkeypatch.setattr(core, "_CHECKPOINT_BITS", bits)
            monkeypatch.setattr(core, "_SPAN", span)
            sub = parse_substitution("a->abc,b->c,c->ac")
            width = sub.lengths.row(k)[root]
            _assert_streamed(sub, k - 1)
            assert len(_descend_digits(sub, root, k, width - 1)) == k
            for offset in (width, width + 1, -width - 1):
                with pytest.raises(OffsetOutOfRangeError):
                    _descend_digits(sub, root, k, offset)


# store and checkpoint budgets of a few rows, in bits, and their spans
_SMALL_BUDGETS = [(3000, 7), (400, 2), (100_000, 128)]
_SMALL_BUDGET_IDS = ["3000-bits-span-7", "400-bits-span-2", "100000-bits-span-128"]


@pytest.fixture(params=_SMALL_BUDGETS, ids=_SMALL_BUDGET_IDS)
def small_budget(request, monkeypatch):
    """A budget of a few rows, for the stored rows and for the checkpoints,
    so tables stream past the first levels and their checkpoints thin;
    under the last one the span stays at the default 128 levels. A test
    may add the default budget as the parameter None, by indirect
    parametrization; the fixture's value is the parameter."""
    if request.param is not None:
        bits, span = request.param
        monkeypatch.setattr(core, "_STORE_BITS", bits)
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", bits)
        monkeypatch.setattr(core, "_SPAN", span)
    return request.param


def _fresh(sub: Substitution) -> Substitution:
    """The same substitution with a new length table, built under the
    budget in force (the fixtures' tables may already be grown)."""
    return Substitution(sub.alphabet, sub.images)


def _assert_streamed(sub: Substitution, level: int) -> None:
    table = sub.lengths
    assert len(table._rows) <= level <= table._front[0]


class _BlockLog:
    """The streamed blocks a descent reads: ``block_rows`` calls, in order,
    and the shifted checks, the calls of the ``fold`` kernel made by
    ``_descend_blocks``: each folds the path of a shifted descent of a
    block, whose exact remainder is then checked. The kernels are counted
    on substitutions that have not fetched theirs yet."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, int]] = []
        self.checked = 0
        self.reading = False  # inside ``_descend_blocks``
        block_rows = core._LengthTable.block_rows
        descend_blocks = numeration._descend_blocks
        compile_ = kernels.compile_kernels

        def logged(table, checkpoint, count, shift=0):
            self.calls.append((id(checkpoint), shift))
            return block_rows(table, checkpoint, count, shift)

        def reading(*args):
            self.reading = True
            try:
                return descend_blocks(*args)
            finally:
                self.reading = False

        def counted(image_idx, alphabet):
            compiled = compile_(image_idx, alphabet)

            def fold(*args):
                self.checked += self.reading
                return compiled.fold(*args)

            return compiled._replace(fold=fold)

        monkeypatch.setattr(core._LengthTable, "block_rows", logged)
        monkeypatch.setattr(numeration, "_descend_blocks", reading)
        monkeypatch.setattr(kernels, "compile_kernels", counted)

    @property
    def shifted(self) -> int:
        return sum(1 for _, shift in self.calls if shift)

    @property
    def redone(self) -> int:
        """Shifted tries followed by the exact rows of the same block."""
        pairs = zip(self.calls, self.calls[1:])
        return sum(1 for (c, s), (d, t) in pairs if s and not t and c == d)


class TestStreamedRows:
    """Past the store budget every map equals the plain row-list reference."""

    def test_block_boundaries_match_the_reference(
        self, small_budget, monkeypatch, golden_complement
    ):
        """Offsets at the edges of a streamed level's columns and on either
        side of each boundary between the root's children: the shifted
        descent of a block meets its worst cases there, and both accepts
        blocks and redoes them."""
        log = _BlockLog(monkeypatch)
        for entry, ns in golden_complement:
            sub = _fresh(ns.substitution)
            ns = NumerationSystem(sub, ns.seed, ns.residue)
            plain = PlainRows(sub)
            top = 1500
            sub.lengths.row(top)
            for side, sign in ((ns.right, 0), (ns.left, 1)):
                if side is None:
                    continue
                x = sub.index[side]
                for k in (top, top - 1):
                    width = plain[k][x]
                    offsets = {0, width - 1}
                    start = 0
                    for y in sub.image_idx[x][:-1]:
                        start += plain[k - 1][y]
                        offsets |= {start, start - 1}
                    for n in sorted(offsets):
                        digits = decompose_prefix(sub, side, k, n).digits
                        assert list(digits) == plain.descend(x, k, n), (entry["name"], k, n)
                        word = DigitWord(digits, sign)
                        assert val(ns, word) == reference_val(ns, word), (entry["name"], k, n)
            _assert_streamed(sub, top - 1)
            if core._SPAN == 128:  # no checkpoint was dropped: full-size blocks ran
                assert sub.lengths._marks[1] == 128
        assert log.shifted > log.redone > 0

    def test_coarse_shifts_are_redone(self, monkeypatch, golden_complement):
        """With the guard lowered until no bit of the smallest checkpoint
        entry survives the shift, shifted descents reach wrong digits: the
        remainder check sends those blocks to their exact rows, so the words
        still equal the reference's. A block may still pass, when its
        shifted rows happen to be exact, as powers of two are."""
        monkeypatch.setattr(core, "_STORE_BITS", 100_000)
        monkeypatch.setattr(core, "_SPAN", 128)
        log = _BlockLog(monkeypatch)
        rng = random.Random(11)
        for entry, ns in golden_complement:
            sub = _fresh(ns.substitution)
            ns = NumerationSystem(sub, ns.seed, ns.residue)
            longest = max(map(len, sub.image_idx))
            monkeypatch.setattr(numeration, "_GUARD_BITS", -core._SPAN * longest.bit_length())
            for sign in (1, -1):
                if ns.contains(sign):
                    n = sign * rng.randrange(10**300, 2 * 10**300)
                    assert rep(ns, n) == reference_rep(ns, n), (entry["name"], n)
        passed = log.shifted - log.redone
        assert log.shifted > 0 and log.checked > passed  # the check refused some

    def test_huge_words_pass_their_fingerprints(self, golden_complement):
        """At the default budget, on a new table, the words of
        ±(10^3000 + 4242) pass the fingerprint check, which reads no length
        row: a wrong checkpoint or jump, which ``rep`` and ``val`` read
        alike, gives a word that round-trips but fails it."""
        for i, (entry, ns) in enumerate(golden_complement):
            sub = _fresh(ns.substitution)
            ns = NumerationSystem(sub, ns.seed, ns.residue)
            for n in (10**3000 + 4242, -(10**3000) - 4242):
                if ns.contains(n):
                    word = rep(ns, n)
                    assert val(ns, word) == (n, True), entry["name"]
                    check_fingerprints(ns, n, word, seed=i)
            assert sub.lengths._marks is not None, entry["name"]  # read above the store

    def test_a_read_redoes_at_most_one_block(self, monkeypatch):
        """Exact block reads (``block_rows`` with ``shift=0``): past the
        blocks whose shift is not positive, each read redoes at most one
        block. The offsets are a level's first and last columns, both sides
        of each boundary between the root's children and random ones, on
        ``abc-c-ac`` and on ``a->aab,b->b``, whose bounded letter ``b``
        keeps the least checkpoint entry at 1; both run shifted blocks."""
        monkeypatch.setattr(core, "_STORE_BITS", 100_000)
        monkeypatch.setattr(core, "_SPAN", 128)
        log = _BlockLog(monkeypatch)
        rng = random.Random(13)
        k = 3000
        for text in ("a->abc,b->c,c->ac", "a->aab,b->b"):
            sub = parse_substitution(text)
            plain = PlainRows(sub)
            x = sub.index["a"]
            width = plain[k][x]
            offsets = {0, width - 1} | {rng.randrange(width) for _ in range(10)}
            start = 0
            for y in sub.image_idx[x][:-1]:
                start += plain[k - 1][y]
                offsets |= {start - 1, start}
            shifted = 0
            for n in sorted(offsets):
                log.calls.clear()
                digits = decompose_prefix(sub, "a", k, n).digits
                assert list(digits) == plain.descend(x, k, n), (text, n)
                assert log.redone <= 1, (text, n)
                shifted += log.shifted
                _assert_streamed(sub, k)
            assert shifted > 0, text

    def test_a_redo_steps_few_exact_rows_at_a_time(self, monkeypatch):
        """Under a small ``_BLOCK_BITS`` a block whose shifted descent fails
        is redone in halves: no exact block read steps more levels than
        that bound allows from its first row, as the table's own climb
        counts them, and the digits still equal the reference's. The
        offsets are a level's first and last columns and both sides of
        each boundary between the root's children, where blocks fail. The
        budget closes both stores at level 127, whose entries of about 128
        bits are too short to shift even half a block, so the lowest block
        is read exactly, in halves."""
        monkeypatch.setattr(core, "_STORE_BITS", 10_000)
        monkeypatch.setattr(core, "_SPAN", 128)
        monkeypatch.setattr(core, "_BLOCK_BITS", 20_000)
        reads = []  # per exact read: the levels it steps, and those allowed
        block_rows = core._LengthTable.block_rows

        def logged(table, checkpoint, count, shift=0):
            rows = block_rows(table, checkpoint, count, shift)
            if not shift:
                fit = core._BLOCK_BITS // (len(checkpoint) * max(checkpoint).bit_length())
                reads.append((len(rows) - 1, max(fit, 1)))
            return rows

        monkeypatch.setattr(core._LengthTable, "block_rows", logged)
        k = 3000
        for text in ("a->abc,b->c,c->ac", "a->aab,b->b"):
            sub = parse_substitution(text)
            plain = PlainRows(sub)
            x = sub.index["a"]
            offsets = {0, plain[k][x] - 1}
            start = 0
            for y in sub.image_idx[x][:-1]:
                start += plain[k - 1][y]
                offsets |= {start - 1, start}
            for n in sorted(offsets):
                reads.clear()
                digits = decompose_prefix(sub, "a", k, n).digits
                assert list(digits) == plain.descend(x, k, n), (text, n)
                assert all(stepped <= fit for stepped, fit in reads), (text, n, reads)
            _assert_streamed(sub, k)
        assert reads

    def test_smaller_reads_after_an_early_close(self, monkeypatch):
        """A cold ``rep`` whose level search lies past the store fills it
        up to its budget, closing it below the answer, and jumps; ``rep``
        and ``val`` of smaller values then read the same table through its
        stored rows and its blocks, on both sides, down to a level's last
        value (a right edge) and its first (offset 0)."""
        # the stores close at levels 511 and 639: above the words of 10^100,
        # below those of 10^300
        monkeypatch.setattr(core, "_STORE_BITS", 500_000)
        monkeypatch.setattr(core, "_SPAN", 128)
        rng = random.Random(14)
        for text, seed in (("a->abc,b->c,c->ac", "c|a"), ("a->aab,b->a", "b|a")):
            ns = make_system(text, seed)
            sub = ns.substitution
            table = sub.lengths
            for n in (10**1000 + 4242, -(10**1000) - 4242):
                assert rep(ns, n) == reference_rep(ns, n), (text, n)
            close = budget_close(PlainRows(sub))
            assert len(table._rows) == close + 1, text  # closed at the budget
            right, left = sub.index[ns.right], sub.index[ns.left]
            values = [sign * rng.randrange(10**e, 2 * 10**e) for e in (30, 100, 300) for sign in (1, -1)]
            for need in (10**100, 10**300):
                values.append(table.row(table.level(right, need, ns.residue, ns.period))[right] - 1)
                values.append(-table.row(table.level(left, need, ns.residue, ns.period))[left])
            for n in values:
                word = rep(ns, n)
                assert word == reference_rep(ns, n), (text, n)
                assert val(ns, word) == (n, True), (text, n)
            _assert_streamed(sub, len(word.digits))
            assert len(table._rows) == close + 1, text

    def test_rep_and_val_match_the_reference(self, small_budget, golden_complement):
        rng = random.Random(20261018)
        for entry, ns in golden_complement:
            ns = NumerationSystem(_fresh(ns.substitution), ns.seed, ns.residue)
            sub = ns.substitution
            for exponent in (0, 1, 3, 30, 100, 300):
                for sign in (1, -1):
                    if not ns.contains(sign):
                        continue
                    n = sign * rng.randrange(10**exponent, 2 * 10**exponent)
                    word = rep(ns, n)
                    assert word == reference_rep(ns, n), (entry["name"], n)
                    assert val(ns, word) == (n, True), (entry["name"], n)
                    root = sub.alphabet[sub.index[ns.right if sign > 0 else ns.left]]
                    for length in (len(word.digits) - 1, len(word.digits) + 5):
                        path = DigitWord(random_path(rng, sub, root, length), word.sign)
                        assert val(ns, path) == reference_val(ns, path), (entry["name"], path)
                    if sign > 0:  # p zeros lead back to the right seed
                        padded = DigitWord((0,) * 3 * ns.period + word.digits, 0)
                        assert val(ns, padded) == reference_val(ns, padded) == (n, False)
                    if word.digits:
                        i = rng.randrange(len(word.digits))
                        x = root
                        for d in word.digits[:i]:
                            x = sub.image(x)[d]
                        bad = word.digits[:i] + (len(sub.image(x)),) + word.digits[i + 1 :]
                        with pytest.raises(DigitOutOfRangeError):
                            reference_val(ns, DigitWord(bad, word.sign))
                        with pytest.raises(DigitOutOfRangeError):
                            val(ns, DigitWord(bad, word.sign))
            _assert_streamed(sub, len(word.digits))

    def test_decompose_prefix_matches_the_reference(self, small_budget, golden_complement):
        rng = random.Random(3)
        for entry, ns in golden_complement:
            sub = _fresh(ns.substitution)
            plain = PlainRows(sub)
            for root in {ns.left, ns.right} - {None}:
                x = sub.index[root]
                for k in (0, 5, 90, 400):
                    n = rng.randrange(plain[k][x])
                    seq = decompose_prefix(sub, root, k, n)
                    assert list(seq.digits) == plain.descend(x, k, n), (entry["name"], k)
            _assert_streamed(sub, 400)

    def test_classic_maps_match_the_reference(self, small_budget, golden_classic):
        rng = random.Random(4)
        for entry, sub, root in golden_classic:
            sub = _fresh(sub)
            plain = PlainRows(sub)
            x = sub.index[root]
            for exponent in (0, 2, 30, 300):
                n = rng.randrange(10**exponent, 2 * 10**exponent)
                word = rep_classic_N(sub, root, n)
                digits = plain.descend(x, plain.level(x, n + 1, 0, 1), n)
                assert word == DigitWord(tuple(digits)), (entry["name"], n)
                assert val_classic_N(sub, root, word) == (n, True)
                assert val_classic_N(sub, root, DigitWord((0, 0) + word.digits)) == (n, False)
            _assert_streamed(sub, len(word.digits))

    def test_weights_past_the_stored_rows(self, small_budget):
        ns = make_system("a->aab,b->a", "b|a")
        table = weights(ns, 10_000)
        _assert_streamed(ns.substitution, 9_999)
        plain = PlainRows(ns.substitution)
        a, b = ns.substitution.index["a"], ns.substitution.index["b"]
        assert table.U == tuple(plain[i][a] for i in range(10_000))
        assert table.V == tuple(plain[i][b] for i in range(10_000))

    def test_threads_share_one_streamed_table(self, small_budget):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        rng = random.Random(5)
        values = [rng.choice((1, -1)) * rng.randrange(10**300) for _ in range(24)]
        expected = {n: reference_rep(ns, n) for n in values}
        got = {}

        def work(chunk):
            for n in chunk:
                word = rep(ns, n)
                got[n] = (word, val(ns, word))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(values[i::4],)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {n: (expected[n], (n, True)) for n in values}
        _assert_streamed(ns.substitution, 800)


class TestStoredRowsInPlace:
    """``rep`` descends the stored rows in place when they hold its level,
    and through ``spans`` above them; tables of one text share kernels."""

    @pytest.mark.parametrize(
        "bits, span", [(2000, 5), (400, 2)], ids=["2000-bits-span-5", "400-bits-span-2"]
    )
    def test_windows_across_the_store_boundary(
        self, monkeypatch, golden_complement, bits, span
    ):
        """Values on both sides of each level's width, from two spans
        below the level where the store closes to two spans above it, on
        both signs and at periods 1-3 times the minimal one."""
        monkeypatch.setattr(core, "_STORE_BITS", bits)
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", bits)
        monkeypatch.setattr(core, "_SPAN", span)
        stored = streamed = 0
        for entry, golden in golden_complement:
            probe = _fresh(golden.substitution).lengths
            probe.row(400)
            if probe._marks is None:
                continue
            base = probe._marks[0]  # the top stored level
            sub = _fresh(golden.substitution)
            plain = PlainRows(sub)
            for ns in period_multiples(sub, golden.seed):
                table = sub.lengths
                for level in range(max(base - 2 * span, 0), base + 2 * span):
                    for side, sign in ((ns.right, 1), (ns.left, -1)):
                        if side is None:
                            continue
                        width = plain[level][sub.index[side]]
                        for n in {sign * v for v in range(width - 2, width + 2) if v > 0}:
                            word = rep(ns, n)
                            assert word == reference_rep(ns, n), (entry["name"], ns.period, n)
                            if len(word.digits) < len(table._rows):
                                stored += 1
                            else:
                                streamed += 1
        assert stored > 100 and streamed > 100, (stored, streamed)

    def test_round_trips_at_10_300_read_no_block(self, golden_complement):
        """At the default budget every golden system's store closes above
        the levels of the words of ±10^300 (the eight-letter ones at level
        1,023, above 998): a table filled by those two ``rep`` calls holds
        every level that a round trip of a smaller value reads, so none
        reads a block."""
        for entry, ns in golden_complement:
            sub = _fresh(ns.substitution)
            ns = NumerationSystem(sub, ns.seed, ns.residue)
            close = budget_close(PlainRows(sub))
            for sign in (1, -1):
                if ns.contains(sign):
                    word = rep(ns, sign * 10**300)
                    assert len(word.digits) < close, (entry["name"], sign)
                    assert val(ns, word) == (sign * 10**300, True)
            assert sub.lengths._marks is None, entry["name"]
            assert sub.lengths._front[0] < close, entry["name"]

    def test_threads_build_tables_from_one_text(self):
        """Two threads each make a system from one text, on a cold kernel
        cache, and run ``rep`` at once: their words and rows equal those
        of a table grown by one thread alone."""
        text, seed = "a->abc,b->c,c->ac", "c|a"
        values = [sign * v for v in (*range(1, 300), 10**300 + 4242) for sign in (1, -1)]
        alone = make_system(text, seed)
        expected = [rep(alone, n) for n in values]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                core._row_step.cache_clear()
                systems = [None, None]
                words = [None, None]

                def work(i):
                    systems[i] = make_system(text, seed)
                    words[i] = [rep(systems[i], n) for n in values]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert words == [expected, expected]
                for ns in systems:
                    table = ns.substitution.lengths
                    assert table._rows == alone.substitution.lengths._rows
                    assert table._front == alone.substitution.lengths._front
        finally:
            sys.setswitchinterval(interval)


def _kernel_system(rng: random.Random, size: int, longest: int = 3) -> NumerationSystem:
    """A random two-sided system on ``size`` letters, seeded ``x0|x0``: the
    image of ``x0`` starts and ends with it. From three letters on, the
    last letter is bounded (its image is itself), and from four on, the
    one before it lies in no image. The other images take 1 to
    ``longest`` letters."""
    letters = [f"x{i}" for i in range(size)]
    pool = letters[:-2] + letters[-1:] if size >= 4 else letters
    images = [["x0", *rng.choices(pool, k=rng.randint(0, longest - 2)), "x0"]]
    images += [rng.choices(pool, k=rng.randint(1, longest)) for _ in letters[1:]]
    if size >= 3:
        images[-1] = [letters[-1]]
    sub = Substitution(tuple(letters), tuple(map(tuple, images)))
    return make_system(sub, "x0|x0")


def _kernel_systems() -> list[NumerationSystem]:
    """Seeded systems of 1 to 60 letters, and one with an image of 150 letters."""
    rng = random.Random(2026)
    sizes = [1, 2, 3, 4, 5, 8, 13, 21, 34, 60]
    return [_kernel_system(rng, size) for size in sizes] + [_kernel_system(rng, 3, 150)]


class TestBlockKernels:
    """The compiled block-read kernels against references that do not use
    them: ``fold`` against a plain Horner fold, ``rep`` (whose blocks run
    through ``descend``) against ``reference_rep``."""

    @pytest.fixture(autouse=True)
    def budget(self, small_budget):
        pass

    def test_fold_matches_a_plain_horner_fold(self):
        rng = random.Random(7)
        for ns in _kernel_systems():
            sub = ns.substitution
            fold = kernels.compile_kernels(sub.image_idx, sub.alphabet).fold
            for _ in range(20):
                x = rng.randrange(len(sub.alphabet))
                digits = random_path(rng, sub, sub.alphabet[x], rng.randrange(60))
                assert fold(x, digits) == horner_fold(sub, x, digits), (sub, x, digits)
                if not digits:
                    continue
                # a digit past its image: today's error text, from both
                i = rng.randrange(len(digits))
                y = x
                for d in digits[:i]:
                    y = sub.image_idx[y][d]
                bad = (*digits[:i], len(sub.image_idx[y]) + rng.randrange(3), *digits[i + 1 :])
                with pytest.raises(DigitOutOfRangeError) as expected:
                    horner_fold(sub, x, bad)
                with pytest.raises(DigitOutOfRangeError) as got:
                    fold(x, bad)
                assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "small_budget", [None, *_SMALL_BUDGETS], ids=["default", *_SMALL_BUDGET_IDS], indirect=True
    )
    def test_rep_through_descend_matches_the_reference(self, monkeypatch, small_budget):
        """Under a small budget the words are read through shifted blocks
        and the stored rows; at the default budget through the stored rows
        alone, by the kernel's exact descent: the 60-letter system's store
        closes at level 383, above the words of 10^100."""
        log = _BlockLog(monkeypatch)
        rng = random.Random(8)
        for ns in _kernel_systems():
            ns = NumerationSystem(_fresh(ns.substitution), ns.seed, ns.residue)
            for exponent in (30, 300 if small_budget else 100):
                for sign in (1, -1):
                    n = sign * rng.randrange(10**exponent, 2 * 10**exponent)
                    word = rep(ns, n)
                    assert word == reference_rep(ns, n), (ns.substitution, n)
                    assert val(ns, word) == (n, True), (ns.substitution, n)
            if small_budget is not None:
                _assert_streamed(ns.substitution, len(word.digits))
        if small_budget is None:
            assert log.calls == [] and log.checked == 0
        else:
            assert log.checked > 0


def _outcome(f, *args):
    try:
        return f(*args)
    except NumerationError as e:
        return e.code


@pytest.mark.parametrize(
    "budget", [None, (3000, 7), (400, 2)], ids=["default", "3000-bits-span-7", "400-bits-span-2"]
)
def test_rep_and_val_sweep_is_pinned(monkeypatch, golden_complement, budget):
    """``rep`` and ``val`` on every golden and corpus system, each with a
    new length table, hashed together: the words, their values and
    verdicts, and those of three non-canonical variants of each word. A
    change to any of them changes the hash, which is the same under every
    store budget."""
    from helpers import corpus_systems

    if budget is not None:
        monkeypatch.setattr(core, "_STORE_BITS", budget[0])
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", budget[0])
        monkeypatch.setattr(core, "_SPAN", budget[1])
    big = [s * (10**e + 4242) for e in (30, 200) for s in (1, -1)]
    systems = [(ns, big) for _, ns in golden_complement]
    systems += [(ns, []) for ns in corpus_systems()]
    digest = hashlib.md5()
    cases = 0
    for ns, extra in systems:
        ns = NumerationSystem(_fresh(ns.substitution), ns.seed, ns.residue)
        for n in [*range(-64, 65), *extra]:
            if not ns.contains(n):
                continue
            word = _outcome(rep, ns, n)
            seen = [n, str(word)]
            if isinstance(word, DigitWord):
                d, sign = word.digits, word.sign
                for digits in (d, (0,) * ns.period + d, d[1:], d[:-1]):
                    seen.append(_outcome(val, ns, DigitWord(digits, sign)))
            digest.update(repr(seen).encode())
            cases += 1
    assert cases == 27_503
    assert digest.hexdigest() == "f76694db0f17e5e5974df73b4d169004"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ten_to_the_30000_in_bounded_memory():
    # stored, the 87,331 rows would take about 1.1 GiB. The child reports
    # its VmHWM, the peak RSS of its own address space: Linux carries
    # ru_maxrss across exec, so a child of this process would report at
    # least this process's own peak.
    script = (
        "from dtnum import make_system, rep, val\n"
        "ns = make_system('a->abc,b->c,c->ac', 'c|a')\n"
        "for n in (10**30000 + 4242, -(10**30000) - 4242):\n"
        "    word = rep(ns, n)\n"
        "    assert len(word.digits) == 87331 and val(ns, word) == (n, True)\n"
        "status = open('/proc/self/status').read()\n"
        "print(status.split('VmHWM:')[1].split()[0])\n"  # KiB
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 150 * 1024
