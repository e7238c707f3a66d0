from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from dtnum import (
    AdmissibleSequence,
    AdmissibleStep,
    ConditionC,
    ConsistentWeights,
    Counterexample,
    DigitWord,
    FabreForm,
    NumerationSystem,
    PositionalityReport,
    ResidueSets,
    SeedSpec,
    Substitution,
    TreeNode,
    TreeSlice,
    UPWord,
    WeightContradiction,
    WeightTable,
    find_seeds,
    image_length,
    is_primitive,
    make_system,
    minimal_period,
    parse_seed,
    parse_substitution,
    reachable_letters,
    rep,
    restrict,
    substitution_from_text,
    val,
    validate_seed,
)
from dtnum import core, kernels
from dtnum.core import _LengthTable, _shared_sums, _steps_source, _sum_source
from dtnum.errors import (
    DigitCapExceededError,
    DigitOutOfRangeError,
    DslSyntaxError,
    EmptyImageError,
    InvalidSeedError,
    NoGrowingLetterError,
    UnknownLetterError,
)
from helpers import PlainRows, as_lists, expand_word, mat_pow, random_substitutions


class TestParse:
    def test_three_letter_example(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        assert sub.alphabet == ("a", "b", "c")
        assert sub.images == (("a", "b", "c"), ("c",), ("a", "c"))

    def test_fibonacci(self):
        sub = parse_substitution("a->ab,b->a")
        assert sub.alphabet == ("a", "b")
        assert sub.image("a") == ("a", "b")

    def test_empty_image_rejected(self):
        with pytest.raises(EmptyImageError):
            parse_substitution("a->,b->a")

    def test_semicolon_and_spaces(self):
        sub = parse_substitution(" a -> ab ; b -> a ")
        assert sub.alphabet == ("a", "b")

    def test_multichar_letters(self):
        sub = parse_substitution("a1 -> b a2, a2 -> a1, b -> b b a1")
        assert sub.alphabet == ("a1", "b", "a2")
        assert sub.image("a1") == ("b", "a2")

    def test_multichar_unknown_letter(self):
        with pytest.raises(UnknownLetterError):
            parse_substitution("a1 -> b x, b -> a1")

    def test_singlechar_missing_rule(self):
        with pytest.raises(DslSyntaxError):
            parse_substitution("a->ab")

    def test_duplicate_rule(self):
        with pytest.raises(DslSyntaxError):
            parse_substitution("a->ab,a->a,b->a")

    def test_missing_arrow(self):
        with pytest.raises(DslSyntaxError):
            parse_substitution("a=ab")

    def test_no_growing_letter(self):
        with pytest.raises(NoGrowingLetterError):
            parse_substitution("a->b,b->a")

    def test_letter_order_follows_first_appearance(self):
        sub = parse_substitution("c->ac,a->abc,b->c")
        assert sub.alphabet == ("c", "a", "b")

    def test_json_round_trip(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        again = substitution_from_text(__import__("json").dumps(sub.to_json_dict()))
        assert again == sub

    @pytest.mark.parametrize(
        "text",
        [
            '{"alphabet": ["a", "b"], "images": {"a": 5, "b": "a"}}',
            '{"alphabet": ["a", "b"], "images": {"a": "ab", "b": null}}',
            '{"alphabet": ["a", "b"], "images": {"a": ["a", ["b"]], "b": "a"}}',
            '{"alphabet": ["a"], "images": ["a"]}',
            '{"alphabet": [["a"]], "images": {"a": "aa"}}',
            # an image for a letter outside the alphabet
            '{"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a", "z": "zz"}}',
            # a string alphabet, which would be split into letters
            '{"alphabet": "ab", "images": {"a": "ab", "b": "a"}}',
        ],
    )
    def test_json_malformed_images(self, text):
        with pytest.raises(DslSyntaxError):
            substitution_from_text(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"alphabet": ["a", "b"], "images": {"a": "ab", "a": "b", "b": "ba"}}', "a"),
            ('{"alphabet": ["a", "b"], "alphabet": ["a"], "images": {"a": "aa"}}', "alphabet"),
        ],
        ids=["image", "alphabet"],
    )
    def test_json_key_given_twice(self, text, key):
        # json.loads alone keeps the last value given for a key
        with pytest.raises(DslSyntaxError, match=f"key '{key}' appears twice"):
            substitution_from_text(text)

    def test_json_nested_too_deeply(self):
        # past the decoder's recursion limit (about 1,000 levels up to
        # Python 3.12, 10,000 in 3.13) the text is refused as nested too
        # deeply; below it, as unfinished JSON
        with pytest.raises(DslSyntaxError, match="^bad JSON substitution: "):
            substitution_from_text('{"alphabet":' + "[" * 3000)


class TestLengths:
    def test_tribonacci_cube(self):
        sub = parse_substitution("a->ab,b->ac,c->a")
        # independent oracle: expand the string and count
        assert len(expand_word(sub, "a", 3)) == 7
        assert image_length(sub, "a", 3) == 7

    def test_level_zero_is_identity(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        for letter in sub.alphabet:
            assert image_length(sub, letter, 0) == 1

    def test_silver_square(self):
        sub = parse_substitution("a->aab,b->a")
        assert image_length(sub, "a", 2) == 7
        assert expand_word(sub, "a", 2) == tuple("aabaaba")

    def test_unknown_letter(self):
        sub = parse_substitution("a->ab,b->a")
        with pytest.raises(UnknownLetterError):
            image_length(sub, "z", 1)

    def test_matrix_recursion_matches_definition(self, fixture_substitutions):
        for sub in fixture_substitutions:
            for x in sub.alphabet:
                for level in range(13):
                    expected = sum(
                        image_length(sub, y, level) for y in sub.image(x)
                    )
                    assert image_length(sub, x, level + 1) == expected

    def test_agrees_with_string_expansion(self, fixture_substitutions):
        for sub in fixture_substitutions:
            for x in sub.alphabet:
                for level in range(9):
                    assert image_length(sub, x, level) == len(
                        expand_word(sub, x, level)
                    )

    def test_adjacency_column_sums_are_image_lengths(self, fixture_substitutions):
        for sub in fixture_substitutions:
            adj = sub.adjacency
            for j, letter in enumerate(sub.alphabet):
                assert sum(adj[i][j] for i in range(len(adj))) == len(
                    sub.image(letter)
                )


class TestPrimitivity:
    def test_tribonacci_primitive(self):
        sub = parse_substitution("a->ab,b->ac,c->a")
        assert is_primitive(sub)
        cube = mat_pow([list(r) for r in sub.adjacency], 3)
        assert all(v > 0 for row in cube for v in row)

    def test_intertwined_not_primitive(self):
        assert not is_primitive(parse_substitution("a->ccd,b->cd,c->ab,d->a"))

    def test_trivial_chain_not_primitive(self):
        assert not is_primitive(parse_substitution("a->ab,b->b"))

    def test_primitive_letters_everywhere_at_wielandt_depth(
        self, fixture_substitutions
    ):
        for sub in fixture_substitutions:
            if not is_primitive(sub):
                continue
            n = len(sub.alphabet)
            power = mat_pow([list(r) for r in sub.adjacency], (n - 1) ** 2 + 1)
            assert all(v > 0 for row in power for v in row)

    def test_matches_the_matrix_power_at_the_wielandt_exponent(self):
        # a matrix with a positive power has a positive power at the bound
        primitive = 0
        for sub in random_substitutions(random.Random(9), 2000):
            n = len(sub.alphabet)
            power = mat_pow([list(r) for r in sub.adjacency], (n - 1) ** 2 + 1)
            expected = all(v > 0 for row in power for v in row)
            assert is_primitive(sub) == expected, sub
            primitive += expected
        assert primitive == 759  # both verdicts occur


class TestSeeds:
    def test_three_letter_two_sided(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        seeds = find_seeds(sub, "Z")
        assert any(s.left == "c" and s.right == "a" and s.period == 1 for s in seeds)

    def test_intertwined_two_sided(self):
        sub = parse_substitution("a->ccd,b->cd,c->ab,d->a")
        seeds = find_seeds(sub, "Z")
        assert any(s.left == "a" and s.right == "a" and s.period == 2 for s in seeds)

    def test_fibonacci_seeds(self):
        sub = parse_substitution("a->ab,b->a")
        n_seeds = find_seeds(sub, "N")
        assert [(s.right, s.period) for s in n_seeds] == [("a", 1)]
        z_seeds = find_seeds(sub, "Z")
        assert {(s.left, s.right, s.period) for s in z_seeds} == {
            ("a", "a", 2),
            ("b", "a", 2),
        }

    def test_found_seeds_revalidate(self, fixture_substitutions):
        for sub in fixture_substitutions:
            for domain in ("N", "Zneg", "Z"):
                for spec in find_seeds(sub, domain):
                    validate_seed(sub, spec)  # must not raise

    def test_period_override_must_be_multiple(self):
        with pytest.raises(InvalidSeedError):
            make_system("a->ab,b->a", "a|a", period=3)
        ns = make_system("a->ab,b->a", "a|a", period=4)
        assert ns.period == 4

    def test_residue_bounds(self):
        with pytest.raises(InvalidSeedError):
            make_system("a->abc,b->c,c->ac", "c|a", residue=1)

    def test_non_growing_seed_rejected(self):
        # b is on a first-letter cycle but never grows
        with pytest.raises(InvalidSeedError):
            make_system("a->ab,b->b", "_|b")

    def test_parse_seed_forms(self):
        assert parse_seed("b|a") == ("b", "a")
        assert parse_seed("_|a") == (None, "a")
        assert parse_seed("b|_") == ("b", None)
        with pytest.raises(DslSyntaxError):
            parse_seed("ba")

    def test_minimal_period(self):
        sub = parse_substitution("a->aab,b->a")
        assert minimal_period(sub, "b", "a") == 2
        assert minimal_period(sub, None, "a") == 1

    def test_seed_rule_matches_string_rewriting(self):
        # reference: a letter grows when its word still lengthens between
        # levels n and 2n; its period is the least t <= n with mu^t(x)
        # starting (right side) or ending (left side) with x
        for sub in random_substitutions(random.Random(1), 400):
            n = len(sub.alphabet)

            def period(x, end):
                if len(expand_word(sub, x, 2 * n)) == len(expand_word(sub, x, n)):
                    return None
                return next(
                    (t for t in range(1, n + 1) if expand_word(sub, x, t)[end] == x),
                    None,
                )

            right = {x: period(x, 0) for x in sub.alphabet}
            left = {x: period(x, -1) for x in sub.alphabet}
            rights = [(a, t) for a, t in right.items() if t is not None]
            lefts = [(b, t) for b, t in left.items() if t is not None]
            expected = {
                "N": [(None, a, t) for a, t in rights],
                "Zneg": [(b, None, t) for b, t in lefts],
                "Z": [(b, a, math.lcm(tb, ta)) for b, tb in lefts for a, ta in rights],
            }
            for domain, seeds in expected.items():
                found = find_seeds(sub, domain)
                assert [(s.left, s.right, s.period) for s in found] == seeds, sub

            sides = (None,) + sub.alphabet
            for b in sides:
                for a in sides:
                    if a is None and b is None:
                        continue
                    if a is not None and right[a] is None:
                        fault = f"{a!r} is not a valid right seed letter"
                    elif b is not None and left[b] is None:
                        fault = f"{b!r} is not a valid left seed letter"
                    else:
                        fault = None
                    if fault is not None:
                        with pytest.raises(InvalidSeedError) as err:
                            minimal_period(sub, b, a)
                        assert str(err.value) == fault, sub
                        continue
                    p = math.lcm(*(t for t in (left.get(b), right.get(a)) if t))
                    assert minimal_period(sub, b, a) == p, sub
                    for q in (1, 2, 3, 6):
                        if q % p == 0:
                            validate_seed(sub, SeedSpec(b, a, q))
                        else:
                            with pytest.raises(InvalidSeedError, match="not a multiple"):
                                validate_seed(sub, SeedSpec(b, a, q))

    def test_seed_letter_outside_the_alphabet(self):
        sub = parse_substitution("a->ab,b->a")
        with pytest.raises(UnknownLetterError, match="unknown letter 'z'"):
            validate_seed(sub, SeedSpec("z", "a", 2))
        with pytest.raises(UnknownLetterError, match="unknown letter 'z'"):
            minimal_period(sub, None, "z")


def _level_search_inputs(corpus: int | None = None):
    """(substitution, root letters) pairs for the level search: the corpus
    systems' seed sides, then 1000 random substitutions, each with one root.
    Rows never shrink at any level, not only along a residue class, on
    every substitution; the bisection of the stored rows rests on it."""
    from helpers import corpus_systems

    inputs = [(ns.substitution, (ns.right, ns.left)) for ns in corpus_systems()[:corpus]]
    for i, sub in enumerate(random_substitutions(random.Random(8), 1000)):
        inputs.append((sub, (sub.alphabet[i % len(sub.alphabet)],)))
    return inputs


def _step_source(image_idx: tuple[tuple[int, ...], ...]) -> str:
    """The row step's sums (``_shared_sums`` written by ``_sum_source``) as
    the one-level function ``step(p)`` that the pinned hash was taken of;
    the ``steps`` kernel runs the same assignments and entries on locals."""
    names = [f"p[{y}]" for y in range(len(image_idx))]
    assigns, values = _sum_source(_shared_sums(image_idx), names, "t")
    lines = ["def step(p):", *(f"    {line}" for line in assigns)]
    lines.append("    return [" + ", ".join(values) + "]")
    return "\n".join(lines) + "\n"


def _long_image_substitutions() -> list[Substitution]:
    letters = tuple(f"x{i}" for i in range(40))
    return [
        # 10,000 terms as one "+" chain would overflow the compiler's stack
        Substitution(
            ("a", "b", "c"),
            (("a", "b") * 5000, ("b",) * 32 + ("a",), ("c", "a") * 16),
        ),
        # two identical images, and a letter four times in one image
        Substitution(
            ("a", "b", "c", "d"),
            (("a", "b", "c"), ("c", "a", "b"), ("d", "d", "a", "d", "d"), ("b",)),
        ),
        # 40 terms no pair of which repeats: the ``sum`` fallback
        Substitution(letters, (letters,) + tuple((x,) for x in letters[1:])),
    ]


class TestLengthTable:
    def test_rows_match_the_naive_recursion(self):
        from helpers import corpus_systems

        subs = {ns.substitution for ns in corpus_systems()}
        for sub in subs:
            sub.lengths.row(60)
            rows = sub.lengths._rows
            plain = PlainRows(sub)
            for level in range(61):
                assert list(rows[level]) == plain[level], (sub, level)

    def test_rows_never_shrink_entrywise(self, fixture_substitutions):
        # images are non-empty, so |mu^(k+1)(x)| >= |mu^k(x)| at every level,
        # not only along a residue class; the store's bit bound and the
        # level search's bisections, of the stored rows and of the streamed
        # levels, rest on it
        from helpers import corpus_systems

        subs = set(fixture_substitutions) | {ns.substitution for ns in corpus_systems()}
        subs |= set(random_substitutions(random.Random(8), 1000))
        for sub in subs:
            table = _LengthTable(sub.image_idx)
            table.row(60)
            rows = table._rows
            for level in range(60):
                assert all(map(int.__le__, rows[level], rows[level + 1])), (sub, level)

    def test_one_letter_image_shares_the_entry_below(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        sub.lengths.row(200)
        rows = sub.lengths._rows
        b, c = sub.index["b"], sub.index["c"]
        assert rows[199][c].bit_length() > 64
        assert rows[200][b] is rows[199][c]
        assert sub.lengths.row(200) is rows[200]  # a stored row is read, not copied

    def test_level_matches_a_linear_scan(self):
        rng = random.Random(5)
        top = 60
        rounded_past_the_top = 0
        for sub, sides in _level_search_inputs():
            naive = PlainRows(sub)
            naive[top + 7]  # room for a table built past the answer
            for side in sides:
                if side is None:
                    continue
                root = sub.index[side]
                for p in (1, 2, 3):
                    for r in range(p):
                        need = rng.randint(1, naive[rng.randrange(r, top + 1, p)][root])
                        k = reach = r  # the answer, and the least level >= r that reaches
                        while naive[k][root] < need:
                            k += p
                        while naive[reach][root] < need:
                            reach += 1
                        # at height ``reach`` the bisection finds a stored
                        # level that rounds up past the top stored row
                        rounded_past_the_top += reach < k
                        for height in (None, k - 1, k + 7, reach):
                            table = _LengthTable(sub.image_idx)
                            if height is not None:
                                table.row(height)
                            assert table.level(root, need, r, p) == k, (sub, side, need, r, p)
                            # no row kept past the answer
                            built = max(k, 0 if height is None else height)
                            assert len(table._rows) == built + 1
                            assert as_lists(table._rows) == naive.rows[: built + 1]
        assert rounded_past_the_top > 0

    def test_long_images_grow_like_the_naive_recursion(self):
        for sub in _long_image_substitutions():
            sub.lengths.row(12)
            rows = sub.lengths._rows
            plain = PlainRows(sub)
            for level in range(13):
                assert list(rows[level]) == plain[level], (sub, level)
        assert "sum(" in _steps_source(sub.image_idx)

    def test_step_shares_partial_sums(self, fixture_substitutions):
        additions = {}
        for sub in fixture_substitutions:
            source = _steps_source(sub.image_idx)
            plain = sum(len(im) - 1 for im in sub.image_idx)
            assert source.count("+") <= plain, sub
            additions[sub.to_dsl()] = (source.count("+"), plain)
        assert additions["a->abc,b->c,c->ac"] == (2, 3)
        eight = parse_substitution(
            "a1 -> b c a2, f -> b b, a2 -> a3, b -> d d, c -> d d e,"
            " a3 -> a1, d -> f f, e -> f f f f"
        )
        assert additions[eight.to_dsl()] == (7, 10)

    def test_step_sharing_on_random_substitutions(self):
        from helpers import random_substitutions

        plain = shared = 0
        for sub in random_substitutions(random.Random(1), 1000):
            source = _steps_source(sub.image_idx)
            plain += sum(len(im) - 1 for im in sub.image_idx)
            shared += source.count("+")
            # every temporary is read after it is assigned
            for name in set(re.findall(r"\bt\d+\b", source)):
                assert len(re.findall(rf"\b{name}\b", source)) >= 2, source
        assert plain == 3253 and shared <= 2756

    def test_step_source_is_pinned(self, fixture_substitutions):
        """The sums of every row step over the fixtures, 9,000 random
        substitutions and the long images, hashed together: a change to
        which pairs are shared, or in what order, changes the hash."""
        subs = list(fixture_substitutions)
        for seed in (1, 2, 3):
            subs += random_substitutions(random.Random(seed), 3000)
        subs += _long_image_substitutions()
        digest = hashlib.md5()
        for sub in subs:
            digest.update(_step_source(sub.image_idx).encode())
        assert len(subs) == 9014
        assert digest.hexdigest() == "b61785b2d250a9555c34295630bf3b99"

    def test_concurrent_growth_appends_each_level_once(self):
        text = "a->abc,b->c,c->ac"
        grown = parse_substitution(text).lengths
        grown.row(400)
        expected = grown._rows
        a = parse_substitution(text).index["a"]
        needs = [expected[k][a] for k in (100, 250, 399, 400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bad = 0
            for _ in range(30):
                # four threads grow one table by row(400), four another by level
                table = parse_substitution(text).lengths
                threads = [
                    threading.Thread(target=table.row, args=(400,)) for _ in range(4)
                ]
                table2 = parse_substitution(text).lengths
                levels = []
                threads += [
                    threading.Thread(
                        target=lambda need: levels.append(table2.level(a, need, 0, 1)),
                        args=(need,),
                    )
                    for need in needs
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                bad += table._rows != expected
                bad += table2._rows != expected
                assert sorted(levels) == [100, 250, 399, 400]
        finally:
            sys.setswitchinterval(interval)
        assert bad == 0

    def test_growth_stops_at_the_level_cap(self, monkeypatch):
        monkeypatch.setattr(core, "_MAX_LEVEL", 50)
        table = parse_substitution("a->ab,b->b").lengths  # |mu^k(a)| = k + 1
        assert table.level(0, 51, 0, 1) == 50
        with pytest.raises(DigitCapExceededError):
            table.level(0, 52, 0, 1)
        with pytest.raises(DigitCapExceededError):
            table.level(0, 52, 1, 7)
        table.row(50)
        rows = table._rows
        assert len(rows) == 51
        with pytest.raises(DigitCapExceededError):
            table.row(51)
        assert len(rows) == 51
        # built rows are read without a check
        assert table.level(0, 51, 1, 7) == 50

    def test_a_cold_search_makes_one_product_per_checkpoint(self, monkeypatch):
        """At the default budget a cold level search past the store steps to
        its first checkpoint and jumps to every later one; the one jump past
        its answer is dropped once, never retried. So it makes one
        ``M^span`` product per checkpoint, at a span that never doubled."""
        products = []
        times = core._times
        monkeypatch.setattr(core, "_times", lambda m, row: products.append(m) or times(m, row))
        marks_at = {
            "a->abc,b->c,c->ac": (68, 227),
            "a->aab,b->a": (61, 204),
            "a->ab,b->ab": (77, 259),
        }
        for text, counts in marks_at.items():
            for e, count in zip((3000, 10000), counts):
                table = _LengthTable(parse_substitution(text).image_idx)
                products.clear()
                table.level(0, 10**e + 4243, 0, 1)
                base, span, marks = table._marks
                assert (len(products), len(marks), span) == (count, count, core._SPAN), (text, e)

    @staticmethod
    def _stepped(table: _LengthTable) -> list[int]:
        """The levels ``table`` steps per ``steps`` call from now on."""
        stepped, steps = [], table._steps
        table._steps = lambda c, count: stepped.append(count - 1) or steps(c, count)
        return stepped

    def test_a_second_search_jumps_from_between_checkpoints(self, monkeypatch):
        """A cold search leaves the front at its answer, between two
        checkpoints. A second, higher search jumps from the checkpoint below
        the front at once: one product per new checkpoint, plus the one jump
        past its answer, dropped and never retried, and fewer than a span of
        stepped levels, those below the answer. Stepping from the front up
        to the next checkpoint first, or stepping the streamed levels below
        the front to bisect them, steps more."""
        products = []
        times = core._times
        monkeypatch.setattr(core, "_times", lambda m, row: products.append(m) or times(m, row))
        for text in ("a->abc,b->c,c->ac", "a->aab,b->a", "a->ab,b->ab"):
            table = _LengthTable(parse_substitution(text).image_idx)
            table.level(0, 10**3000 + 1, 0, 1)
            before = len(table._marks[2])
            products.clear()
            stepped = self._stepped(table)
            k = table.level(0, 10**3300 + 1, 0, 1)
            base, span, marks = table._marks
            assert len(products) == len(marks) - before + 1, text
            assert sum(stepped) < span == core._SPAN, text
            assert table.row(k - 1)[0] <= 10**3300 < table.row(k)[0], text

    def test_a_long_period_rounds_past_a_dropped_jump(self, monkeypatch):
        """With a period of many spans, the least level reaching the need
        lies below the next checkpoint, so the jump there is dropped, but
        the class rounds the answer many checkpoints past it: the climb
        steps up to that checkpoint and jumps on from it, so it steps fewer
        than two spans of levels, and makes one product per new checkpoint
        and at most the two dropped ones."""
        products = []
        times = core._times
        monkeypatch.setattr(core, "_times", lambda m, row: products.append(m) or times(m, row))
        sub = parse_substitution("a->abc,b->c,c->ac")
        for p in (2000, 5000):
            table = _LengthTable(sub.image_idx)
            table.level(0, 10**3000 + 1, 0, 1)
            front = table._front[0]
            need = _LengthTable(sub.image_idx).row(front + 20)[0]
            before = len(table._marks[2])
            products.clear()
            stepped = self._stepped(table)
            k = table.level(0, need, (front + 1) % p, p)
            base, span, marks = table._marks
            assert k == front + 1 + p, p  # the need is reached 20 levels up
            assert len(marks) - before + 1 <= len(products) <= len(marks) - before + 2, p
            assert sum(stepped) < 2 * span, p
            reference = _LengthTable(sub.image_idx)
            assert reference.row(k - p)[0] < need <= reference.row(k)[0] == table.row(k)[0], p

    def test_reads_at_or_below_the_front_take_no_lock(self):
        """``row`` and ``spans`` of a level at or below the front, stored or
        streamed, read without the lock; a level past the front takes it
        once, to climb."""

        class CountingLock:
            def __init__(self):
                self.entered = 0

            def __enter__(self):
                self.entered += 1

            def __exit__(self, *exc):
                return False

        table = _LengthTable(parse_substitution("a->abc,b->c,c->ac").image_idx)
        table.level(0, 10**3000 + 1, 0, 1)
        front = table._front[0]
        base, span, marks = table._marks
        lock = table._lock = CountingLock()
        for level in (0, base, base + 1, base + span, front - 1, front):
            table.row(level)
            table.spans(level + 1)
        assert lock.entered == 0
        assert table.row(front + 1) == table._front[1]
        assert lock.entered == 1

    def test_rows_past_the_cap_are_refused_before_growing(self):
        sub = parse_substitution("a->ab,b->a")
        with pytest.raises(DigitCapExceededError):
            image_length(sub, "a", core._MAX_LEVEL + 1)
        assert len(sub.lengths._rows) == 1


def _levels(table: _LengthTable, k: int) -> list[list[int]]:
    """Rows ``0 .. k - 1`` from ``spans``, each block stepped up from its checkpoint."""
    rows, top, blocks = table.spans(k)
    assert rows is table._rows  # the stored list itself, not a copy
    return rows[:top] + [row for c, count in reversed(blocks) for row in table.block_rows(c, count)]


class TestStreamedTable:
    """Past the store budget: checkpoints, recomputed rows and spans."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        # one budget for the stored rows and the checkpoints, so that the
        # checkpoints thin within a few thousand levels
        monkeypatch.setattr(core, "_STORE_BITS", 2000)
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", 2000)
        monkeypatch.setattr(core, "_SPAN", 5)

    def test_rows_read_in_any_order_match_the_naive_recursion(self):
        rng = random.Random(6)
        for text in ("a->abc,b->c,c->ac", "a->ab,b->ab", "a->aab,b->a"):
            sub = parse_substitution(text)
            naive = PlainRows(sub)
            naive[400]  # rows 0 .. 400, for the slices below
            table = _LengthTable(sub.image_idx)
            order = list(range(401))
            for levels in (sorted(order), sorted(order, reverse=True), rng.sample(order, 401)):
                for level in levels:
                    assert list(table.row(level)) == naive[level], (text, level)
            stored = len(table._rows)
            assert 5 <= stored < 400
            assert as_lists(table._rows) == naive.rows[:stored]
            for k in (0, 1, stored - 1, stored, stored + 1, 137, 401):
                rows, top, blocks = table.spans(k)
                # the top stored row is also the lowest checkpoint, read as such
                assert top == (k if k <= stored else stored - 1)
                assert all(count <= table._marks[1] for _, count in blocks)
                assert as_lists(_levels(table, k)) == naive.rows[:k], (text, k)
                # shifted, a row e levels up the checkpoint is short of the
                # exact one by less than |mu^e(x)| in entry x
                lowest = top
                for checkpoint, count in reversed(blocks):
                    for shift in (1, 9):
                        shifted = table.block_rows(checkpoint, count, shift)
                        for e, row in enumerate(shifted):
                            exact = naive[lowest + e]
                            for x, v in enumerate(row):
                                assert 0 <= exact[x] - (v << shift) < naive[e][x] << shift
                    lowest += count

    def test_checkpoints_stay_within_the_budget(self):
        sub = parse_substitution("a->abc,b->c,c->ac")
        table = sub.lengths
        table.row(3000)
        base, span, marks = table._marks
        assert span > core._SPAN  # thinned, every other checkpoint dropped
        assert table._bits == sum(map(core._row_bits, marks))
        assert table._bits <= core._CHECKPOINT_BITS + core._row_bits(marks[-1])
        naive = PlainRows(sub)
        assert all(list(m) == naive[base + i * span] for i, m in enumerate(marks))
        assert list(table.row(2999)) == naive[2999] and list(table.row(3000)) == naive[3000]
        with pytest.raises(DigitCapExceededError, match="cap"):
            table.row(core._MAX_LEVEL + 1)

    def test_jumped_checkpoints_match_the_naive_recursion(self):
        """Above the stored rows each checkpoint is one jump, ``M^span``
        times the checkpoint below, across several doublings of the span;
        only the last part of a span is stepped. Tables grown in one climb
        and in several hold the same checkpoints; row by row, no climb
        looks past the next level, so the store fills up to its budget.
        The layouts are (base, span, checkpoints, bits)."""
        expected = {
            "a->abc,b->c,c->ac": [(34, 2560, 2, 8999)] * 2,
            "a->aab,b->a": [(4, 2560, 2, 6532), (39, 2560, 2, 6709)],
            "a->aab,b->b": [(4, 2560, 2, 2572), (59, 2560, 2, 2682)],
            "a->ab,b->ab": [(44, 2560, 2, 5300)] * 2,
        }
        for text, (climbed, stepped) in expected.items():
            sub = parse_substitution(text)
            naive = PlainRows(sub)
            naive[3000]
            layouts = []
            for reads in ([3000], [700, 1500, 2999, 3000], range(3001)):
                table = _LengthTable(sub.image_idx)
                kernel = table._steps
                steps = []  # the levels each call of the row-step kernel steps
                table._steps = lambda c, count: steps.append(count - 1) or kernel(c, count)
                for level in reads:
                    assert list(table.row(level)) == naive[level], (text, level)
                base, span, marks = table._marks
                assert span >= 8 * core._SPAN, text  # thinned three times or more
                assert all(list(m) == naive[base + i * span] for i, m in enumerate(marks)), text
                assert table._front[0] == 3000
                layouts.append((base, span, len(marks), table._bits))
                if len(reads) == 1:  # one climb: jumps, not a step per level
                    assert sum(steps) < 1500, (text, sum(steps))
            assert layouts == [climbed, climbed, stepped], text

    def test_cold_level_search_builds_up_to_its_answer(self):
        """A level search on a new table jumps while the next checkpoint
        falls short of the need, then steps: it ends with the front at its
        answer, every checkpoint at or below it and equal to the naive row."""
        rng = random.Random(12)
        for text in ("a->abc,b->c,c->ac", "a->aab,b->a", "a->aab,b->b"):
            sub = parse_substitution(text)
            naive = PlainRows(sub)
            naive[3100]
            root = sub.index["a"]
            for level in [0, 1, 3000] + rng.sample(range(3001), 15):
                for need in (naive[level][root], naive[level][root] + 1):
                    for p in (1, 2, 3):
                        r = rng.randrange(p)
                        k = naive.level(root, need, r, p)
                        table = _LengthTable(sub.image_idx)
                        assert table.level(root, need, r, p) == k, (text, need, r, p)
                        assert table._front[0] == k and list(table._front[1]) == naive[k]
                        if table._marks is not None:
                            base, span, marks = table._marks
                            assert base + (len(marks) - 1) * span <= k
                            for i, m in enumerate(marks):
                                assert list(m) == naive[base + i * span]
                        # the table it built answers the same search, and grows no further
                        assert table.level(root, need, r, p) == k
                        assert table._front[0] == k

    def test_a_jump_meeting_the_need_exactly_is_dropped(self):
        # a->b,b->c,c->aa holds each entry for three levels, so a need met
        # exactly by a jumped checkpoint may be met below it too
        sub = parse_substitution("a->b,b->c,c->aa")
        naive = PlainRows(sub)
        for level in range(1500):
            k = naive.level(0, naive[level][0], 0, 1)
            table = _LengthTable(sub.image_idx)
            assert table.level(0, naive[level][0], 0, 1) == k, level

    def test_jumps_stop_at_the_level_cap(self, monkeypatch):
        monkeypatch.setattr(core, "_MAX_LEVEL", 2003)
        sub = parse_substitution("a->abc,b->c,c->ac")
        naive = PlainRows(sub)
        table = _LengthTable(sub.image_idx)
        assert table.level(0, naive[2003][0], 0, 1) == 2003
        with pytest.raises(DigitCapExceededError, match="digits"):
            table.level(0, naive[2003][0] + 1, 0, 1)
        with pytest.raises(DigitCapExceededError, match="digits"):
            _LengthTable(sub.image_idx).level(0, naive[2003][0] + 1, 1, 3)
        assert table._front[0] == 2003 and list(table._front[1]) == naive[2003]
        base, span, marks = table._marks
        assert base + (len(marks) - 1) * span <= 2003

    @pytest.mark.parametrize(
        "bits, span, expected",
        [
            (2000, 5, [(35, 34, 2560, 2, 8999), (5, 4, 2560, 2, 6532), (45, 44, 2560, 2, 5300)]),
            (3000, 7, [(42, 41, 1792, 2, 6417), (7, 6, 1792, 2, 4588), (56, 55, 1792, 2, 3808)]),
            (400, 2, [(16, 15, 2048, 2, 7116), (18, 17, 2048, 2, 5295), (20, 19, 2048, 2, 4176)]),
        ],
        ids=["2000-bits-span-5", "3000-bits-span-7", "400-bits-span-2"],
    )
    def test_memory_policy_is_pinned(self, monkeypatch, bits, span, expected):
        """Where the store closes, where the checkpoints sit and the bits
        they hold after ``row(3000)`` on a new table, one climb that weighs
        its top level: (stored rows, base, span, checkpoints, bits)."""
        monkeypatch.setattr(core, "_STORE_BITS", bits)
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", bits)
        monkeypatch.setattr(core, "_SPAN", span)
        for text, want in zip(("a->abc,b->c,c->ac", "a->aab,b->a", "a->ab,b->ab"), expected):
            table = parse_substitution(text).lengths
            table.row(3000)
            base, span_, marks = table._marks
            assert (len(table._rows), base, span_, len(marks), table._bits) == want, text

    def test_level_matches_a_linear_scan(self):
        rng = random.Random(7)
        for sub, sides in _level_search_inputs(corpus=60):
            naive = PlainRows(sub)
            for side in sides:
                if side is None:
                    continue
                root = sub.index[side]
                for p in (1, 2, 3):
                    r = rng.randrange(p)
                    need = rng.randint(1, naive[rng.randrange(r, 201, p)][root])
                    k = reach = r
                    while naive[k][root] < need:
                        k += p
                    while naive[reach][root] < need:
                        reach += 1
                    for height in (None, k - 1, k + 7, 250, reach):
                        table = _LengthTable(sub.image_idx)
                        if height is not None:
                            table.row(height)
                        assert table.level(root, need, r, p) == k, (sub, side, need, r, p)
                        assert list(table.row(k)) == naive[k]
                        # never grown past the answer
                        assert table._front[0] <= max(k, height or 0)

    def test_level_below_a_thinned_front_matches_a_linear_scan(self):
        # after row(3000) the checkpoints have been halved several times, so
        # the streamed levels below the front are bisected across spans of
        # many levels; the search reads them and grows nothing
        rng = random.Random(9)
        for text in ("a->abc,b->c,c->ac", "a->aab,b->a"):
            sub = parse_substitution(text)
            naive = PlainRows(sub)
            naive[3000]
            table = sub.lengths
            table.row(3000)
            assert table._marks[1] >= 8 * core._SPAN
            root = sub.index["a"]
            for level in [0, 1, len(table._rows) - 1, len(table._rows), 2999, 3000] + rng.sample(
                range(3001), 40
            ):
                for need in (naive[level][root], naive[level][root] - 1, 1):
                    for p in (1, 2, 3):
                        r = rng.randrange(p)
                        k = r
                        while naive[k][root] < need:
                            k += p
                        if k > 3000:
                            continue
                        assert table.level(root, need, r, p) == k, (text, need, r, p)
                        assert table._front[0] == 3000

    def test_concurrent_streamed_reads(self):
        text = "a->abc,b->c,c->ac"
        expected = PlainRows(parse_substitution(text))
        expected[600]  # rows 0 .. 600, for the scan below
        a = parse_substitution(text).index["a"]
        needs = [expected[k][a] for k in (100, 250, 399, 400, 599)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                table = parse_substitution(text).lengths
                got = []
                calls = [(table.row, (level,)) for level in (600, 300, 450, 599)]
                calls += [(table.level, (a, need, 0, 1)) for need in needs]
                calls += [(lambda k: _levels(table, k), (k,)) for k in (601, 350)]
                threads = [
                    threading.Thread(target=lambda f, args: got.append((f, args, f(*args))), args=c)
                    for c in calls
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == len(calls)
                for f, args, result in got:
                    if f == table.row:
                        assert list(result) == expected[args[0]]
                    elif f == table.level:
                        assert result == next(k for k, row in enumerate(expected.rows) if row[a] >= args[1])
                    else:
                        assert as_lists(result) == expected.rows[: args[0]]
                assert [list(table.row(k)) for k in range(601)] == expected.rows[:601]
        finally:
            sys.setswitchinterval(interval)


def _budget_close(naive: PlainRows) -> int:
    """The level at which the stored rows close by their budget alone: the
    first count level at which ``_SPAN`` times the bits of each count
    level's row, summed, reach ``_STORE_BITS``."""
    level, bits = core._SPAN - 1, 0
    while True:
        bits += core._SPAN * core._row_bits(naive[level])
        if bits >= core._STORE_BITS:
            return level
        level += core._SPAN


def test_a_cold_row_read_past_the_store_keeps_one_span():
    """At the default budget a cold ``row`` read far past the store knows
    its top level, as a climb of ``spans`` does: it closes the store after
    one span and jumps, where filling it would store 6,272 rows."""
    sub = parse_substitution("a->abc,b->c,c->ac")
    assert image_length(sub, "a", 7000) == PlainRows(sub)[7000][sub.index["a"]]
    table = sub.lengths
    assert len(table._rows) <= core._SPAN == 128
    assert table._marks is not None and table._front[0] == 7000


class TestStoreClosesEarly:
    """A level search whose answer the last span's growth puts past the
    store budget, or a climb of ``row`` or ``spans`` to a level past it,
    closes the stored rows at once, where a jump pays, and climbs by
    jumps; every other climb fills the store up to its budget."""

    TEXTS = ("a->abc,b->c,c->ac", "a->aab,b->a", "a->ab,b->ab")

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        # a jump of 16 levels pays on TEXTS, whose stores close at levels 479-639
        monkeypatch.setattr(core, "_STORE_BITS", 400_000)
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", 400_000)
        monkeypatch.setattr(core, "_SPAN", 16)

    def test_a_search_past_the_store_keeps_one_span(self):
        rng = random.Random(21)
        for text in self.TEXTS:
            sub = parse_substitution(text)
            assert _LengthTable(sub.image_idx)._power_of(core._SPAN) is not None
            naive = PlainRows(sub)
            naive[2500]
            close = _budget_close(naive)
            assert 300 < close < 1500, text
            root = sub.index["a"]
            for level in [close + 40, 1500, 2400] + rng.sample(range(close + 1, 2400), 4):
                for need in (naive[level][root], naive[level][root] + 1):
                    p = rng.randint(1, 3)
                    r = rng.randrange(p)
                    k = naive.level(root, need, r, p)
                    table = _LengthTable(sub.image_idx)
                    assert table.level(root, need, r, p) == k, (text, need, r, p)
                    stored = len(table._rows)
                    assert stored <= core._SPAN, (text, level)
                    assert as_lists(table._rows) == naive.rows[:stored]
                    base, span, marks = table._marks
                    assert base == stored - 1
                    assert all(list(m) == naive[base + i * span] for i, m in enumerate(marks))
                    assert table._front[0] == k and list(table._front[1]) == naive[k]
                    assert as_lists(_levels(table, k + 1)) == naive.rows[: k + 1], (text, k)

    def test_spans_past_the_store_keeps_one_span(self):
        """``spans(k)`` knows the level it climbs to: a cold one whose rows
        would pass the budget closes the store after one span, one well
        within it stores every row it reads."""
        for text in self.TEXTS:
            sub = parse_substitution(text)
            naive = PlainRows(sub)
            naive[2500]
            close = _budget_close(naive)
            for k in (close + 40, 1500, 2500):
                table = _LengthTable(sub.image_idx)
                assert as_lists(_levels(table, k)) == naive.rows[:k], (text, k)
                assert len(table._rows) <= core._SPAN, (text, k)
                assert table._front[0] == k - 1
            for k in (close // 2, 3 * close // 4):
                table = _LengthTable(sub.image_idx)
                assert as_lists(_levels(table, k)) == naive.rows[:k], (text, k)
                assert table._marks is None and len(table._rows) == k, (text, k)

    def test_a_search_that_fits_fills_the_store_as_before(self):
        """A level search whose answer fits keeps every row up to it, as
        before. A climb of ``row`` to 1600, whose rows would pass the
        budget, then closes the store at the first count level above that
        answer, as a table grown by that ``row`` read alone closes it at
        the first count level. The layouts after ``row(1600)``, for the
        table grown alone and for each level searched first (0, 1,
        ``close // 2``, ``3 * close // 4``), are (base, span, checkpoints,
        bits)."""
        expected = {
            "a->abc,b->c,c->ac": [(15, 16, 100, 276341)] * 3
            + [(255, 16, 85, 269810), (367, 16, 78, 262543)],
            "a->aab,b->a": [(15, 16, 100, 205260)] * 3
            + [(287, 16, 83, 199072), (431, 16, 74, 191037)],
            "a->ab,b->ab": [(15, 16, 100, 161600)] * 3
            + [(335, 16, 80, 154880), (495, 16, 70, 146720)],
        }
        assert tuple(expected) == self.TEXTS
        for text, layouts in expected.items():
            sub = parse_substitution(text)
            naive = PlainRows(sub)
            naive[1600]
            close = _budget_close(naive)
            grown = _LengthTable(sub.image_idx)  # by one row read alone
            grown.row(1600)
            base, span, marks = grown._marks
            assert (base, span, len(marks), grown._bits) == layouts[0], text
            root = sub.index["a"]
            for level, layout in zip((0, 1, close // 2, 3 * close // 4), layouts[1:]):
                need = naive[level][root]
                k = naive.level(root, need, 0, 1)
                table = _LengthTable(sub.image_idx)
                assert table.level(root, need, 0, 1) == k, (text, level)
                assert table._marks is None and as_lists(table._rows) == naive.rows[: k + 1]
                table.row(1600)
                base, span, marks = table._marks
                assert (base, span, len(marks), table._bits) == layout, (text, level)
                assert base == (k + 1) // core._SPAN * core._SPAN + core._SPAN - 1 < close
                assert len(marks) == (1600 - base) // span + 1
                assert len(table._rows) == base + 1
                assert as_lists(table._rows) == naive.rows[: base + 1]
                assert all(list(m) == naive[base + i * span] for i, m in enumerate(marks))
                assert table._bits == sum(map(core._row_bits, marks))

    def test_row_reads_and_steps_that_pay_keep_the_store(self, monkeypatch):
        """Ascending ``row`` reads, each one level past the last, and a
        level search on a 30-letter cycle, whose jumps do not pay, fill the
        store up to its budget, though the cycle's search finds its answer
        past it."""
        for text in self.TEXTS:
            sub = parse_substitution(text)
            naive = PlainRows(sub)
            table = _LengthTable(sub.image_idx)
            for level in range(1600):
                assert list(table.row(level)) == naive[level], (text, level)
            close = _budget_close(naive)
            assert len(table._rows) == close + 1 and table._marks[0] == close, text
        cycle = ", ".join(["x0 -> x0 x1"] + [f"x{i} -> x{(i + 1) % 30}" for i in range(1, 30)])
        sub = parse_substitution(cycle)
        naive = PlainRows(sub)
        close = _budget_close(naive)
        need = naive[3 * close][0]
        k = naive.level(0, need, 0, 1)
        asked = []  # the levels at which a jump's cost is weighed
        power_of = _LengthTable._power_of
        monkeypatch.setattr(
            _LengthTable, "_power_of", lambda t, span: asked.append(len(t._rows)) or power_of(t, span)
        )
        table = _LengthTable(sub.image_idx)
        assert table.level(0, need, 0, 1) == k
        assert asked and asked[0] < close  # the estimate passed the budget early ...
        assert table._power_of(core._SPAN) is None  # ... but a jump does not pay
        assert len(table._rows) == close + 1 and as_lists(table._rows) == naive.rows[: close + 1]
        base, span, marks = table._marks
        assert base == close
        assert all(list(m) == naive[base + i * span] for i, m in enumerate(marks))
        assert as_lists(_levels(table, k + 1)) == naive.rows[: k + 1]


class TestClimbAgainstPlainRows:
    """The climb steps a block of rows per count span and keeps those up to
    its answer; against ``PlainRows`` on a seeded corpus, at periods 1-3,
    with small spans, budgets, blocks and level caps patched in, which the
    row-step kernel and ``_climb`` read at call time."""

    @pytest.mark.parametrize(
        "span, bits, block, cap",
        [(2, 600, 2**20, 150), (5, 2000, 40, 240), (7, 5000, 200, 263)],
        ids=["2", "5", "7"],
    )
    def test_climbs_match_plain_rows(self, monkeypatch, span, bits, block, cap):
        monkeypatch.setattr(core, "_SPAN", span)
        monkeypatch.setattr(core, "_STORE_BITS", bits)
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", bits)
        # a block of fewer levels than a span once the rows pass this many bits
        monkeypatch.setattr(core, "_BLOCK_BITS", block)
        monkeypatch.setattr(core, "_MAX_LEVEL", cap)
        rng = random.Random(span)
        refused = streamed = 0
        for sub in random_substitutions(rng, 30):
            naive = PlainRows(sub)
            naive[cap]
            root = rng.randrange(len(sub.alphabet))
            most = naive[cap][root]
            for p in (1, 2, 3):
                r = rng.randrange(p)
                for need in (1, rng.randint(1, most), most, most + 1):
                    k = r
                    while k <= cap and naive[k][root] < need:
                        k += p
                    for height in (None, rng.randrange(cap + 1)):
                        table = _LengthTable(sub.image_idx)
                        if height is not None:
                            table.row(height)
                        front = table._front[0]
                        if k > cap:
                            with pytest.raises(DigitCapExceededError) as raised:
                                table.level(root, need, r, p)
                            assert str(raised.value) == f"the answer needs more than {cap} digits"
                            refused += 1
                            continue
                        assert table.level(root, need, r, p) == k, (sub, need, r, p)
                        lv, row = table._front
                        assert lv == max(k, front) and list(row) == naive[lv]
                        # no row is kept above the answer
                        assert len(table._rows) <= lv + 1
                        assert as_lists(table._rows) == naive.rows[: len(table._rows)]
                        if table._marks is not None:
                            streamed += 1
                            base, step, marks = table._marks
                            assert base + (len(marks) - 1) * step <= lv
                            for i, m in enumerate(marks):
                                assert list(m) == naive[base + i * step]
                        assert [list(table.row(j)) for j in range(lv + 1)] == naive.rows[: lv + 1]
                        assert as_lists(_levels(table, lv + 1)) == naive.rows[: lv + 1]
            table = _LengthTable(sub.image_idx)
            assert list(table.row(cap)) == naive[cap]
            with pytest.raises(DigitCapExceededError) as raised:
                table.row(cap + 1)
            assert str(raised.value) == f"level {cap + 1} is past the cap of {cap} levels"
        assert refused and streamed


class TestCollector:
    def test_rows_leave_the_collector_after_one_pass(self):
        """Stored rows, checkpoints and the front are tuples of integers,
        which one pass of the cyclic collector stops tracking; growing a
        table leaves the collector's settings as they were."""
        enabled, threshold = gc.isenabled(), gc.get_threshold()
        tables = []
        for exponent in (1000, 3000):
            table = parse_substitution("a->abc,b->c,c->ac").lengths
            table.level(0, 10**exponent + 4243, 0, 1)
            tables.append(table)
        assert tables[0]._marks is None and tables[1]._marks is not None
        gc.collect()
        for table in tables:
            marks = table._marks[2] if table._marks else []
            for row in [*table._rows, *marks, table._front[1]]:
                assert isinstance(row, tuple) and not gc.is_tracked(row)
        assert (gc.isenabled(), gc.get_threshold()) == (enabled, threshold)


class TestSharedKernels:
    """Generated code is a pure function of the images, so tables of equal
    images share it through a bounded cache; their rows stay their own."""

    def test_equal_texts_share_the_kernels(self, monkeypatch):
        text = "a->abc,b->c,c->ac"
        first_sub = make_system(text, "c|a").substitution
        first = first_sub.lengths
        fetched = kernels.compile_kernels(first_sub.image_idx, first_sub.alphabet)
        compiled = []
        for module in (core, kernels):
            compile_ = module._compile
            monkeypatch.setattr(
                module,
                "_compile",
                lambda source, compile_=compile_, **names: compiled.append(source)
                or compile_(source, **names),
            )
        second_sub = make_system(text, "c|a").substitution
        second = second_sub.lengths
        assert second._steps is first._steps
        assert kernels.compile_kernels(second_sub.image_idx, second_sub.alphabet) is fetched
        assert compiled == []  # a second table from the same images compiles nothing
        second.row(40)
        assert second._rows is not first._rows and len(first._rows) == 1

    def test_renamed_letters_share_steps_and_name_their_own_letters(self, monkeypatch):
        # a small store, so that the word's top digit is read by the fold kernel
        monkeypatch.setattr(core, "_STORE_BITS", 2000)
        monkeypatch.setattr(core, "_CHECKPOINT_BITS", 2000)
        monkeypatch.setattr(core, "_SPAN", 5)
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        renamed = make_system("x->xyz,y->z,z->xz", "z|x")
        tables = [ns.substitution.lengths, renamed.substitution.lengths]
        assert ns.substitution.image_idx == renamed.substitution.image_idx
        assert tables[0]._steps is tables[1]._steps
        subs = [ns.substitution, renamed.substitution]
        fetched = [kernels.compile_kernels(sub.image_idx, sub.alphabet) for sub in subs]
        assert fetched[0] is not fetched[1]
        word = rep(ns, 10**60)
        bad = DigitWord((3,) + word.digits[1:], 0)  # the root's image has 3 letters
        for system, table, letter in ((ns, tables[0], "a"), (renamed, tables[1], "x")):
            _, _, blocks = table.spans(len(bad.digits))
            assert blocks
            with pytest.raises(DigitOutOfRangeError) as raised:
                val(system, bad)
            assert str(raised.value) == f"digit 3 >= |image({letter})| = 3"

    def test_the_caches_stay_at_their_bound(self):
        bound = core._KERNEL_CACHE
        subs = random_substitutions(random.Random(27), 4 * bound)
        assert len({sub.image_idx for sub in subs}) > bound
        for sub in subs:
            _LengthTable(sub.image_idx)
            kernels.compile_kernels(sub.image_idx, sub.alphabet)
        for cached in (core._row_step, kernels.compile_kernels):
            info = cached.cache_info()
            assert info.currsize == info.maxsize == bound


_NAME_CHARS = st.sampled_from("ab->|,;. \t\n") | st.characters()


def _is_name(letter: str) -> bool:
    """The DSL's letter names: no whitespace, none of ``,;|.``, no ``->``."""
    return (
        letter != ""
        and "->" not in letter
        and not any(c.isspace() or c in ",;|." for c in letter)
    )


def _expressible(sub) -> bool:
    """Whether some order of the rules names the letters first in alphabet
    order, by trying every order."""
    from itertools import permutations

    for order in permutations(range(len(sub.alphabet))):
        named: list[str] = []
        for i in order:
            for x in (sub.alphabet[i],) + sub.images[i]:
                if x not in named:
                    named.append(x)
        if tuple(named) == sub.alphabet:
            return True
    return False


class TestTextForms:
    @pytest.mark.parametrize("letter", ["a,b", "x->y", "a b", "a\n", "", "a|b", "a.b"])
    def test_json_letter_must_be_a_name(self, letter):
        data = {"alphabet": [letter, "c"], "images": {letter: [letter, "c"], "c": [letter]}}
        with pytest.raises(DslSyntaxError, match="invalid letter name"):
            Substitution.from_json_dict(data)

    @pytest.mark.parametrize(
        "text",
        [
            "a->bb,c->cc,b->dd,d->d",
            "x->xy,z->xz,y->wz,w->w",
            "p1 -> q1, r1 -> r1 r1, q1 -> s1, s1 -> s1 p1",
        ],
    )
    def test_dsl_keeps_the_letter_order(self, text):
        # the rules are not in alphabet order, which is first-appearance order
        sub = parse_substitution(text)
        assert parse_substitution(sub.to_dsl()) == sub

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_round_trips(self, data):
        names = st.text(_NAME_CHARS, min_size=1, max_size=3)
        letters = data.draw(st.lists(names, min_size=1, max_size=5, unique=True))
        images = data.draw(
            st.lists(
                st.lists(st.sampled_from(letters), min_size=1, max_size=4),
                min_size=len(letters),
                max_size=len(letters),
            )
        )
        try:
            sub = Substitution(tuple(letters), tuple(map(tuple, images)))
        except DslSyntaxError:
            assert not all(map(_is_name, letters))
            return
        except NoGrowingLetterError:
            return
        assert Substitution.from_json_dict(sub.to_json_dict()) == sub
        again = parse_substitution(sub.to_dsl())
        # the DSL orders letters by first appearance: every image survives,
        # and the letter order too whenever some rule order can express it
        assert dict(zip(again.alphabet, again.images)) == dict(zip(sub.alphabet, sub.images))
        assert (again == sub) == _expressible(sub)


def _grows_by_plateau(sub: Substitution, letter: str) -> bool:
    # a letter grows iff its lengths still increase after any plateau of
    # length |A|; non-growing letters stabilize within |A| levels
    n = len(sub.alphabet)
    return image_length(sub, letter, 2 * n) != image_length(sub, letter, n)


class TestGrowth:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_growing_set_matches_plateau_oracle(self, seed):
        (sub,) = random_substitutions(random.Random(seed), 1)
        for letter in sub.alphabet:
            assert _grows_by_plateau(sub, letter) == (letter in sub.growing)

    def test_growing_set_matches_plateau_oracle_on_a_fixed_corpus(self):
        bounded = 0
        for sub in random_substitutions(random.Random(10), 2000):
            for letter in sub.alphabet:
                grows = _grows_by_plateau(sub, letter)
                assert grows == (letter in sub.growing), (sub, letter)
                bounded += not grows
        assert bounded == 681  # both kinds of letter occur


class TestRestriction:
    def test_reachable_and_restrict(self):
        sub = parse_substitution("a->ab,b->a,c->cb")
        assert reachable_letters(sub, ["a"]) == ("a", "b")
        small = restrict(sub, ("a", "b"))
        assert small.alphabet == ("a", "b")

    def test_system_restricted(self):
        ns = make_system("a->ab,b->a,c->cb", "_|a")
        ns2, dropped = ns.restricted()
        assert dropped == ("c",)
        assert ns2.substitution.alphabet == ("a", "b")


_SUB = Substitution(("a", "b"), (("a", "b"), ("a",)))
_SEED = SeedSpec("b", "a", 2)
_STEP = AdmissibleStep(("a",), "b")
_CONDITION = ConditionC(0, "a", 1, ("b",))
_SETS = ResidueSets(1, (("a", "b"),), ((),), (_CONDITION,))
_TABLE = WeightTable((1, 2), (1,), ())
_ROOT_ROW = (TreeNode(0, "a", None, None),)

# one instance of each value class: its fields, a change of one field, and
# its repr as a frozen dataclass printed it
_VALUES = [
    (Substitution, {"alphabet": ("a", "b"), "images": (("a", "b"), ("a",))},
     ("images", (("a", "b"), ("a", "a"))),
     "Substitution(alphabet=('a', 'b'), images=(('a', 'b'), ('a',)))"),
    (SeedSpec, {"left": "b", "right": "a", "period": 2}, ("period", 4),
     "SeedSpec(left='b', right='a', period=2)"),
    (NumerationSystem, {"substitution": _SUB, "seed": _SEED, "residue": 0}, ("residue", 1),
     "NumerationSystem(substitution=Substitution(alphabet=('a', 'b'), images=(('a', 'b'), "
     "('a',))), seed=SeedSpec(left='b', right='a', period=2), residue=0)"),
    (AdmissibleStep, {"prefix": ("a",), "pivot": "b"}, ("pivot", "a"),
     "AdmissibleStep(prefix=('a',), pivot='b')"),
    (AdmissibleSequence, {"root": "a", "steps": (_STEP,)}, ("root", "b"),
     "AdmissibleSequence(root='a', steps=(AdmissibleStep(prefix=('a',), pivot='b'),))"),
    (DigitWord, {"digits": (1, 0), "sign": 0}, ("sign", 1), "DigitWord(digits=(1, 0), sign=0)"),
    (ConditionC, {"residue": 0, "letter": "a", "exponent": 1, "reference": ("b",)},
     ("exponent", 2), "ConditionC(residue=0, letter='a', exponent=1, reference=('b',))"),
    (ResidueSets,
     {"period": 1, "base": (("a", "b"),), "added": ((),), "obligations": (_CONDITION,)},
     ("added", (("a",),)),
     "ResidueSets(period=1, base=(('a', 'b'),), added=((),), obligations=(ConditionC("
     "residue=0, letter='a', exponent=1, reference=('b',)),))"),
    (Counterexample,
     {"kind": "length-mismatch", "residue": 0, "exponent": 1, "letters": ("a", "b"),
      "lengths": (2, 3)},
     ("lengths", (2, 4)),
     "Counterexample(kind='length-mismatch', residue=0, exponent=1, letters=('a', 'b'), "
     "lengths=(2, 3))"),
    (WeightTable, {"U": (1, 2), "V": (1,), "unconstrained": ()}, ("unconstrained", (1,)),
     "WeightTable(U=(1, 2), V=(1,), unconstrained=())"),
    (PositionalityReport,
     {"positional": True, "residue_sets": _SETS, "weights": _TABLE, "counterexample": None,
      "notes": ("note",)},
     ("notes", ()),
     "PositionalityReport(positional=True, residue_sets=ResidueSets(period=1, base=(('a', 'b'),), "
     "added=((),), obligations=(ConditionC(residue=0, letter='a', exponent=1, reference=('b',)),)), "
     "weights=WeightTable(U=(1, 2), V=(1,), unconstrained=()), counterexample=None, "
     "notes=('note',))"),
    (ConsistentWeights, {"U": {0: 1}, "V": {}}, ("V", {0: 2}), "ConsistentWeights(U={0: 1}, V={})"),
    (WeightContradiction, {"witnesses": (1, 2), "detail": "detail"}, ("detail", "other"),
     "WeightContradiction(witnesses=(1, 2), detail='detail')"),
    (FabreForm, {"digits": (1, 1), "cycle_entry": 1}, ("cycle_entry", 2),
     "FabreForm(digits=(1, 1), cycle_entry=1)"),
    (UPWord, {"preperiod": (1,), "cycle": (0,)}, ("preperiod", (2,)),
     "UPWord(preperiod=(1,), cycle=(0,))"),
    (TreeSlice, {"levels": (_ROOT_ROW,)}, ("levels", ()),
     "TreeSlice(levels=((TreeNode(column=0, letter='a', parent=None, edge=None),),))"),
]


@pytest.mark.parametrize(
    "cls, fields, change, text", _VALUES, ids=[entry[0].__name__ for entry in _VALUES]
)
class TestValueClasses:
    """The value classes keep the contract of the frozen dataclasses they
    were: construction by position or keyword, equality, hash and
    ``vars()`` by fields, the dataclass ``repr``, and frozen instances."""

    def test_repr(self, cls, fields, change, text):
        assert repr(cls(**fields)) == text

    def test_fields_make_equality_hash_and_vars(self, cls, fields, change, text):
        obj = cls(**fields)
        values = list(fields.values())
        rest = dict(list(fields.items())[1:])
        for twin in (cls(*values), cls(values[0], **rest)):
            assert twin == obj and not twin != obj
            assert list(vars(twin))[: len(fields)] == list(fields)
            assert {name: vars(twin)[name] for name in fields} == fields
            if cls is ConsistentWeights:  # dict fields: unhashable, as before
                with pytest.raises(TypeError):
                    hash(twin)
            else:
                assert hash(twin) == hash(obj)
        name, value = change
        other = cls(**{**fields, name: value})
        assert other != obj and not other == obj
        stranger = _SEED if cls is not SeedSpec else _STEP  # another value class
        for foreign in (stranger, _ROOT_ROW, None):
            assert obj.__eq__(foreign) is NotImplemented and obj != foreign

    def test_frozen(self, cls, fields, change, text):
        obj = cls(**fields)
        before = dict(vars(obj))
        frozen = dataclasses.FrozenInstanceError
        for name in (*fields, "extra"):
            with pytest.raises(frozen, match=f"^cannot assign to field '{name}'$"):
                setattr(obj, name, None)
            with pytest.raises(frozen, match=f"^cannot delete field '{name}'$"):
                delattr(obj, name)
        assert vars(obj) == before


class TestValueClassConstruction:
    def test_defaults(self):
        ns = NumerationSystem(_SUB, _SEED)
        assert ns.residue == 0 and ns == NumerationSystem(_SUB, _SEED, 0)
        assert NumerationSystem(_SUB, seed=_SEED, residue=1).residue == 1
        assert DigitWord((1,)).sign is None and DigitWord(digits=(1,)) == DigitWord((1,), None)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NumerationSystem(_SUB),  # no seed
            lambda: NumerationSystem(_SUB, _SEED, 0, 1),  # too many
            lambda: DigitWord((1,), digits=(1,)),  # twice
            lambda: DigitWord((1,), signed=True),  # not a field
        ],
        ids=("missing", "too-many", "repeated", "unknown"),
    )
    def test_bad_arguments_are_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda: Substitution((), ()), DslSyntaxError, "alphabet is empty"),
            (lambda: Substitution(("a",), (("a",),)), NoGrowingLetterError, "no growing letter"),
            (lambda: SeedSpec(None, None, 1), InvalidSeedError, "at least one side"),
            (lambda: NumerationSystem(_SUB, _SEED, 2), InvalidSeedError, "residue 2"),
            (lambda: NumerationSystem(_SUB, SeedSpec("b", "a", 3)), InvalidSeedError, "period 3"),
            (lambda: DigitWord((1,), 2), ValueError, "sign digit"),
            (lambda: DigitWord((1, -1)), ValueError, "non-negative"),
            (lambda: PositionalityReport(False, _SETS, _TABLE, None, ()), ValueError, "exactly when"),
            (lambda: FabreForm((0, 1), 1), ValueError, "first chain digit"),
            (lambda: FabreForm((1,), 2), ValueError, "cycle entry"),
            (lambda: UPWord((1,), ()), ValueError, "cycle must be non-empty"),
        ],
    )
    def test_post_init_refuses_bad_input(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_post_init_normalizes(self):
        word = UPWord((1, 0, 0), (0,))
        assert (word.preperiod, word.cycle) == ((1,), (0,))
        assert vars(word) == {"preperiod": (1,), "cycle": (0,)}

    def test_cached_properties_stay_out_of_equality(self):
        sub = Substitution(_SUB.alphabet, _SUB.images)
        assert sub.lengths is sub.lengths and "lengths" in vars(sub)
        fresh = Substitution(_SUB.alphabet, _SUB.images)
        assert "lengths" not in vars(fresh)
        assert sub == fresh and hash(sub) == hash(fresh)
