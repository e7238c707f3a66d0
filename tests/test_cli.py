from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dtnum
from dtnum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUB3 = "a->abc,b->c,c->ac"
INTERTWINED = "a->ccd,b->cd,c->ab,d->a"


class TestRep:
    def test_single_negative(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--sub", SUB3, "--seed", "c|a", "-r", "0", "-n", "-5"
        )
        assert (code, out) == (0, "100\n")

    def test_range_tsv(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--sub", SUB3, "--seed", "c|a", "--range", "-2..2"
        )
        assert code == 0
        assert out.splitlines() == ["-2\t10", "-1\t1", "0\t0", "1\t01", "2\t02"]

    def test_classic_empty_word(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--sub", "a->ab,b->ac,c->a", "--seed", "_|a",
            "--classic", "-n", "0",
        )
        assert (code, out) == (0, "ε\n")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--sub", SUB3, "--seed", "c|a", "-n", "4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"n": "4", "word": "020"}

    @pytest.mark.parametrize("text, n", [("007", "7"), ("+4", "4"), ("-0", "0"), ("-12", "-12")])
    def test_json_prints_the_integer_read(self, capsys, text, n):
        code, out, _ = run_cli(
            capsys, "rep", "--sub", SUB3, "--seed", "c|a", "-n", text, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["n"] == n

    @pytest.mark.parametrize("text", ["1_000", " 12 ", "12\n", "٣", "１２", "+-1", "0x10", ""])
    def test_integers_are_ascii_digits_only(self, capsys, text):
        # int() alone reads the first four as 1000, 12, 12 and 3
        code, out, err = run_cli(capsys, "rep", "--sub", SUB3, "--seed", "c|a", "-n", text)
        assert (code, out, err) == (1, "", f"usage error: -n must be an integer: {text!r}\n")
        for bounds in (f"{text}..5", f"0..{text}"):
            code, out, err = run_cli(
                capsys, "rep", "--sub", SUB3, "--seed", "c|a", "--range", bounds
            )
            assert (code, out) == (1, "")
            assert err == f"usage error: range bounds must be integers: {bounds!r}\n"

    def test_round_trip_beyond_4300_digits(self, capsys):
        # the value stays a decimal string here: converting it would hit the
        # interpreter's own 4300-digit limit on Python >= 3.11
        n = "-" + "7" * 20000
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        code, word, err = run_cli(capsys, "rep", "--sub", SUB3, "--seed", "c|a", "-n", n)
        assert (code, err) == (0, "")
        assert get_limit() == limit
        code, out, err = run_cli(
            capsys, "val", "--sub", SUB3, "--seed", "c|a", "--word", word.strip()
        )
        assert (code, out, err) == (0, f"{n}\tcanonical\n", "")
        assert get_limit() == limit

    def test_interpreter_without_digit_limit(self, capsys, monkeypatch):
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        code, out, _ = run_cli(capsys, "rep", "--sub", SUB3, "--seed", "c|a", "-n", "-5")
        assert (code, out) == (0, "100\n")

    def test_byte_stable(self, capsys):
        args = ("rep", "--sub", INTERTWINED, "--seed", "a|a", "-r", "1",
                "--range", "-20..20")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_period_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--sub", "a->ab,b->a", "--seed", "_|a",
            "--period", "2", "-n", "1",
        )
        assert (code, out) == (0, "001\n")

    def test_huge_decimal_argument(self, capsys):
        n = str(10**40)
        code, out, _ = run_cli(
            capsys, "rep", "--sub", "a->ab,b->a", "--seed", "a|a", "-n", n
        )
        assert code == 0
        word = out.strip()
        code2, out2, _ = run_cli(
            capsys, "val", "--sub", "a->ab,b->a", "--seed", "a|a", "--word", word
        )
        assert (code2, out2) == (0, f"{n}\tcanonical\n")


class TestVal:
    def test_value_and_canonical(self, capsys):
        code, out, _ = run_cli(
            capsys, "val", "--sub", SUB3, "--seed", "c|a", "--word", "02"
        )
        assert (code, out) == (0, "2\tcanonical\n")

    def test_non_canonical(self, capsys):
        code, out, _ = run_cli(
            capsys, "val", "--sub", SUB3, "--seed", "c|a", "--word", "002"
        )
        assert (code, out) == (0, "2\tnon-canonical\n")

    def test_digit_out_of_range_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "val", "--sub", SUB3, "--seed", "c|a", "--word", "03"
        )
        assert code == 2
        assert "DigitOutOfRange" in err

    @pytest.mark.parametrize(
        "word",
        ["0²", "０２", "0.٣", "0.1_0", "01_0"],
        ids=("superscript", "fullwidth", "arabic-indic", "dotted-underscore", "underscore"),
    )
    def test_non_ascii_digit_word_exit_1(self, capsys, word):
        code, out, err = run_cli(
            capsys, "val", "--sub", SUB3, "--seed", "c|a", "--word", word
        )
        assert (code, out) == (1, "")
        assert err == f"usage error: bad digit word {word!r}\n"


class TestAnalyze:
    def test_nonpositional_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--sub", "a->abb,b->ab", "--seed", "b|a"
        )
        assert code == 0
        data = json.loads(out)
        assert data["positional"] is False
        assert data["counterexample"]["letters"] == ["a", "b"]

    def test_positional_human(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--sub", "a->aab,b->a", "--seed", "b|a",
            "--format", "human",
        )
        assert code == 0
        assert out.startswith("positional: true\n")
        assert "U = 1 3 7 17 41 99" in out


class TestWeights:
    def test_intertwined_odd(self, capsys):
        code, out, _ = run_cli(
            capsys, "weights", "--sub", INTERTWINED, "--seed", "a|a",
            "-r", "1", "--count", "6",
        )
        assert (code, out) == (0, "1 3 5 13 21 55\n")

    @pytest.mark.parametrize("command", ["weights", "analyze"])
    def test_negative_count_exit_1(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "--sub", INTERTWINED, "--seed", "a|a",
            "-r", "1", "--count", "-3",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error: weight count must be >= 0")

    def test_not_positional_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "weights", "--sub", "a->abb,b->ab", "--seed", "b|a",
            "--count", "4",
        )
        assert code == 2
        assert "NotPositionalSystem" in err


class TestTreeAndClassify:
    def test_tree_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree", "--sub", SUB3, "--seed", "c|a", "--depth", "1"
        )
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 5

    def test_tree_tsv(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree", "--sub", SUB3, "--seed", "c|a", "--depth", "0",
            "--format", "tsv",
        )
        assert out.splitlines() == [
            "level\tcolumn\tletter\tparent_edge",
            "0\t-1\tc\t",
            "0\t0\ta\t",
        ]

    @pytest.mark.parametrize("flag", ["--depth", "--cap"])
    def test_tree_negative_bound_exit_1(self, capsys, flag):
        bounds = {"--depth": "2", "--cap": "1000", flag: "-1"}
        code, out, err = run_cli(
            capsys, "tree", "--sub", SUB3, "--seed", "c|a",
            "--depth", bounds["--depth"], "--cap", bounds["--cap"],
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {flag[2:]} must be >= 0")

    def test_classify_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--sub", "a->ab,b->a", "--root", "a"
        )
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "CanonicalSimpleParry"
        assert data["parry"] == "pass"

    def test_classify_root_reaching_no_growing_letter(self, capsys):
        # only b grows; the letters reachable from a do not
        code, out, _ = run_cli(capsys, "classify", "--sub", "a->a,b->baa", "--root", "a")
        assert code == 0
        assert json.loads(out)["class"] == "NotFabreLike"

    def test_simplify_not_length_uniform_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "simplify", "--sub", "a->bab,b->a", "--seed", "a|a"
        )
        assert (code, out) == (2, "")
        assert err == "error: NotLengthUniform: |mu^1(a)| = 3 but |mu^1(b)| = 1\n"

    def test_simplify_human(self, capsys):
        code, out, _ = run_cli(
            capsys, "simplify", "--sub", "a->ab,b->ba", "--seed", "_|a"
        )
        assert code == 0
        assert out.splitlines()[0] == "a->aa"


class TestErrorsAndSelftest:
    def test_usage_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "rep", "--sub", SUB3, "--seed", "c|a")
        assert code == 1
        assert "usage error" in err

    def test_missing_required_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "rep", "--seed", "c|a", "-n", "1")
        assert code == 1

    def test_bad_dsl_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "rep", "--sub", "a->,b->a", "--seed", "_|a", "-n", "1"
        )
        assert code == 2
        assert "EmptyImage" in err

    def test_malformed_json_image_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dtnum", "classify", "--sub",
             '{"alphabet":["a","b"],"images":{"a":5,"b":"a"}}', "--root", "a"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: SyntaxError:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "sub, err",
        [
            ('{"alphabet":["a","b"],"images":{"a":"ab","b":"a","z":"zz"}}',
             "error: SyntaxError: image given for 'z', which is not in the alphabet\n"),
            ('{"alphabet":"ab","images":{"a":"ab","b":"a"}}',
             "error: SyntaxError: JSON form needs a list of string letters and an 'images' object\n"),
        ],
        ids=["image-outside-the-alphabet", "string-alphabet"],
    )
    def test_json_outside_the_form_exit_2(self, capsys, sub, err):
        code, out, got = run_cli(capsys, "rep", "--sub", sub, "--seed", "_|a", "-n", "5")
        assert (code, out, got) == (2, "", err)

    def test_json_key_given_twice_exit_2(self, capsys):
        sub = '{"alphabet":["a","b"],"images":{"a":"ab","a":"b","b":"ba"}}'
        code, out, err = run_cli(capsys, "rep", "--sub", sub, "--seed", "_|b", "-n", "5")
        assert (code, out, err) == (
            2, "", "error: SyntaxError: bad JSON substitution: key 'a' appears twice\n"
        )

    def test_json_nested_too_deeply_in_a_process(self):
        # past the decoder's recursion limit in every supported Python; the
        # argument is 60,012 bytes, under the 131,071-byte limit on one
        proc = subprocess.run(
            [sys.executable, "-m", "dtnum", "rep", "--sub", '{"alphabet":' + "[" * 60000,
             "--seed", "_|a", "-n", "5"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: SyntaxError: bad JSON substitution: nested too deeply\n"
        )

    def test_json_letter_not_a_name_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--sub",
            '{"alphabet":["a,b","c"],"images":{"a,b":["a,b","c"],"c":["a,b"]}}',
            "--root", "c",
        )
        assert code == 2
        assert err == "error: SyntaxError: invalid letter name 'a,b'\n"

    @pytest.mark.parametrize(
        "sub, seed, extra, err",
        [
            (SUB3, "z|a", [], "UnknownLetter: unknown letter 'z'"),
            (SUB3, "_|b", [], "InvalidSeed: 'b' is not a valid right seed letter"),
            (SUB3, "b|_", [], "InvalidSeed: 'b' is not a valid left seed letter"),
            ("a->ab,b->b", "_|b", [], "InvalidSeed: 'b' is not a valid right seed letter"),
            (
                "a->ab,b->a", "a|a", ["--period", "3"],
                "InvalidSeed: period 3 is not a multiple of the minimal period 2",
            ),
            (
                SUB3, "c|a", ["-r", "1"],
                "InvalidSeed: residue 1 must satisfy 0 <= r < period 1",
            ),
        ],
    )
    def test_seed_errors_exit_2(self, capsys, sub, seed, extra, err):
        code, out, stderr = run_cli(
            capsys, "rep", "--sub", sub, "--seed", seed, *extra, "-n", "1"
        )
        assert (code, out, stderr) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "flag, value, err",
        [
            ("-n", "12x", "-n must be an integer: '12x'"),
            ("-r", "x", "residue must be an integer: 'x'"),
            ("--period", "2.5", "period must be an integer: '2.5'"),
        ],
    )
    def test_non_integer_flag_exit_1(self, capsys, flag, value, err):
        argv = {"-n": "5", "-r": "0", flag: value}
        code, out, stderr = run_cli(
            capsys, "rep", "--sub", SUB3, "--seed", "c|a", *[x for kv in argv.items() for x in kv]
        )
        assert (code, out, stderr) == (1, "", f"usage error: {err}\n")

    def test_classic_negative_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "rep", "--sub", SUB3, "--seed", "c|a", "--classic", "-n", "-1"
        )
        assert (code, out) == (1, "")
        assert err == "usage error: classic representation is defined for n >= 0\n"

    def test_classic_without_right_seed_exit_1_before_any_value(self, capsys):
        # no value of the range is >= 0, so only an upfront check refuses it
        code, out, err = run_cli(
            capsys, "rep", "--sub", "a->ab,b->a", "--seed", "b|_", "--classic",
            "--range", "-3..-1",
        )
        assert (code, out) == (1, "")
        assert err == "usage error: --classic needs a right seed letter\n"

    def test_range_prints_each_line_before_a_later_failure(self, capsys, monkeypatch):
        from dtnum import core

        monkeypatch.setattr(core, "_MAX_LEVEL", 50)  # |mu^k(a)| = k + 1: rep(n) has n digits
        code, out, err = run_cli(
            capsys, "rep", "--sub", "a->ab,b->b", "--seed", "_|a", "--range", "48..52"
        )
        assert code == 2
        assert out.splitlines() == [f"{n}\t01{'0' * (n - 1)}" for n in (48, 49, 50)]
        assert err.startswith("error: DigitCapExceeded: ")

    def test_library_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        import dtnum.numeration

        def broken(ns, n):
            raise ValueError("an internal fault")

        monkeypatch.setattr(dtnum.numeration, "rep", broken)
        with pytest.raises(ValueError, match="an internal fault"):
            main(["rep", "--sub", SUB3, "--seed", "c|a", "-n", "5"])
        assert "usage error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rep", "val"])
    def test_memory_error_exit_2(self, capsys, monkeypatch, command):
        """A ``MemoryError`` is refused with a stable code and no traceback;
        the subcommand raises it by hand, nothing is allocated."""
        import dtnum.numeration

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(dtnum.numeration, command, exhausted)
        flag = ["-n", "5"] if command == "rep" else ["--word", "002"]
        code, out, err = run_cli(capsys, command, "--sub", SUB3, "--seed", "c|a", *flag)
        assert (code, out) == (2, "")
        assert err == "error: OutOfMemory: the request ran out of memory\n"

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--range", "-120..120")
        assert code == 0, out
        assert "all checks passed" in out
        assert "MISMATCH" not in out

    def test_selftest_detects_mismatch(self, capsys, monkeypatch):
        import dtnum.golden as golden_mod

        broken = {
            "classic": [
                {"name": "broken", "sub": "a->ab,b->ac,c->a", "root": "a",
                 "table": {"1": "0"}}
            ],
            "complement": [],
        }
        monkeypatch.setattr(golden_mod, "load_golden", lambda: broken)
        code, out, _ = run_cli(capsys, "selftest", "--range", "-5..5")
        assert code == 3
        assert "MISMATCH" in out

    def test_dotted_digit_words_round_trip(self, capsys):
        sub = "a->aaaaaaaaaab,b->a"  # digit bound 10
        code, out, _ = run_cli(
            capsys, "rep", "--sub", sub, "--seed", "b|a", "-n", "10"
        )
        assert (code, out) == (0, "0.0.10\n")
        code, out, _ = run_cli(
            capsys, "val", "--sub", sub, "--seed", "b|a", "--word", "0.0.10"
        )
        assert (code, out) == (0, "10\tcanonical\n")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dtnum", "rep", "--sub", SUB3,
             "--seed", "c|a", "-n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "010\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_stdout_closed_early_exit_141(self, monkeypatch, unbuffered):
        # megabytes of output, so the child writes after the reader is gone
        # whether its stdout is block-buffered or not
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "dtnum", "rep", "--sub", SUB3,
             "--seed", "c|a", "--range", "0..200000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert [proc.stdout.readline() for _ in range(2)] == ["0\t0\n", "1\t01\n"]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, "")

    def test_import_leaves_fractions_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, dtnum.cli; print('fractions' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")


# prints the exit code, then the dtnum modules and json that one call loaded
_PROBE = """
import sys
from dtnum.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m == "json" or m.split(".")[0] == "dtnum"))
"""
_BASE = ("dtnum", "dtnum.cli", "dtnum.core", "dtnum.errors")
_NUMERATION = _BASE + ("dtnum.numeration",)

# every name the package exported eagerly before its namespace became lazy,
# less the test-only baselines that moved to tests/helpers.py
_PUBLIC_NAMES = """
DOMAINS Domain NumerationSystem SeedSpec Substitution find_seeds first_letter_cycle
image_length is_primitive last_letter_cycle make_system minimal_period parse_seed
parse_substitution reachable_letters restrict substitution_from_text validate_seed
AdmissibleSequence AdmissibleStep DigitWord decompose_prefix rep rep_classic_N val
val_classic_N ExpansionOracle TreeNode TreeSlice expand oracle_rep to_dot to_tsv
ConditionC ConsistentWeights Counterexample PositionalityReport ResidueSets
WeightContradiction WeightTable check_positional compute_residue_sets
evaluate_with_weights fit_weights_oracle weights BERTRAND_CLASSES FabreForm UPWord
bertrand_classify classification_json expansion_word fabre_form fabre_like_periodic
inverse_quasi_greedy nonfinal_letters parry_check quasi_greedy simplify
tree_shape_equal errors __version__
""".split()


def _child(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestImports:
    @pytest.mark.parametrize(
        "argv, modules",
        [
            (("rep", "--sub", SUB3, "--seed", "c|a", "-n", "-5"), _NUMERATION),
            (("rep", "--sub", SUB3, "--seed", "c|a", "--range", "-3..3"), _NUMERATION),
            (("rep", "--sub", SUB3, "--seed", "c|a", "-n", "5", "--format", "json"),
             _NUMERATION + ("json",)),
            (("val", "--sub", SUB3, "--seed", "c|a", "--word", "100"), _NUMERATION),
            (("tree", "--sub", SUB3, "--seed", "c|a", "--depth", "3"),
             _NUMERATION + ("dtnum.trees",)),
            (("classify", "--sub", "a->ab,b->a", "--root", "a"),
             _BASE + ("dtnum.classify", "json")),
            (("classify", "--sub", "a->ab,b->a", "--root", "a", "--format", "human"),
             _BASE + ("dtnum.classify",)),
            (("weights", "--sub", "a->ab,b->a", "--seed", "b|a"),
             _NUMERATION + ("dtnum.positionality",)),
        ],
        ids=(
            "rep", "rep-range", "rep-json", "val", "tree", "classify-json",
            "classify-human", "weights",
        ),
    )
    def test_each_command_loads_only_what_it_runs(self, argv, modules):
        code, out, err = _child("-c", _PROBE, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split() == ["0", *sorted(modules)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("rep", "--sub", SUB3, "--seed", "c|a", "-n", "-5"),
            ("val", "--sub", SUB3, "--seed", "c|a", "--word", "100"),
            ("analyze", "--sub", "a->aab,b->a", "--seed", "b|a"),
            ("weights", "--sub", "a->ab,b->a", "--seed", "b|a"),
            ("tree", "--sub", SUB3, "--seed", "c|a", "--depth", "3"),
            ("classify", "--sub", "a->ab,b->a", "--root", "a"),
            ("simplify", "--sub", "a->ab,b->ba", "--seed", "_|a"),
            ("selftest",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_command_loads_dataclasses_or_inspect(self, argv):
        """The value classes are plain frozen classes: no command imports
        ``dataclasses``, whose import pulls in ``inspect``, beyond what the
        bare interpreter already loaded."""
        script = (
            "import sys\n"
            "heavy = {'dataclasses', 'inspect'}\n"
            "bare = heavy & set(sys.modules)\n"
            "from dtnum.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, *sorted(heavy & set(sys.modules) - bare))\n"
        )
        code, out, err = _child("-c", script, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "0"

    def test_names_load_their_module_on_first_use(self):
        script = (
            "import sys, dtnum\n"
            "print(*sorted(m for m in sys.modules if m.startswith('dtnum.')))\n"
            "listed = dir(dtnum)\n"
            "for name in sys.argv[1:]:\n"
            "    exec(f'from dtnum import {name}')\n"
            "    assert name in listed, name\n"
            "assert dtnum.errors.NumerationError.code == 'Error'\n"
            "star = {}\n"
            "exec('from dtnum import *', star)\n"
            "assert set(sys.argv[1:]) - {'__version__'} <= set(star)\n"
            "for name in ('twos_complement_rep', 'twos_complement_val', 'greedy_rep', 'nope'):\n"
            "    assert not hasattr(dtnum, name) and name not in listed, name\n"
            "print(*sorted(m for m in sys.modules if m.startswith('dtnum.')))\n"
        )
        code, out, err = _child("-c", script, *_PUBLIC_NAMES)
        assert (code, err) == (0, "")
        before, after = out.split("\n")[:2]
        assert before == ""
        assert after.split() == [
            "dtnum.classify", "dtnum.core", "dtnum.errors", "dtnum.numeration",
            "dtnum.positionality", "dtnum.trees",
        ]

    def test_unknown_name_is_an_attribute_error(self):
        import dtnum

        with pytest.raises(AttributeError, match="no attribute 'greedy_rep'"):
            dtnum.greedy_rep
        with pytest.raises(ImportError):
            from dtnum import twos_complement_rep  # noqa: F401


@pytest.mark.parametrize(
    "argv",
    [
        ("rep", "--sub", "a->ab,b->b", "--seed", "_|a", "-n", str(10**60)),
        ("weights", "--sub", "a->aab,b->a", "--seed", "b|a", "--count", "10000000000"),
        ("analyze", "--sub", "a->aab,b->a", "--seed", "b|a", "--count", "10000000000"),
        # within the level cap, but its weights would hold more than 64 MiB
        ("weights", "--sub", "a->aab,b->a", "--seed", "b|a", "--count", "1000000"),
    ],
    ids=("rep-polynomial-growth", "weights-count", "analyze-count", "weights-store-budget"),
)
def test_past_the_level_cap_exit_2(argv):
    code, out, err = _child("-m", "dtnum", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: DigitCapExceeded: ")
    assert "Traceback" not in err


def test_no_assert_statement_in_the_package():
    """``python -O`` strips ``assert``, so no invariant of the package may
    rest on one."""
    modules = sorted(Path(dtnum.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
