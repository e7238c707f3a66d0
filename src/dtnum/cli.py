"""Command-line surface: every library operation behind one scriptable tool.

Exit codes: 0 success, 1 usage error, 2 domain error (the module error
code is printed on stderr; ``OutOfMemory`` when the interpreter ran out of
memory), 3 selftest mismatch, 141 stdout closed early
by its reader. Numbers cross the boundary as decimal strings, so
arbitrary-precision arguments survive. All output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

# each subcommand imports what it runs, so a `rep` child never compiles
# the positionality, tree or classification modules, nor `json` unless
# it prints JSON
from .core import NumerationSystem, make_system, substitution_from_text
from .errors import NumerationError, OutOfMemoryError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _int(text: str) -> int:
    """An optional sign and ASCII digits ``0-9``, as ``int``; ``int`` alone
    also reads ' 12 ', '1_000' and '٣'."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise _UsageError(f"range {text!r} must look like LO..HI")
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = _int(lo_s), _int(hi_s)
    except ValueError:
        raise _UsageError(f"range bounds must be integers: {text!r}") from None
    if lo > hi:
        raise _UsageError("range lower bound exceeds upper bound")
    return lo, hi


def _int_arg(text: str, name: str, minimum: Optional[int] = None) -> int:
    try:
        value = _int(text)
    except ValueError:
        raise _UsageError(f"{name} must be an integer: {text!r}") from None
    if minimum is not None and value < minimum:
        raise _UsageError(f"{name} must be >= {minimum}, got {value}")
    return value


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sub", required=True, help="substitution rules or canonical JSON")
    p.add_argument("--seed", required=True, help="seed letters: 'b|a', '_|a' or 'b|_'")
    p.add_argument("-r", "--residue", default="0", help="residue class (default 0)")
    p.add_argument("--period", default=None, help="override the minimal period with a multiple")


def _build_system(args) -> NumerationSystem:
    residue = _int_arg(args.residue, "residue")
    period = _int_arg(args.period, "period") if args.period is not None else None
    return make_system(args.sub, args.seed, residue=residue, period=period)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dtnum", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("rep", help="represent integers as digit words")
    _add_system_args(p)
    p.add_argument("-n", default=None, help="integer to represent (decimal string)")
    p.add_argument("--range", dest="range_", default=None, metavar="LO..HI")
    p.add_argument("--classic", action="store_true", help="unsigned fixed-point representation")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("val", help="evaluate a digit word")
    _add_system_args(p)
    p.add_argument("--word", required=True, help="digit word; dots separate digits >= 10")
    p.add_argument("--classic", action="store_true")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("analyze", help="positionality report")
    _add_system_args(p)
    p.add_argument("--count", default="8", help="number of weight entries to include")
    p.add_argument("--format", choices=("human", "json"), default="json")

    p = sub.add_parser("weights", help="weight sequences of a positional system")
    _add_system_args(p)
    p.add_argument("--count", default="8")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("tree", help="expand the tree to a DOT or TSV dump")
    _add_system_args(p)
    p.add_argument("--depth", required=True)
    p.add_argument("--cap", default="1000000", help="node cap for the expansion")
    p.add_argument("--format", choices=("dot", "tsv"), default="dot")

    p = sub.add_parser("classify", help="chain form, Parry condition, Bertrand class")
    p.add_argument("--sub", required=True)
    p.add_argument("--root", required=True, help="fixed-point seed letter")
    p.add_argument("--format", choices=("human", "json"), default="json")

    p = sub.add_parser("simplify", help="merge non-final letters")
    _add_system_args(p)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("selftest", help="cross-check fixtures; exit 3 on mismatch")
    p.add_argument("--range", dest="range_", default="-200..200", metavar="LO..HI")
    return parser


# -- subcommands -------------------------------------------------------------------


def _print_json(data) -> None:
    import json

    print(json.dumps(data))


def _cmd_rep(args) -> int:
    from .numeration import rep, rep_classic_N

    ns = _build_system(args)
    if (args.n is None) == (args.range_ is None):
        raise _UsageError("rep needs exactly one of -n or --range")
    if args.classic and ns.right is None:
        raise _UsageError("--classic needs a right seed letter")

    def one(n: int) -> str:
        if args.classic:
            if n < 0:
                raise _UsageError("classic representation is defined for n >= 0")
            return rep_classic_N(ns.substitution, ns.right, n).text()
        return rep(ns, n).text()

    if args.n is not None:
        n = _int_arg(args.n, "-n")
        word = one(n)
        if args.format == "json":
            _print_json({"n": str(n), "word": word})
        else:
            print(word)
        return 0
    lo, hi = _parse_range(args.range_)
    words = (
        (n, one(n))
        for n in range(lo, hi + 1)
        if (n >= 0 if args.classic else ns.contains(n))
    )
    if args.format == "json":
        _print_json([{"n": str(n), "word": w} for n, w in words])
    else:
        for n, w in words:
            print(f"{n}\t{w}")
    return 0


def _cmd_val(args) -> int:
    from .numeration import DigitWord, val, val_classic_N

    ns = _build_system(args)
    try:
        word = DigitWord.parse(args.word, signed=not args.classic)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    if args.classic:
        if ns.right is None:
            raise _UsageError("--classic needs a right seed letter")
        value, canonical = val_classic_N(ns.substitution, ns.right, word)
    else:
        value, canonical = val(ns, word)
    if args.format == "json":
        _print_json({"value": str(value), "canonical": canonical})
    else:
        print(f"{value}\t{'canonical' if canonical else 'non-canonical'}")
    return 0


def _cmd_analyze(args) -> int:
    from .positionality import check_positional

    ns = _build_system(args)
    report = check_positional(ns, weight_count=_int_arg(args.count, "weight count", 0))
    if args.format == "json":
        _print_json(report.to_json_dict())
        return 0
    rs = report.residue_sets
    print(f"positional: {str(report.positional).lower()}")
    for j in range(rs.period):
        letters = ", ".join(rs.full(j)) or "-"
        print(f"E[{j}] = {{{letters}}}")
        if rs.added[j]:
            print(f"  added at column -2: {', '.join(rs.added[j])}")
    for ob in rs.obligations:
        ref = ", ".join(ob.reference) or "-"
        print(
            f"condition at level {ob.residue}: |mu^{ob.exponent}({ob.letter})| "
            f"must match {{{ref}}}"
        )
    if report.positional:
        print("U = " + " ".join(str(u) for u in report.weights.U))
        if report.weights.V:
            print("V = " + " ".join(str(v) for v in report.weights.V))
        if report.weights.unconstrained:
            print(
                "unconstrained positions: "
                + " ".join(str(i) for i in report.weights.unconstrained)
            )
    else:
        print("counterexample: " + report.counterexample.describe())
    for note in report.notes:
        print(f"note: {note}")
    return 0


def _cmd_weights(args) -> int:
    from .positionality import weights

    ns = _build_system(args)
    table = weights(ns, _int_arg(args.count, "weight count", 0))
    if args.format == "json":
        _print_json(
            {
                "U": list(table.U),
                "V": list(table.V),
                "unconstrained": list(table.unconstrained),
            }
        )
    else:
        print(" ".join(str(u) for u in table.U))
    return 0


def _cmd_tree(args) -> int:
    from .trees import expand, to_dot, to_tsv

    ns = _build_system(args)
    depth = _int_arg(args.depth, "depth", 0)
    slice_ = expand(ns, depth, cap=_int_arg(args.cap, "cap", 0))
    text = to_dot(slice_) if args.format == "dot" else to_tsv(slice_)
    sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    from .classify import classification_json

    sub = substitution_from_text(args.sub)
    data = classification_json(sub, args.root)
    if args.format == "json":
        _print_json(data)
    else:
        print(f"class: {data['class']}")
        if data["fabre"] is not None:
            digits = " ".join(str(d) for d in data["fabre"]["digits"])
            print(f"chain digits: {digits} (cycle entry {data['fabre']['cycle_entry']})")
            pre = "".join(str(d) for d in data["d_word"]["preperiod"])
            cyc = "".join(str(d) for d in data["d_word"]["cycle"])
            print(f"digit word: {pre}({cyc})^w")
            print(f"parry: {data['parry']}")
        if "diagnostic" in data:
            print(f"diagnostic: {data['diagnostic']}")
    return 0


def _cmd_simplify(args) -> int:
    from .classify import simplify

    ns = _build_system(args)
    sub2, seed2, mapping = simplify(ns.substitution, ns.seed)
    if args.format == "json":
        _print_json({"sub": sub2.to_json_dict(), "seed": seed2.text(), "map": mapping})
    else:
        print(sub2.to_dsl())
        print(f"seed: {seed2.text()}")
        renames = [f"{a}->{b}" for a, b in mapping.items() if a != b]
        if renames:
            print("merged: " + " ".join(renames))
    return 0


def _cmd_selftest(args) -> int:
    from . import golden
    from .numeration import rep, rep_classic_N, val
    from .positionality import ConsistentWeights, check_positional, fit_weights_oracle, weights
    from .trees import ExpansionOracle

    lo, hi = _parse_range(args.range_)
    failures = 0

    def report(ok: bool, name: str, detail: str) -> None:
        nonlocal failures
        if ok:
            print(f"ok      {name}: {detail}")
        else:
            failures += 1
            print(f"MISMATCH {name}: {detail}")

    for entry, sub, root in golden.classic_fixtures():
        table = entry["table"]
        words = {n: rep_classic_N(sub, root, int(n)).text() for n in table}
        bad = [(n, words[n], w) for n, w in table.items() if words[n] != w]
        report(not bad, entry["name"], f"classic table rows ({len(entry['table'])})" if not bad else f"table rows {bad}")

    for entry, ns in golden.complement_fixtures():
        name = entry["name"]
        bad = []
        for n_text, expected in entry["table"].items():
            n = int(n_text)
            word = rep(ns, n)
            value, canonical = val(ns, word)
            if word.text() != expected or value != n or not canonical:
                bad.append((n, word.text(), expected))
        report(not bad, name, f"table rows ({len(entry['table'])})" if not bad else f"rows {bad}")

        oracle = ExpansionOracle(ns)
        sweep_bad = 0
        oracle_bad = 0
        for n in range(lo, hi + 1):
            if not ns.contains(n):
                continue
            word = rep(ns, n)
            value, canonical = val(ns, word)
            if value != n or not canonical:
                sweep_bad += 1
            if abs(n) <= 64 and oracle.rep(n) != word:
                oracle_bad += 1
        report(sweep_bad == 0, name, f"val(rep(n)) over {lo}..{hi}")
        report(oracle_bad == 0, name, "expansion oracle agreement on |n| <= 64")

        verdict = check_positional(ns)
        expected_verdict = entry["positional"]
        report(
            verdict.positional == expected_verdict,
            name,
            f"positionality verdict ({expected_verdict})",
        )
        fit = fit_weights_oracle(ns, lo, hi)
        consistent = isinstance(fit, ConsistentWeights)
        report(
            consistent == expected_verdict,
            name,
            "weight-fitting oracle agrees with the verdict",
        )
        if expected_verdict and "U" in entry:
            table = weights(ns, len(entry["U"]))
            ok = list(table.U) == entry["U"] and (
                "V" not in entry or list(table.V[: len(entry["V"])]) == entry["V"]
            )
            report(ok, name, "expected weight prefixes")
    if failures:
        print(f"{failures} mismatch(es)")
        return 3
    print("all checks passed")
    return 0


_COMMANDS = {
    "rep": _cmd_rep,
    "val": _cmd_val,
    "analyze": _cmd_analyze,
    "weights": _cmd_weights,
    "tree": _cmd_tree,
    "classify": _cmd_classify,
    "simplify": _cmd_simplify,
    "selftest": _cmd_selftest,
}


def _join_range_flag(argv: list[str]) -> list[str]:
    # argparse mistakes a leading '-' in "-5..5" for an option string
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    # decimal I/O of any size: Python 3.11 and 3.10.7+ cap int/str conversion
    # at 4300 digits; lift the cap for this call only, so callers keep theirs
    if not hasattr(sys, "set_int_max_str_digits"):  # an older 3.10: no cap
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: Optional[list[str]]) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_range_flag(list(argv))
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NumerationError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {OutOfMemoryError.code}: the request ran out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device so the
        # interpreter's final flush stays silent, and exit with the status a
        # shell gives a tool killed by SIGPIPE, so truncated output is no pass
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
