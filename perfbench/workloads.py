"""The four closed-loop workloads: inputs, operations and their checks.

Each workload builds a fixed list of operation specs from the seed alone;
a run repeats that list, so every operation is timed many times over the
run. One operation is one closed-loop request: the next
starts only after the previous one returned and was checked. Every
answer is checked against something the program did not compute the
same way: the inverse map, an independent oracle, the golden tables, or
the in-process library result for a CLI child.

An operation raises ``Wrong`` for a wrong answer. Any other exception is
a failure without a wrong answer (a crash, an unexpected exit code). A
typed refusal that the called function documents is an outcome and is
only counted.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

# ROADMAP size ladder for |n|; 10^10000 runs on a fixed minority of operations.
LADDER = (1000, 3000, 10000)
WARM_BOUND = 10**300
WARM_WINDOW = 32  # contiguous values per system
WARM_RANDOM = 16  # random values with |n| <= 10^300 per system
FIT_BOUND = 200  # fit_weights_oracle over -200..200, the selftest range
ORACLE_BOUND = 64  # ExpansionOracle.rep agreement on |n| <= 64
ORACLE_CAP = 5000  # node cap; a system that needs more is refused, not slow
TREE_DEPTH = 6
CORPUS_SYSTEMS = 200  # batches of five substitutions until there are this many systems
CORPUS_LETTERS = "abcd"


class Wrong(Exception):
    """The program returned an answer that the check refutes."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def _sides(core, seed_text: str) -> tuple[int, ...]:
    """Signs a system can represent: +1 with a right seed, -1 with a left one."""
    left, right = core.parse_seed(seed_text)
    return tuple(s for s, side in ((1, right), (-1, left)) if side is not None)


def _ladder_value(rng: random.Random, exponent: int, signs: tuple[int, ...]) -> int:
    """A value with |n| in [10^e, 2*10^e) and a seeded sign the system supports."""
    return rng.choice(signs) * (10**exponent + rng.randrange(10**exponent))


class Workload:
    name = ""
    trace_cycles = 1  # cycles the traced run replays; fixed, so counts repeat

    def setup(self, lib, seed: int):
        raise NotImplementedError

    def ops(self, state) -> list:
        """The operation specs of one cycle; the same list every cycle."""
        return state

    def run(self, lib, state, spec, tr) -> None:
        raise NotImplementedError

    def for_trace(self, state):
        """The state the traced run uses; the same state unless overridden."""
        return state

    def probe(self, lib, state, tr) -> None:
        """Extra untimed measurements recorded after the traced cycles."""


# -- huge-cold -------------------------------------------------------------------


class HugeCold(Workload):
    """Fresh system per operation, then rep and val at thousands of digits."""

    name = "huge-cold"
    trace_cycles = 2

    def setup(self, lib, seed):
        rng = random.Random(f"{self.name}/{seed}")
        entries = lib.golden.load_golden()["complement"]
        ops = []
        # three 10^1000 values per system put the median inside that group,
        # not on its boundary with the 10^3000 one
        for exponent in (LADDER[0], LADDER[0], LADDER[0], LADDER[1]):
            for e in entries:
                n = _ladder_value(rng, exponent, _sides(lib.core, e["seed"]))
                ops.append((e["sub"], e["seed"], e["residue"], n))
        # a fixed system keeps the 10^10000 cost and peak memory the same
        # across seeds: abc-c-ac, the ROADMAP's reference system
        big = entries[0]
        n = _ladder_value(rng, LADDER[2], _sides(lib.core, big["seed"]))
        ops.append((big["sub"], big["seed"], big["residue"], n))
        return ops

    def run(self, lib, state, spec, tr):
        sub_text, seed_text, residue, n = spec
        with tr.span("core.make_system"):
            ns = lib.core.make_system(sub_text, seed_text, residue=residue)
        if tr.enabled:
            with tr.span("core.length_table") as span:
                span.calls, k = _grow_length_table(lib.core, ns, n)
            tr.count("core.length_table.levels", k)
            sub = ns.substitution
            bits = max(lib.core.image_length(sub, a, k).bit_length() for a in sub.alphabet)
            tr.peak("core.length_table.max_bits", bits)
        with tr.span("numeration.rep"):
            word = lib.numeration.rep(ns, n)
        tr.count("numeration.rep.digits", len(word.digits))
        with tr.span("numeration.val"):
            got = lib.numeration.val(ns, word)
        _check(got == (n, True), f"val(rep(n)) != (n, True) for a {n.bit_length()}-bit n")

    def probe(self, lib, state, tr):
        # tracemalloc slows every big-integer addition many times over, so
        # it runs once, on a fresh system for the largest value, unspanned
        sub_text, seed_text, residue, n = max(state, key=lambda spec: abs(spec[3]))
        ns = lib.core.make_system(sub_text, seed_text, residue=residue)
        tracemalloc.start()
        try:
            _grow_length_table(lib.core, ns, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tr.peak("core.length_table.peak_mib", peak / 2**20)


def _grow_length_table(core, ns, n: int) -> tuple[int, int]:
    """Grow the length table with rep's own level search, through the public
    ``image_length``, so table growth is timed apart from the descent.
    Returns the number of lookups and the level reached."""
    sub = ns.substitution
    root = ns.right if n >= 0 else ns.left
    need = n + 1 if n >= 0 else -n
    k = ns.residue
    lookups = 1
    while core.image_length(sub, root, k) < need:
        k += ns.period
        lookups += 1
    return lookups, k


# -- warm-sweep ------------------------------------------------------------------


class WarmSweep(Workload):
    """Round trips on systems whose length tables were filled in set-up."""

    name = "warm-sweep"
    trace_cycles = 4

    def setup(self, lib, seed):
        core, numeration = lib.core, lib.numeration
        rng = random.Random(f"{self.name}/{seed}")
        ops, golden = [], []
        for e in lib.golden.load_golden()["complement"]:
            ns = core.make_system(e["sub"], e["seed"], residue=e["residue"])
            signs = _sides(core, e["seed"])
            for sign in signs:
                numeration.rep(ns, sign * WARM_BOUND)  # fills the table for the whole range
            if signs == (-1,):
                start, step = -1 - rng.randrange(1000), -1
            elif signs == (1,):
                start, step = rng.randrange(1000), 1
            else:
                start, step = rng.randrange(-1000, 1000), 1
            ops.extend((ns, start + step * j) for j in range(WARM_WINDOW))
            ops.extend((ns, rng.choice(signs) * rng.randrange(WARM_BOUND + 1)) for _ in range(WARM_RANDOM))
            golden.append((ns, e))
        return ops + golden

    def run(self, lib, state, spec, tr):
        ns, n = spec
        if isinstance(n, dict):
            _check_golden(lib, n, ns, tr)
            return
        with tr.span("numeration.rep"):
            word = lib.numeration.rep(ns, n)
        tr.count("numeration.rep.digits", len(word.digits))
        with tr.span("numeration.val"):
            got = lib.numeration.val(ns, word)
        _check(got == (n, True), f"val(rep({n})) = {got}")


def _check_golden(lib, entry: dict, ns, tr) -> None:
    """Golden representation table and weight prefixes of one system."""
    with tr.span("numeration.rep", calls=len(entry["table"])):
        got = {n_text: lib.numeration.rep(ns, int(n_text)).text() for n_text in entry["table"]}
    _check(got == entry["table"], f"{entry['name']}: representations differ from the golden table")
    if "U" in entry:
        with tr.span("positionality.check_positional"):  # weights() is check_positional plus a refusal
            table = lib.positionality.weights(ns, len(entry["U"]))
        _check(list(table.U) == entry["U"], f"{entry['name']}: U = {table.U}")
        if "V" in entry:
            _check(list(table.V[: len(entry["V"])]) == entry["V"], f"{entry['name']}: V = {table.V}")


# -- corpus-analyze ------------------------------------------------------------------


class CorpusAnalyze(Workload):
    """Full analysis of one small random system per operation."""

    name = "corpus-analyze"

    def setup(self, lib, seed):
        return corpus_specs(lib, seed)

    def run(self, lib, state, spec, tr):
        core, positionality, trees, classify = lib.core, lib.positionality, lib.trees, lib.classify
        sub_text, seed_text, residue, period = spec
        with tr.span("core.make_system"):
            ns = core.make_system(sub_text, seed_text, residue=residue, period=period)

        with tr.span("positionality.fit_weights_oracle"):
            fit = positionality.fit_weights_oracle(ns, -FIT_BOUND, FIT_BOUND)
        tr.count("positionality.fit_weights_oracle.equations", _domain_size(ns, FIT_BOUND))
        consistent = isinstance(fit, positionality.ConsistentWeights)
        count = max([*fit.U, *fit.V], default=0) + 1 if consistent else 8
        with tr.span("positionality.check_positional"):
            report = positionality.check_positional(ns, weight_count=count)
        agree = report.positional == consistent
        if agree and consistent:
            agree = all(report.weights.U[i] == u for i, u in fit.U.items()) and all(
                report.weights.V[i] == v for i, v in fit.V.items()
            )
        if not agree:
            tr.count("positionality.check_positional.disagreements")
        _check(agree, f"verdict {report.positional} disagrees with the weight oracle on {spec}")

        with tr.span("trees.expand"):
            slice_ = trees.expand(ns, TREE_DEPTH)
        nodes = slice_.node_count()
        tr.count("trees.expand.nodes", nodes)
        roots = [x for x in (ns.left, ns.right) if x is not None]
        width = sum(core.image_length(ns.substitution, x, TREE_DEPTH) for x in roots)
        _check(len(slice_.levels[TREE_DEPTH]) == width, f"row {TREE_DEPTH} width differs from image lengths on {spec}")
        with tr.span("trees.to_dot"):
            dot = trees.to_dot(slice_)
        tr.count("trees.to_dot.bytes", len(dot))
        _check(dot.count("\n") == 3 + 2 * nodes - len(roots), f"DOT line count on {spec}")

        values = [n for n in _by_magnitude(ORACLE_BOUND) if ns.contains(n)]
        with tr.span("numeration.rep", calls=len(values)):
            words = [lib.numeration.rep(ns, n) for n in values]
        tr.count("numeration.rep.digits", sum(len(w.digits) for w in words))
        oracle = trees.ExpansionOracle(ns, cap=ORACLE_CAP)
        seen = []
        with tr.span("trees.oracle_rep", calls=len(values)):
            try:
                for n in values:
                    seen.append(oracle.rep(n))
            except lib.errors.CapExceededError:
                tr.count("trees.oracle_rep.capped")
        bad = [n for n, w, o in zip(values, words, seen) if w != o]
        _check(not bad, f"rep and ExpansionOracle.rep differ at {bad[:3]} on {spec}")

        with tr.span("classify.simplify"):
            try:
                sub2, _seed2, _mapping = classify.simplify(ns.substitution, ns.seed)
            except lib.errors.NotLengthUniformError:
                sub2 = None
                tr.count("classify.simplify.refused")
            except lib.errors.NumerationError:
                sub2 = None
                tr.count("classify.simplify.refused_other")
        if sub2 is not None:
            _check(len(classify.nonfinal_letters(sub2)) <= 1, f"simplify left several non-final letters on {spec}")

        if ns.right is not None:
            with tr.span("classify.classification_json"):
                data = classify.classification_json(ns.substitution, ns.right)
            _check(data["class"] in classify.BERTRAND_CLASSES, f"unknown class {data['class']!r}")


def corpus_specs(lib, seed: int) -> list[tuple[str, str, int, int]]:
    """Systems shaped like the test corpus: alphabets of 2-4 letters, images
    of 1-3 letters, every seed and residue of each substitution.

    Per-system cost varies tenfold with growth rate and sides, so a corpus
    drawn afresh per seed would change the workload's cost mix by more than
    the noise bound. The substitutions therefore come from one fixed
    generator; the seed renames the letters of each and orders the systems.
    """
    population = random.Random("corpus-population")
    rng = random.Random(f"corpus/{seed}")
    specs = []
    while len(specs) < CORPUS_SYSTEMS:
        for sub in _random_substitutions(lib, population, 5):
            sub = _renamed(lib, sub, rng)
            for domain in ("Z", "N", "Zneg"):
                for seed_spec in lib.core.find_seeds(sub, domain):
                    for r in range(seed_spec.period):
                        specs.append((sub.to_dsl(), seed_spec.text(), r, seed_spec.period))
    rng.shuffle(specs)
    return specs


def _renamed(lib, sub, rng: random.Random):
    """The same substitution under a seeded permutation of its letter names."""
    names = dict(zip(sub.alphabet, rng.sample(sub.alphabet, len(sub.alphabet))))
    return lib.core.Substitution(
        tuple(names[a] for a in sub.alphabet),
        tuple(tuple(names[x] for x in image) for image in sub.images),
    )


def _random_substitutions(lib, rng: random.Random, count: int) -> list:
    out = []
    while len(out) < count:
        letters = CORPUS_LETTERS[: rng.randint(2, 4)]
        images = tuple(tuple(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in letters)
        try:
            out.append(lib.core.Substitution(tuple(letters), images))
        except lib.errors.NoGrowingLetterError:
            continue
    return out


def _by_magnitude(bound: int) -> list[int]:
    """0, 1, -1, 2, -2, ...: small values are checked before any cap hits."""
    out = [0]
    for m in range(1, bound + 1):
        out += [m, -m]
    return out


def _domain_size(ns, bound: int) -> int:
    return (bound + 1 if ns.right is not None else 0) + (bound if ns.left is not None else 0)


# -- cli-process ---------------------------------------------------------------------


class CliProcess(Workload):
    """One ``python -m dtnum`` child per operation; stdout checked against the library."""

    name = "cli-process"
    trace_cycles = 2

    def setup(self, lib, seed):
        limit = getattr(sys, "get_int_max_str_digits", None)
        saved = limit() if limit else None
        if limit:
            sys.set_int_max_str_digits(0)  # inputs and expectations exceed the default
        try:
            ops = _cli_ops(lib, random.Random(f"{self.name}/{seed}"))
        finally:
            if limit:
                sys.set_int_max_str_digits(saved)
        return {"ops": ops, "in_process": False}

    def ops(self, state):
        return state["ops"]

    def for_trace(self, state):
        # cli.main runs in-process so that spans can wrap it
        return dict(state, in_process=True)

    def run(self, lib, state, spec, tr):
        argv, expect = spec
        if state["in_process"]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                with tr.span("cli.main"):
                    code = lib.cli.main(list(argv))
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "dtnum", *argv],
                capture_output=True,
                text=True,
                env=child_env(lib),
                timeout=120,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code != 0:
            tr.count("cli.exit_nonzero")
        if "Traceback" in stderr:
            raise RuntimeError(f"traceback from {argv[0]}: {stderr.strip().splitlines()[-1]}")
        if code != expect["code"]:
            raise RuntimeError(f"{argv[0]} exited {code}, expected {expect['code']}: {stderr.strip()[:200]}")
        if expect["code"] != 0:
            _check(stderr.startswith(f"error: {expect['error']}:"), f"{argv[0]} stderr {stderr[:200]!r}")
        else:
            expect["check"](stdout)


def child_env(lib) -> dict:
    src = os.path.dirname(os.path.dirname(lib.core.__file__))
    return dict(os.environ, PYTHONPATH=src)


def _expect_stdout(text: str):
    def check(stdout: str) -> None:
        _check(stdout == text, f"stdout differs from the library result ({len(stdout)} vs {len(text)} chars)")

    return {"code": 0, "check": check}


def _cli_ops(lib, rng: random.Random) -> list:
    """One fixed 24-operation cycle; the seed picks the values."""
    core, numeration, positionality = lib.core, lib.numeration, lib.positionality
    trees, classify = lib.trees, lib.classify
    golden = lib.golden.load_golden()
    entries = {e["name"]: e for e in golden["complement"]}
    systems = {
        name: core.make_system(e["sub"], e["seed"], residue=e["residue"]) for name, e in entries.items()
    }

    def sys_args(name):
        e = entries[name]
        return ["--sub", e["sub"], "--seed", e["seed"], "-r", str(e["residue"])]

    def signs(name):
        return _sides(core, entries[name]["seed"])

    ops = []

    def rep_op(name, n):
        word = numeration.rep(systems[name], n).text()
        ops.append((["rep", *sys_args(name), "-n", str(n)], _expect_stdout(word + "\n")))

    def val_op(name, n):
        word = numeration.rep(systems[name], n).text()
        ops.append((["val", *sys_args(name), "--word", word], _expect_stdout(f"{n}\tcanonical\n")))

    ladder = [
        ("silver-positional", LADDER[0]),
        ("intertwined-even", LADDER[0]),
        ("doubling-left", LADDER[1]),
        ("eight-letter-left", LADDER[1]),
        ("abc-c-ac", LADDER[2]),
    ]
    for name, exponent in ladder:
        rep_op(name, _ladder_value(rng, exponent, signs(name)))
    for name, exponent in [
        ("silver-nonpositional", LADDER[0]),
        ("spine-blocked", LADDER[0]),
        ("intertwined-odd", LADDER[1]),
        ("eight-letter-left-fixed", LADDER[1]),
        ("abc-c-ac", LADDER[2]),
    ]:
        val_op(name, _ladder_value(rng, exponent, signs(name)))
    rep_op("intertwined-odd", rng.choice(signs("intertwined-odd")) * rng.randrange(10**6))
    val_op("silver-positional", rng.choice(signs("silver-positional")) * rng.randrange(10**6))

    name = "spine-blocked"
    lo = rng.randrange(-1000, 1000)
    rows = "".join(
        f"{n}\t{numeration.rep(systems[name], n).text()}\n"
        for n in range(lo, lo + 64)
        if systems[name].contains(n)
    )
    ops.append((["rep", *sys_args(name), "--range", f"{lo}..{lo + 63}"], _expect_stdout(rows)))

    for name in ("abc-c-ac", "intertwined-odd"):
        report = positionality.check_positional(systems[name], weight_count=8)
        _check(report.positional == entries[name]["positional"], f"{name}: golden verdict")
        ops.append((["analyze", *sys_args(name)], _expect_stdout(json.dumps(report.to_json_dict()) + "\n")))

    for name in ("silver-positional", "doubling-left"):
        e = entries[name]

        def check_weights(stdout, e=e):
            data = json.loads(stdout)
            _check(data["U"] == e["U"], f"{e['name']}: CLI U = {data['U']}, golden {e['U']}")
            _check(data["V"][: len(e["V"])] == e["V"], f"{e['name']}: CLI V = {data['V']}")

        ops.append(
            (["weights", *sys_args(name), "--count", str(len(e["U"])), "--format", "json"], {"code": 0, "check": check_weights})
        )

    for e in golden["classic"][:2]:
        data = classify.classification_json(core.substitution_from_text(e["sub"]), e["root"])
        ops.append((["classify", "--sub", e["sub"], "--root", e["root"]], _expect_stdout(json.dumps(data) + "\n")))

    for name in ("silver-nonpositional", "doubling-left"):
        dot = trees.to_dot(trees.expand(systems[name], TREE_DEPTH))
        ops.append((["tree", *sys_args(name), "--depth", str(TREE_DEPTH)], _expect_stdout(dot)))

    for name in ("silver-positional", "abc-c-ac"):
        ns = systems[name]
        argv = ["simplify", *sys_args(name), "--format", "json"]
        try:
            sub2, seed2, mapping = classify.simplify(ns.substitution, ns.seed)
        except lib.errors.NumerationError as e:
            ops.append((argv, {"code": 2, "error": e.code}))
            continue
        data = {"sub": sub2.to_json_dict(), "seed": seed2.text(), "map": mapping}
        ops.append((argv, _expect_stdout(json.dumps(data) + "\n")))

    def check_selftest(stdout):
        lines = stdout.splitlines()
        _check(lines[-1:] == ["all checks passed"], "selftest did not pass")
        _check(not any(line.startswith("MISMATCH") for line in lines), "selftest mismatch")

    ops.append((["selftest"], {"code": 0, "check": check_selftest}))
    return ops


WORKLOADS = {w.name: w for w in (HugeCold(), WarmSweep(), CorpusAnalyze(), CliProcess())}
