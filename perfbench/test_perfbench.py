"""Tests of the benchmark itself, not of dtnum.

A wrong library answer, substituted inside the test only, must raise
each workload's error rate and clear ``correct``; and a seed must always
give the same inputs. Each workload runs a few operations, not a timed
window.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS


@pytest.fixture(scope="module")
def lib():
    return run.library(run.ROOT / "src")


@pytest.fixture(scope="module")
def seed_one(lib):
    """Every workload's state for seed 1, built once: the cli-process set-up
    computes its expected outputs at 10^10000 and takes most of a second."""
    return {name: workload.setup(lib, 1) for name, workload in WORKLOADS.items()}


def _with_wrong_rep(lib):
    """A copy of ``lib`` whose ``rep`` appends a digit: a well-formed wrong answer."""
    right = lib.numeration.rep

    def wrong_rep(ns, n):
        word = right(ns, n)
        return type(word)(word.digits + (0,), word.sign)

    numeration = SimpleNamespace(**vars(lib.numeration))
    numeration.rep = wrong_rep
    return SimpleNamespace(**dict(vars(lib), numeration=numeration))


def _few(name, state):
    """A short slice of the workload: (state, cycles) that runs in a second."""
    if name == "huge-cold":
        return state[:1], 1  # one 10^1000 operation
    if name == "corpus-analyze":
        return state[:2], 1
    if name == "cli-process":
        small = [op for op in state["ops"] if op[0][:1] == ["rep"] and "-n" in op[0] and len(op[0][-1]) < 8]
        return dict(state, ops=small), 1  # one rep -n child below 10^6
    return state, 1


def _inputs(name, state):
    specs = WORKLOADS[name].ops(state)
    if name == "cli-process":
        return [argv for argv, _expect in specs]
    return specs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_answer_raises_error_rate(lib, seed_one, name):
    workload = WORKLOADS[name]
    wrong = _with_wrong_rep(lib)
    rates = []
    for variant, full in ((lib, seed_one[name]), (wrong, workload.setup(wrong, 1))):
        state, cycles = _few(name, full)
        tally = run.measure(workload, variant, state, cycles=cycles)
        rates.append((tally.failed / tally.attempted, tally.wrong))
    (base_rate, base_wrong), (bad_rate, bad_wrong) = rates
    assert base_wrong == 0
    assert bad_rate > base_rate
    assert bad_wrong > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(lib, seed_one, name):
    workload = WORKLOADS[name]
    first = _inputs(name, seed_one[name])
    assert _inputs(name, workload.setup(lib, 1)) == first
    assert _inputs(name, workload.setup(lib, 2)) != first
