from __future__ import annotations

import re
import tracemalloc

import pytest

from dtnum import (
    ExpansionOracle,
    expand,
    make_system,
    oracle_rep,
    rep,
    to_dot,
    to_tsv,
)
from dtnum.errors import CapExceededError, SideMissingError
from helpers import (
    ExpansionOracleReference,
    corpus_systems,
    expand_word,
    mat_pow,
    to_dot_reference,
    to_tsv_reference,
)

REFERENCE_DEPTH = 6
CAP_DEPTH = 4


class TestExpand:
    def test_three_letter_depth_two(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        slice_ = expand(ns, 2)
        row = slice_.levels[2]
        assert [n.column for n in row] == list(range(-5, 6))
        assert slice_.row_letters(2) == tuple("abcac") + tuple("abccac")

    def test_depth_zero_is_the_seed_row(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        slice_ = expand(ns, 0)
        assert slice_.row_letters(0) == ("c", "a")
        assert [n.column for n in slice_.levels[0]] == [-1, 0]

    def test_intertwined_depth_one(self):
        ns = make_system("a->ccd,b->cd,c->ab,d->a", "a|a")
        assert expand(ns, 1).row_letters(1) == tuple("ccd") + tuple("ccd")

    def test_rows_match_string_rewriting(self, golden_complement):
        for entry, ns in golden_complement:
            slice_ = expand(ns, 5)
            sub = ns.substitution
            for level in range(6):
                expected = ()
                if ns.left is not None:
                    expected += expand_word(sub, ns.left, level)
                if ns.right is not None:
                    expected += expand_word(sub, ns.right, level)
                assert slice_.row_letters(level) == expected, (entry["name"], level)

    def test_parent_and_edge_structure(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        slice_ = expand(ns, 3)
        sub = ns.substitution
        for level in range(1, 4):
            prev = slice_.levels[level - 1]
            for node in slice_.levels[level]:
                parent = prev[node.parent]
                assert sub.image(parent.letter)[node.edge] == node.letter

    def test_per_level_counts_match_matrix_powers(self, golden_complement):
        for entry, ns in golden_complement:
            sub = ns.substitution
            slice_ = expand(ns, 5)
            for level in range(6):
                power = mat_pow([list(r) for r in sub.adjacency], level)
                sides = []
                row = slice_.levels[level]
                if ns.left is not None:
                    sides.append((ns.left, [n for n in row if n.column < 0]))
                if ns.right is not None:
                    sides.append((ns.right, [n for n in row if n.column >= 0]))
                for side, nodes in sides:
                    j = sub.letter_index(side)
                    counts = {a: 0 for a in sub.alphabet}
                    for node in nodes:
                        counts[node.letter] += 1
                    for i, a in enumerate(sub.alphabet):
                        assert counts[a] == power[i][j], (entry["name"], level, a)

    def test_cap_exceeded(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        with pytest.raises(CapExceededError):
            expand(ns, 40, cap=100)


class TestDot:
    def test_seed_only_two_nodes_no_edges(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        text = to_dot(expand(ns, 0))
        assert text.count("label=") == 2
        assert "->" not in text.replace("digraph", "")

    def test_depth_one_counts(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        text = to_dot(expand(ns, 1))
        node_lines = [l for l in text.splitlines() if "[label=" in l and "->" not in l]
        edge_lines = [l for l in text.splitlines() if "->" in l]
        assert len(node_lines) == 7
        assert len(edge_lines) == 5
        labels = sorted(l.split('label="')[1][0] for l in edge_lines)
        assert labels == ["0", "0", "1", "1", "2"]

    def test_single_chain_for_one_sided(self):
        ns = make_system("a->ab,b->ac,c->a", "_|a")
        text = to_dot(expand(ns, 0))
        assert text.count("label=") == 1

    def test_byte_stable(self):
        ns = make_system("a->ccd,b->cd,c->ab,d->a", "a|a")
        assert to_dot(expand(ns, 4)) == to_dot(expand(ns, 4))
        assert to_tsv(expand(ns, 4)) == to_tsv(expand(ns, 4))

    def test_labels_are_escaped_dot_strings(self):
        # the DSL accepts letters with a double quote or a backslash; each
        # label must stay one DOT quoted string and read back as its letter
        ns = make_system('x"->x" y\\,y\\->x"', 'x"|x"')
        slice_ = expand(ns, 1)
        lines = to_dot(slice_).splitlines()
        quoted = r'"((?:[^"\\]|\\.)*)"'
        node_line = re.compile(rf"  {quoted} \[label={quoted}\];")
        edge_line = re.compile(rf"  {quoted} -> {quoted} \[label={quoted}\];")
        letters = [node.letter for row in slice_.levels for node in row]
        assert set(letters) == {'x"', "y\\"}
        node_lines = lines[2 : 2 + len(letters)]
        labels = []
        for line in node_lines:
            match = node_line.fullmatch(line)
            assert match, line
            labels.append(re.sub(r"\\(.)", r"\1", match.group(2)))
        assert labels == letters
        assert all(edge_line.fullmatch(line) for line in lines[2 + len(letters) : -1])
        assert lines[-1] == "}"

    def test_tsv_columns(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        lines = to_tsv(expand(ns, 1)).splitlines()
        assert lines[0] == "level\tcolumn\tletter\tparent_edge"
        assert lines[1] == "0\t-1\tc\t"
        assert lines[-1] == "1\t2\tc\t2"


class TestOracleRep:
    def test_examples(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        assert oracle_rep(ns, 3).text() == "010"
        ns2 = make_system("a->ccd,b->cd,c->ab,d->a", "a|a", residue=1)
        assert oracle_rep(ns2, -3).text() == "10"

    def test_agreement_with_descent(self, golden_complement):
        for entry, ns in golden_complement:
            oracle = ExpansionOracle(ns)
            for n in range(-80, 81):
                if ns.contains(n):
                    assert oracle.rep(n) == rep(ns, n), (entry["name"], n)

    def test_side_missing(self):
        ns = make_system("a->ab,b->ac,c->a", "_|a")
        with pytest.raises(SideMissingError):
            oracle_rep(ns, -2)

    def test_cap_exceeded(self):
        ns = make_system("a->abc,b->c,c->ac", "c|a")
        with pytest.raises(CapExceededError):
            oracle_rep(ns, 10**9, cap=1000)


def _systems_under_reference(golden_complement):
    for entry, ns in golden_complement:
        yield entry["name"], ns
    for i, ns in enumerate(corpus_systems()):
        yield f"corpus #{i}", ns


def _first_capped_depth(oracle, depth):
    for level in range(depth + 1):
        try:
            oracle.slice(level)
        except CapExceededError as exc:
            return level, str(exc)
    return None


class TestAgainstReference:
    """The index-list rows against the node-per-node expansion they replaced."""

    def test_levels_dumps_and_rows(self, golden_complement):
        for name, ns in _systems_under_reference(golden_complement):
            oracle = ExpansionOracle(ns)
            reference = ExpansionOracleReference(ns)
            for depth in range(REFERENCE_DEPTH + 1):
                got = expand(ns, depth)
                want = reference.slice(depth)
                assert [[tuple(node) for node in row] for row in got.levels] == [
                    [(n.column, n.letter, n.parent, n.edge) for n in row]
                    for row in want.levels
                ], (name, depth)
                assert to_dot(got) == to_dot_reference(want), (name, depth)
                assert to_tsv(got) == to_tsv_reference(want), (name, depth)
                assert oracle.row(depth) == got.levels[depth], (name, depth)

    def test_oracle_rep(self, golden_complement):
        for name, ns in _systems_under_reference(golden_complement):
            oracle = ExpansionOracle(ns)
            reference = ExpansionOracleReference(ns)
            for n in range(-64, 65):
                if ns.contains(n):
                    assert oracle.rep(n) == reference.rep(n), (name, n)
                else:
                    with pytest.raises(SideMissingError):
                        oracle.rep(n)

    def test_cap_refused_at_the_same_depth(self, golden_complement):
        for name, ns in _systems_under_reference(golden_complement):
            total = expand(ns, CAP_DEPTH).node_count()
            for cap in range(total + 1):
                got = _first_capped_depth(ExpansionOracle(ns, cap), CAP_DEPTH)
                want = _first_capped_depth(ExpansionOracleReference(ns, cap), CAP_DEPTH)
                assert got == want, (name, cap)
            assert got is None  # the full count fits


@pytest.mark.parametrize("n", [20000, -20000])
def test_oracle_memory_is_bounded(n):
    # 119,831 nodes; one object per node peaked at 22.4 MiB
    ns = make_system("a->abc,b->c,c->ac", "c|a")
    tracemalloc.start()
    try:
        word = ExpansionOracle(ns).rep(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert word == rep(ns, n)
    assert peak < 8 * 2**20, peak
