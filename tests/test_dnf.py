"""Unit tests for DNF conversion and DecomposeCL (repro.rpq.dnf)."""
import itertools

import pytest

from repro.rpq.ast import Epsilon, Label, Plus, Star
from repro.rpq.automaton import build_nfa
from repro.rpq.dnf import (
    MAX_DNF_CLAUSES,
    DNFTooLarge,
    clause_to_regex,
    decompose_clause,
    label_sequences,
    to_dnf,
)
from repro.rpq.parser import parse


def clause_canons(text: str) -> list[str]:
    return [
        ".".join(a.canon() for a in cl) or "eps" for cl in to_dnf(parse(text))
    ]


class TestToDNF:
    @pytest.mark.parametrize(
        "text,clauses",
        [
            ("a", ["a"]),
            ("a.b", ["a.b"]),
            ("a|b", ["a", "b"]),
            ("(a|b).c", ["a.c", "b.c"]),
            ("a.(b|c)", ["a.b", "a.c"]),
            ("(a|b).(c|d)", ["a.c", "a.d", "b.c", "b.d"]),
            ("(a|b).c+", ["a.(c)+", "b.(c)+"]),
            # Union inside a closure stays inside (closure is a literal).
            ("(a|b)+", ["((a|b))+"]),
            ("(a|b)+.c | d", ["((a|b))+.c", "d"]),
            ("eps", ["eps"]),
            ("eps|a", ["eps", "a"]),
            ("a.eps.b", ["a.b"]),
        ],
    )
    def test_clauses(self, text, clauses):
        assert clause_canons(text) == clauses

    def test_dedupe_clauses(self):
        # (a|a).b collapses via the smart union; a.b|a.b via dnf dedupe.
        assert clause_canons("a.b|a.b") == ["a.b"]

    def test_language_preserved(self):
        """DNF clauses jointly accept exactly the original language."""
        for text in ["(a|b).(a.b)+", "a.(b|c)*.(a|b)", "(a|b.c)+.(a|c)"]:
            orig = build_nfa(parse(text))
            clause_nfas = [
                build_nfa(clause_to_regex(cl)) for cl in to_dnf(parse(text))
            ]
            for n in range(5):
                for word in itertools.product("abc", repeat=n):
                    want = orig.accepts_word(word)
                    got = any(cn.accepts_word(word) for cn in clause_nfas)
                    assert got == want, (text, word)


class TestDecompose:
    @pytest.mark.parametrize(
        "text,pre,r,kind,post",
        [
            ("a", "eps", "eps", None, "a"),
            ("a.b.c", "eps", "eps", None, "(a.b.c)"),
            ("a+", "eps", "a", "+", "eps"),
            ("a*", "eps", "a", "*", "eps"),
            ("a.(a.b)+.b", "a", "(a.b)", "+", "b"),
            ("a.b+.c.d", "a", "b", "+", "(c.d)"),
            # Rightmost closure wins; Pre keeps earlier closures.
            ("a+.b.c+.d", "((a)+.b)", "c", "+", "d"),
            ("(a.b)*.c", "eps", "(a.b)", "*", "c"),
            ("a.(b.c+)*", "a", "(b.(c)+)", "*", "eps"),
        ],
    )
    def test_decompose(self, text, pre, r, kind, post):
        clauses = to_dnf(parse(text))
        assert len(clauses) == 1
        bu = decompose_clause(clauses[0])
        assert bu.pre.canon() == pre
        assert bu.r.canon() == r
        assert bu.kind == kind
        assert bu.post.canon() == post

    def test_post_is_closure_free(self):
        for text in ["a+.b.c", "(x.y)*.z", "a.b+.c.d.e"]:
            bu = decompose_clause(to_dnf(parse(text))[0])
            assert not bu.post.has_closure()

    def test_paper_example7_query3(self):
        # (a.b)*.b+.(a.b+.c)+ decomposes with Pre=(a.b)*.b+, R=a.b+.c.
        bu = decompose_clause(to_dnf(parse("(a.b)*.b+.(a.b+.c)+"))[0])
        assert bu.pre.canon() == "(((a.b))*.(b)+)"
        assert bu.r.canon() == "(a.(b)+.c)"
        assert bu.kind == "+"
        assert isinstance(bu.post, Epsilon)


class TestLabelSequences:
    @pytest.mark.parametrize(
        "text,seqs",
        [
            ("a", [("a",)]),
            ("a.b", [("a", "b")]),
            ("a|b", [("a",), ("b",)]),
            ("(a|b).c", [("a", "c"), ("b", "c")]),
            ("eps", [()]),
            ("eps|a.b", [(), ("a", "b")]),
        ],
    )
    def test_sequences(self, text, seqs):
        assert label_sequences(parse(text)) == seqs

    def test_rejects_closure(self):
        with pytest.raises(ValueError):
            label_sequences(parse("a+"))


class TestDNFCap:
    """(a|b).(a|b)… doubles the clauses per factor: past the cap both
    entry points raise a typed error instead of building them."""

    @staticmethod
    def unions(n: int) -> str:
        return ".".join(["(a|b)"] * n)

    def test_twelve_unions_raise(self):
        text = self.unions(12)
        with pytest.raises(DNFTooLarge, match=str(MAX_DNF_CLAUSES)):
            to_dnf(parse(text))
        with pytest.raises(DNFTooLarge):
            label_sequences(parse(text))
        assert issubclass(DNFTooLarge, ValueError)

    def test_twelve_unions_raise_beside_a_closure(self):
        with pytest.raises(DNFTooLarge):
            to_dnf(parse(self.unions(12) + ".c+"))

    def test_cap_itself_passes(self):
        n = MAX_DNF_CLAUSES.bit_length() - 1
        assert 2**n == MAX_DNF_CLAUSES
        assert len(label_sequences(parse(self.unions(n)))) == MAX_DNF_CLAUSES


class TestClauseToRegex:
    def test_empty_is_epsilon(self):
        assert isinstance(clause_to_regex(()), Epsilon)

    def test_single(self):
        assert clause_to_regex((Label("a"),)) == Label("a")

    def test_multi(self):
        c = clause_to_regex((Label("a"), Plus(Label("b")), Star(Label("c"))))
        assert c.canon() == "(a.(b)+.(c)*)"
