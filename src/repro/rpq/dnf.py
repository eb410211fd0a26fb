"""DNF conversion and batch-unit decomposition (paper Section IV-A).

An RPQ is converted to a disjunctive normal form treating each
*outermost* Kleene closure as a literal: unions are distributed over
concatenations, but unions *inside* a closure stay put. Each DNF clause
is a concatenation of atoms where an atom is either a single label or a
closure ``body+`` / ``body*`` (whose body may itself contain anything).

``decompose_clause`` implements DecomposeCL (Algorithm 1 line 4): it
splits a clause at its *rightmost* closure into ``(Pre, R, Type, Post)``
— ``Post`` is closure-free by construction, ``Pre`` may contain further
closures and is evaluated by recursive RTCSharing.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.rpq.ast import (
    EPSILON,
    Concat,
    Epsilon,
    Label,
    Plus,
    Regex,
    Star,
    Union,
    concat,
)

# A DNF clause: tuple of atoms, each a Label, Plus, or Star. The empty
# tuple is the ε clause.
Clause = tuple[Regex, ...]

# The most clauses a DNF may reach while it is built. The clauses of
# an RPQ become branches of one Spark plan, and (a|b).(a|b)… doubles
# them per factor. The largest DNF among the queries of the tests and
# of the benchmark workloads has 4 clauses.
MAX_DNF_CLAUSES = 256


class DNFTooLarge(ValueError):
    """The DNF of an expression would exceed ``MAX_DNF_CLAUSES``."""


def to_dnf(node: Regex) -> list[Clause]:
    """Convert a regex to DNF clauses, outermost closures kept as literals.

    Clauses are deduplicated by canonical form, preserving first-seen
    order (so evaluation order is deterministic). Raises ``DNFTooLarge``
    as soon as the expansion would pass ``MAX_DNF_CLAUSES`` clauses.
    """
    clauses = _dnf(node)
    seen: set[str] = set()
    out: list[Clause] = []
    for cl in clauses:
        key = ".".join(a.canon() for a in cl)
        if key not in seen:
            seen.add(key)
            out.append(cl)
    return out


def _dnf(node: Regex) -> list[Clause]:
    if isinstance(node, Epsilon):
        return [()]
    if isinstance(node, (Label, Plus, Star)):
        return [(node,)]
    if isinstance(node, Union):
        out: list[Clause] = []
        for p in node.parts:
            out.extend(_dnf(p))
            _check_size(len(out), node)
        return out
    if isinstance(node, Concat):
        acc: list[Clause] = [()]
        for p in node.parts:
            rights = _dnf(p)
            _check_size(len(acc) * len(rights), node)
            acc = [left + right for left in acc for right in rights]
        return acc
    raise TypeError(f"unknown regex node {node!r}")


def _check_size(n_clauses: int, node: Regex) -> None:
    if n_clauses > MAX_DNF_CLAUSES:
        raise DNFTooLarge(
            f"{node.canon()}: DNF passes {MAX_DNF_CLAUSES} clauses"
        )


@dataclass(frozen=True)
class BatchUnit:
    """A decomposed DNF clause ``Pre · R{type} · Post``.

    ``kind`` is ``'+'``, ``'*'`` or ``None`` (no closure in the clause —
    then ``pre`` and ``r`` are ε and ``post`` is the whole clause).
    """

    pre: Regex
    r: Regex
    kind: str | None
    post: Regex

    def canon(self) -> str:
        if self.kind is None:
            return self.post.canon()
        return (
            f"{self.pre.canon()}.({self.r.canon()}){self.kind}.{self.post.canon()}"
        )


def decompose_clause(clause: Clause) -> BatchUnit:
    """DecomposeCL: split a clause at its rightmost Kleene closure."""
    split = None
    for i in range(len(clause) - 1, -1, -1):
        if isinstance(clause[i], (Plus, Star)):
            split = i
            break
    if split is None:
        return BatchUnit(EPSILON, EPSILON, None, clause_to_regex(clause))
    closure = clause[split]
    kind = "+" if isinstance(closure, Plus) else "*"
    pre = clause_to_regex(clause[:split])
    post = clause_to_regex(clause[split + 1 :])
    assert not post.has_closure(), "Post must be closure-free by construction"
    return BatchUnit(pre, closure.body, kind, post)


def clause_to_regex(clause: Clause) -> Regex:
    """Rebuild a regex from a (sub-)clause; the empty clause is ε."""
    if not clause:
        return EPSILON
    return concat(*clause)


def label_sequences(node: Regex) -> list[tuple[str, ...]]:
    """All label sequences of a closure-free regex (its finite language).

    Used by the join-chain evaluator for ``Pre_G``/``Post_G``/``R_G``
    when the expression has no closure. Raises if a closure is present,
    and ``DNFTooLarge`` as ``to_dnf`` does.
    """
    if node.has_closure():
        raise ValueError(f"{node.canon()} contains a Kleene closure")
    seqs: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for cl in to_dnf(node):
        seq = tuple(a.name for a in cl)  # type: ignore[union-attr]
        if seq not in seen:
            seen.add(seq)
            seqs.append(seq)
    return seqs
