"""Argumentation-based well-founded semantics: reducts, supporting
hypotheses under two derivation engines, the attack relation, admissibility,
and the well-founded hypothesis fixpoint.

Admissibility is decided fact-wise over the program's saturation into
conditional facts: every derivation of an atom flows through such a fact,
so "not a" is admissible when every fact with a in its head is disarmed.
A fact is disarmed when a strictly stronger fact (smaller head, conditions
within the fact's own conditions plus already-false atoms) supersedes it,
or when the current hypothesis derives a disjunction inside the assumptions
an attacker would need: the fact's negated atoms plus its other head atoms,
minus what is already assumed false. Disjunctive assumptions never help an
attacker (derivation consumes only literal assumptions), and attacking a
smaller assumption set attacks every superset, so this per-fact check
covers all hypotheses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import residual
from .core import Hypothesis, ModelState, Program, Rule, canonicalize, _fset
from .fixpoint import tps_lfp


class Engine(enum.Enum):
    """Which support set backs derivation: the canonical least model state of
    the reduct, or the raw accumulated fixpoint."""

    CANONICAL = "canonical"
    RAW = "raw"


@dataclass(frozen=True)
class AttackWitness:
    """Evidence for an attack; re-checking it against the same hypotheses
    succeeds. clause 1 targets a whole assumption, clause 2 a set of literal
    assumptions whose disjunction is derivable."""

    clause: int
    assumption_or_atoms: frozenset
    derived: tuple


def reduct(p: Program, delta: Hypothesis) -> Program:
    """Keep rules whose negative body is contained in delta's literal
    assumptions, dropping those bodies; the result is positive."""
    lits = delta.literal_assumptions
    return p.with_rules(
        Rule(r.head, r.pos_body) for r in p.rules if r.neg_body <= lits
    )


class _Session:
    """Memoized per-hypothesis support sets and superseded facts over the
    program's saturation (kept on the Program, see residual.saturation)."""

    def __init__(self, program: Program, engine: Engine, cap: int | None = None):
        self.program = program
        self.engine = engine
        self.cap = cap
        self._support: dict[frozenset, tuple] = {}
        self._units: dict[frozenset, frozenset] = {}
        self._superseded: dict[frozenset, frozenset] = {}

    def support(self, lits: frozenset) -> tuple:
        got = self._support.get(lits)
        if got is None:
            if self.engine is Engine.CANONICAL:
                # The reduct's least model state, read off the saturation:
                # its facts with negative body in lits, negation dropped.
                full = canonicalize(
                    f.head for f in self.saturation() if f.neg_body <= lits
                )
            else:
                full = tps_lfp(reduct(self.program, Hypothesis(lits)))
            got = tuple(sorted(full, key=sorted))
            self._support[lits] = got
        return got

    def unit_support(self, lits: frozenset) -> frozenset:
        got = self._units.get(lits)
        if got is None:
            got = frozenset(
                a for b in self.support(lits) for a in b if (b - {a}) <= lits
            )
            self._units[lits] = got
        return got

    def derives(self, lits: frozenset, a: frozenset) -> bool:
        return any(a <= b and (b - a) <= lits for b in self.support(lits))

    def attacks_literals(self, delta_lits: frozenset, target_lits: frozenset) -> bool:
        """Clause-2 test specialized to literal-only targets."""
        return any(
            (b & target_lits) and (b - target_lits) <= delta_lits
            for b in self.support(delta_lits)
        )

    def attack_witness(self, delta: Hypothesis, target: Hypothesis):
        delta_lits = delta.literal_assumptions
        units = self.unit_support(delta_lits)
        for beta in sorted(target.disjunctive_assumptions, key=sorted):
            if beta <= units:
                return AttackWitness(
                    1, beta, tuple(frozenset((b,)) for b in sorted(beta))
                )
        tl = target.literal_assumptions
        for b in self.support(delta_lits):
            used = b & tl
            if used and (b - tl) <= delta_lits:
                return AttackWitness(2, used, (used,))
        return None

    def saturation(self) -> frozenset:
        return residual.saturation(self.program, self.cap)

    def superseded(self, lits: frozenset) -> frozenset:
        got = self._superseded.get(lits)
        if got is None:
            got = residual.superseded(self.saturation(), lits)
            self._superseded[lits] = got
        return got

    def fact_disarmed(self, delta_lits: frozenset, fact: Rule, atom: int) -> bool:
        """No hypothesis turns this conditional fact into an unanswerable
        derivation of the atom.

        Superseded: a strictly stronger fact (in the moved-literal sense,
        discounting already-false atoms) holds whenever this one does, so
        the derivation is never minimal. Counterattacked: the hypothesis
        derives a disjunction lying inside what an attacker must assume
        false (the fact's negated atoms and remaining head atoms not
        already assumed false).
        """
        if fact in self.superseded(delta_lits):
            return True
        target = (fact.neg_body | (fact.head - {atom})) - delta_lits
        if not target:
            return False
        return any(
            (b & target) and (b - target) <= delta_lits
            for b in self.support(delta_lits)
        )

    def admissible(self, delta_lits: frozenset, atom: int) -> bool:
        return all(
            self.fact_disarmed(delta_lits, fact, atom)
            for fact in self.saturation()
            if atom in fact.head
        )

    def wfdh_literals(self) -> frozenset:
        base = sorted(self.program.base)
        by_atom: dict[int, list[Rule]] = {}
        for fact in self.saturation():
            for a in fact.head:
                by_atom.setdefault(a, []).append(fact)
        delta: frozenset = frozenset()
        for _ in range(len(base) + 2):
            nxt = frozenset(
                a
                for a in base
                if all(
                    self.fact_disarmed(delta, fact, a) for fact in by_atom.get(a, ())
                )
            )
            if not delta <= nxt:
                raise RuntimeError("admissibility iteration lost assumptions")
            if nxt == delta:
                return delta
            delta = nxt
        raise RuntimeError("admissibility iteration exceeded the atom-count bound")

    def cons(self, delta: Hypothesis) -> frozenset:
        lits = delta.literal_assumptions
        core = set()
        for b in self.support(lits):
            rem = b - lits
            if rem:
                core.add(rem)
            else:
                core.update(frozenset((x,)) for x in b)
        return canonicalize(core)


def derives(
    p: Program, delta: Hypothesis, a, engine: Engine = Engine.CANONICAL
) -> bool:
    """True iff delta supports the positive disjunction a: some support-set
    member equals a plus atoms cancelled by delta's literal assumptions."""
    return _Session(p, engine).derives(delta.literal_assumptions, _fset(a))


def cons(p: Program, delta: Hypothesis, engine: Engine = Engine.CANONICAL) -> frozenset:
    """Canonical core of everything delta supports."""
    return _Session(p, engine).cons(delta)


def attacks(
    p: Program,
    delta: Hypothesis,
    target: Hypothesis,
    engine: Engine = Engine.CANONICAL,
):
    """Witness that delta attacks the target hypothesis, or None.

    Clause 1: every atom of some assumption of the target is individually
    derivable. Clause 2: the disjunction of some nonempty set of the target's
    literal assumptions is derivable.
    """
    return _Session(p, engine).attack_witness(delta, target)


def self_consistent(p: Program, delta: Hypothesis) -> bool:
    """True iff delta does not attack itself."""
    return attacks(p, delta, delta, Engine.CANONICAL) is None


def admissible(
    p: Program,
    delta: Hypothesis,
    atom: int,
    engine: Engine = Engine.CANONICAL,
    cap: int | None = None,
) -> bool:
    """True iff the assumption "not atom" is admissible with respect to delta:
    every attacker deriving the atom is superseded or counterattacked."""
    return _Session(p, engine, cap).admissible(delta.literal_assumptions, atom)


def wfdh(p: Program, engine: Engine = Engine.CANONICAL, cap: int | None = None) -> Hypothesis:
    """Least fixpoint of the admissibility operator (literal core)."""
    return Hypothesis(_Session(p, engine, cap).wfdh_literals())


def wfds(p: Program, engine: Engine = Engine.CANONICAL, cap: int | None = None) -> ModelState:
    """The well-founded state: admissible assumptions plus what they support."""
    session = _Session(p, engine, cap)
    lits = session.wfdh_literals()
    return ModelState(session.cons(Hypothesis(lits)), lits)
