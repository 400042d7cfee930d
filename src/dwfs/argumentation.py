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
covers all hypotheses. Each round of the admissibility iteration decides
every atom at once, in one sweep over the facts that no stronger fact
supersedes under the round's false atoms (_Session.armed over
residual.live_in).

The hypotheses of one iteration only grow, so each reduct keeps the rules
of the one before. The raw engine resumes the fixpoint of a reduct from the
cached fixpoint of the latest reduct whose rules it keeps. It leaves
tautologies (rules whose head meets their positive body) out of every
reduct, an elimination from Brass and Dix's transformation system: a
resolvent of a tautology contains the premise it resolved on the shared
atom, so the subset-minimal support members, and with them every state,
are unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from . import residual
from .core import (
    Hypothesis,
    ModelState,
    Program,
    RouteError,
    Rule,
    atom_mask,
    canonical_sets,
    mask_atoms,
    mask_bits,
    minimal_masks,
)
from .fixpoint import _lfp_masks


class AdmissibilityError(RouteError):
    """The admissibility iteration broke its invariant: a round dropped an
    assumption, or the rounds outnumbered the atoms."""


class Engine(enum.Enum):
    """Which support set backs derivation: the canonical least model state of
    the reduct, or the raw accumulated fixpoint of the reduct without its
    tautologies. The raw set keeps every other non-minimal member ("a. a |
    b." derives "a b"), but not those only a tautology derives ("a. a | b
    :- a." does not)."""

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
    """Memoized per-hypothesis support sets over the program's saturation
    (kept on the Program, see residual.saturated_program).

    Literal sets and support sets are atom masks (core.atom_mask): a literal
    set is one mask, a support set a tuple of masks, decoded to atom sets
    only at the API edge (cons, attack witnesses, the wfds state). The
    canonical engine reads a support set off the saturation's fact pairs
    (residual.fact_masks), never decoded to Rules. The raw engine takes the
    fixpoint kernel of the reduct's rule masks, tautologies left out
    (reduct_rules); a reduct is named by the indices of the distinct
    positive rules it keeps, and many literal sets share one. A new reduct
    resumes from the cached support of the latest reduct whose rules it
    keeps; only the support tuples are kept, not the kernel's running sets.
    The fact pairs an admissibility round sweeps are not kept here: they are
    the saturation's live facts for the round's literals (residual.live_in),
    which the saturated Program keeps and every route and engine shares.
    """

    def __init__(self, program: Program, engine: Engine):
        self.program = program
        self.engine = engine
        self._support: dict[int, tuple] = {}
        self._raw: dict[frozenset, tuple] = {}  # kept positive rules -> support

    def support(self, lits: int) -> tuple:
        got = self._support.get(lits)
        if got is None:
            if self.engine is Engine.CANONICAL:
                # The reduct's least model state, read off the saturation:
                # its facts with negative body in lits, negation dropped.
                facts = residual.fact_masks(self.saturated)
                got = tuple(minimal_masks(h for h, n in facts if not n & ~lits))
            else:
                positive, rules = self.reduct_rules
                kept = frozenset(i for i, n in rules if not n & ~lits)
                got = self._raw.get(kept)
                if got is None:
                    # Resume from the latest reduct whose rules this one
                    # keeps: along the hypothesis chain, the one before.
                    base = next((k for k in reversed(self._raw) if k <= kept), frozenset())
                    start = self._raw.get(base, ())
                    order = sorted(base) + sorted(kept - base)
                    got = tuple(_lfp_masks([positive[i] for i in order], start, len(base)))
                    self._raw[kept] = got
            self._support[lits] = got
        return got

    @cached_property
    def reduct_rules(self) -> tuple[list, list]:
        """The program's distinct positive parts as (head, body) mask pairs,
        and per rule the index of its positive part with its negative body
        mask. Tautologies are left out: a resolvent of one contains the
        premise it resolved on the shared atom, so they add only
        non-minimal members to every fixpoint."""
        index: dict[tuple, int] = {}
        rules = []
        for r in self.program.rules:
            if r.is_tautology:
                continue
            i = index.setdefault((r.head_mask, r.pos_mask), len(index))
            rules.append((i, r.neg_mask))
        return list(index), rules

    def unit_support(self, lits: int) -> int:
        """The atoms a with {a} supported: some member is a plus atoms in lits."""
        units = 0
        for b in self.support(lits):
            rest = b & ~lits
            if not rest & (rest - 1):  # at most one atom outside lits
                units |= rest or b
        return units

    def derives(self, lits: int, a: int) -> bool:
        return any(not a & ~b and not b & ~(a | lits) for b in self.support(lits))

    def attack_witness(self, delta: Hypothesis, target: Hypothesis):
        delta_lits = atom_mask(delta.literal_assumptions)
        units = self.unit_support(delta_lits)
        for beta in sorted(target.disjunctive_assumptions, key=sorted):
            if not atom_mask(beta) & ~units:
                return AttackWitness(
                    1, beta, tuple(frozenset((b,)) for b in sorted(beta))
                )
        tl = atom_mask(target.literal_assumptions)
        # Members in the order of their sorted atom lists, which picks the
        # witness.
        for b in sorted(self.support(delta_lits), key=lambda m: sorted(mask_atoms(m))):
            used = b & tl
            if used and not b & ~(tl | delta_lits):
                return AttackWitness(2, mask_atoms(used), (mask_atoms(used),))
        return None

    @cached_property
    def saturated(self) -> Program:
        return residual.saturated_program(self.program)

    def remainders(self, lits: int) -> dict[int, list]:
        """The distinct nonempty support members minus lits, under the
        one-atom mask of their lowest atom. Non-minimal ones are kept:
        armed reads them only through intersections, which they leave as
        they are. Not cached: each round of the iteration asks for a new
        hypothesis."""
        got: dict[int, list] = {}
        for rest in {b & ~lits for b in self.support(lits)}:
            if rest:
                got.setdefault(rest & -rest, []).append(rest)
        return got

    def armed(self, delta_lits: int) -> int:
        """The atoms a whose assumption "not a" is not admissible with
        respect to delta_lits, in one sweep over the saturation's live facts
        for delta_lits; a superseded fact arms nothing.

        A live fact arms each head atom a that it turns into a derivation no
        hypothesis can answer. An attacker must assume false t = (neg |
        head) minus delta_lits, less a itself unless the fact negates a, and
        the fact is disarmed for a when some remainder (a nonempty support
        member minus delta_lits) lies within that target. The remainders
        within t are read off the lowest-atom index under t's atoms. With
        none, the fact arms its whole head; otherwise it arms the head atoms
        outside neg that every such remainder contains. Both tests depend
        only on the subset-minimal remainders: a non-minimal one within t
        contains a minimal one within t, so it changes neither the test for
        none nor the intersection.
        """
        remainders = self.remainders(delta_lits)
        armed = 0
        for head, neg in residual.live_in(self.saturated, delta_lits):
            t = (neg | head) & ~delta_lits
            common = -1  # the atoms of every remainder within t; -1 while none is
            for a in mask_bits(t):
                for rest in remainders.get(a, ()):
                    if not rest & ~t:
                        common &= rest
            armed |= head if common < 0 else head & ~neg & common
        return armed

    def wfdh_literals(self) -> int:
        n = len(self.program.atom_names)
        full = (1 << n) - 1
        delta = 0
        for _ in range(n + 2):
            nxt = full & ~self.armed(delta)
            if delta & ~nxt:
                raise AdmissibilityError("admissibility iteration lost assumptions")
            if nxt == delta:
                return delta
            delta = nxt
        raise AdmissibilityError("admissibility iteration exceeded the atom-count bound")

    def cons(self, lits: int) -> list:
        """Atom masks whose minimal ones are the canonical core of all lits
        supports: each support member minus lits, or else each of its atoms."""
        core = []
        for b in self.support(lits):
            rest = b & ~lits
            if rest:
                core.append(rest)
            else:
                core.extend(mask_bits(b))
        return core


def derives(
    p: Program, delta: Hypothesis, a, engine: Engine = Engine.CANONICAL
) -> bool:
    """True iff delta supports the positive disjunction a: some support-set
    member equals a plus atoms cancelled by delta's literal assumptions."""
    lits = atom_mask(delta.literal_assumptions)
    return _Session(p, engine).derives(lits, atom_mask(a))


def cons(p: Program, delta: Hypothesis, engine: Engine = Engine.CANONICAL) -> frozenset:
    """Canonical core of everything delta supports."""
    return canonical_sets(_Session(p, engine).cons(atom_mask(delta.literal_assumptions)))


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
) -> bool:
    """True iff the assumption "not atom" is admissible with respect to delta:
    every attacker deriving the atom is superseded or counterattacked."""
    lits = atom_mask(delta.literal_assumptions)
    return not _Session(p, engine).armed(lits) >> atom & 1


def wfdh(p: Program, engine: Engine = Engine.CANONICAL) -> Hypothesis:
    """Least fixpoint of the admissibility operator (literal core)."""
    return Hypothesis(mask_atoms(_Session(p, engine).wfdh_literals()))


def wfds(p: Program, engine: Engine = Engine.CANONICAL) -> ModelState:
    """The well-founded state: admissible assumptions plus what they support."""
    session = _Session(p, engine)
    lits = session.wfdh_literals()
    return ModelState._of_masks(session.cons(lits), lits)
