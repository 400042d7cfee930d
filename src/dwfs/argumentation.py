"""Argumentation-based well-founded semantics: reducts, supporting
hypotheses under two derivation engines, the attack relation, admissibility,
and the well-founded hypothesis fixpoint.

Admissibility is decided fact-wise over the program's saturation into
conditional facts (the route memo, residual.route_program, which leaves
out the facts a unit fact supersedes under every hypothesis of the
iteration): every derivation of an atom flows through such a fact,
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

The canonical engine reads a hypothesis's support off the live facts its
round sweeps: under literals L, the live facts whose negative body lies
within L carry exactly the subset-minimal such heads. For literals that
meet the unit atoms, which only a caller of cons, derives, attacks or
admissible can ask about, it reads the saturation reduced by the unit
atoms outside the literals (residual.saturated_program with keep) instead,
which has the unreduced saturation's live facts there; those one-shot
calls keep no table and no saturation on the Program. The hypotheses of one
iteration only grow, so each reduct keeps the rules of the one before, and
the raw engine grows one fixpoint closure along that chain, built from the
program's mask triples (Program.masks), never its Rules. It leaves
tautologies (rules whose head meets their positive body) out of every
reduct, an elimination from Brass and Dix's transformation system: a
resolvent of a tautology contains the premise it resolved on the shared
atom, so the subset-minimal support members, and with them every state,
are unchanged.
"""

from __future__ import annotations

import enum
from functools import cached_property

from . import residual
from .core import (
    Hypothesis,
    ModelState,
    Program,
    RouteError,
    Rule,
    _Record,
    atom_mask,
    canonical_sets,
    mask_atoms,
    mask_bits,
)
from .fixpoint import _close, _Rounds


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


class AttackWitness(_Record):
    """Evidence for an attack; re-checking it against the same hypotheses
    succeeds. clause 1 targets a whole assumption, clause 2 a set of literal
    assumptions whose disjunction is derivable."""

    _fields = ("clause", "assumption_or_atoms", "derived")

    def __init__(self, clause: int, assumption_or_atoms: frozenset, derived: tuple):
        self._set(clause, assumption_or_atoms, derived)


def reduct(p: Program, delta: Hypothesis) -> Program:
    """Keep rules whose negative body is contained in delta's literal
    assumptions, dropping those bodies; the result is positive."""
    lits = delta.literal_assumptions
    return p.with_rules(
        Rule(r.head, r.pos_body) for r in p.rules if r.neg_body <= lits
    )


class _Session:
    """Support sets over the program's saturation (the route memo, kept on
    the Program, see residual.route_program), one structure read per engine.

    Literal sets and support sets are atom masks (core.atom_mask), decoded
    to atom sets only at the API edge (cons, attack witnesses, the wfds
    state). The canonical engine reads a support set off the saturation's
    live facts for the literals (live), the table its admissibility round
    sweeps. A route session keeps its tables on the memo (residual.live_in),
    where every route reads them; a session of a one-shot API call (keep
    false) keeps them to itself. The raw engine grows one closure of the
    fixpoint kernel (fixpoint._close) over the reduct's rule masks,
    tautologies left out (reduct_rules); a reduct is named by the indices
    of the distinct positive rules it keeps, a new one adds the rules it
    newly keeps, and one that drops a kept rule starts the closure again.
    """

    def __init__(self, program: Program, engine: Engine, keep: bool = True):
        self.program = program
        self.engine = engine
        self._keep = keep
        self._own: dict = {}  # lits -> live facts not kept on the memo
        self._rounds = _Rounds()
        self._closure: set = set()
        self._kept: frozenset = frozenset()  # the closure's positive rules
        self._members: tuple = ()  # the closure, as of its last growth

    def support(self, lits: int):
        if self.engine is Engine.CANONICAL:
            # The reduct's least model state: a live fact whose negative
            # body lies within lits has a subset-minimal head among those
            # facts' heads, and each such head has a live fact.
            return {h for h, n in self.live(lits) if not n & ~lits}
        positive, rules = self.reduct_rules
        kept = frozenset(i for i, n in rules if not n & ~lits)
        if kept != self._kept:
            if not kept >= self._kept:
                self._rounds, self._closure, self._kept = _Rounds(), set(), frozenset()
            new = [positive[i] for i in sorted(kept - self._kept)]
            self._members = tuple(_close(self._rounds, self._closure, new))
            self._kept = kept
        return self._members

    @cached_property
    def reduct_rules(self) -> tuple[list, list]:
        """The program's distinct positive parts as (head, body) mask pairs,
        and per rule the index of its positive part with its negative body
        mask. Tautologies are left out: a resolvent of one contains the
        premise it resolved on the shared atom, so they add only
        non-minimal members to every fixpoint."""
        index: dict[tuple, int] = {}
        rules = []
        for head, pos, neg in self.program.masks:
            if head & pos:  # a tautology
                continue
            i = index.setdefault((head, pos), len(index))
            rules.append((i, neg))
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
    def memo(self) -> residual.Saturation:
        """The route memo (residual.route_program)."""
        return residual.route_program(self.program)

    def live(self, lits: int) -> frozenset:
        """The saturation's live fact pairs under the literals lits, off the
        route memo unless lits meets its unit atoms: the route memo has the
        unreduced saturation's live facts under every other literal set
        (residual.route_program). For literals that meet them, which no
        route asks about, off the saturation reduced by the unit atoms
        outside lits (residual.saturated_program with keep), kept nowhere;
        a one-shot session asks about one literal set, so it saturates once."""
        q = self.memo
        kept = lits & q.units
        if self._keep and not kept:
            return residual.live_in(q, lits)
        got = self._own.get(lits)
        if got is None:
            if kept:
                q = residual.saturated_program(self.program, keep=kept)
            got = self._own[lits] = residual._live_facts(q, lits)
        return got

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
        for head, neg in self.live(delta_lits):
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
    return _Session(p, engine, keep=False).derives(lits, atom_mask(a))


def cons(p: Program, delta: Hypothesis, engine: Engine = Engine.CANONICAL) -> frozenset:
    """Canonical core of everything delta supports."""
    session = _Session(p, engine, keep=False)
    return canonical_sets(session.cons(atom_mask(delta.literal_assumptions)))


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
    return _Session(p, engine, keep=False).attack_witness(delta, target)


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
    return not _Session(p, engine, keep=False).armed(lits) >> atom & 1


def wfdh(p: Program, engine: Engine = Engine.CANONICAL) -> Hypothesis:
    """Least fixpoint of the admissibility operator (literal core)."""
    return Hypothesis(mask_atoms(_Session(p, engine).wfdh_literals()))


def wfds(p: Program, engine: Engine = Engine.CANONICAL) -> ModelState:
    """The well-founded state: admissible assumptions plus what they support."""
    session = _Session(p, engine)
    lits = session.wfdh_literals()
    return ModelState._of_masks(session.cons(lits), lits)
