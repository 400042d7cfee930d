"""Argumentation-based well-founded semantics: reducts, supporting
hypotheses under two derivation engines, the attack relation, admissibility,
and the well-founded hypothesis fixpoint.

Admissibility is decided fact-wise over the program's saturation into
conditional facts (the route memo, residual.route_program, a record of fact
pairs that is not a Program, which leaves out the facts a unit fact
supersedes under every hypothesis of the iteration): every derivation of an
atom flows through such a fact, so "not a" is admissible when every fact
with a in its head is disarmed. A fact is disarmed when a strictly stronger
fact (smaller head, conditions within the fact's own conditions plus
already-false atoms) supersedes it, or when the current hypothesis derives
a disjunction inside the assumptions an attacker would need: the fact's
negated atoms plus its other head atoms, minus what is already assumed
false. Disjunctive assumptions never help an attacker (derivation consumes
only literal assumptions), and attacking a smaller assumption set attacks
every superset, so this per-fact check covers all hypotheses. Each round of
the admissibility iteration decides every atom at once, in one sweep over
the facts that no stronger fact supersedes under the round's false atoms
(_armed). A round reads that table (residual.live_in) once: the canonical
engine's support members come off the same table, and the members of the
last round give the wfds state's core. The one-shot admissible runs the
same sweep.

The canonical engine reads a hypothesis's support off the live facts its
round sweeps: under literals L, the live facts whose negative body lies
within L carry exactly the subset-minimal such heads. For literals that
meet the unit atoms, which only a caller of cons, derives, attacks or
admissible can ask about, it reads the saturation reduced by the unit
atoms outside the literals (residual.saturated_program with keep) instead,
which has the unreduced saturation's live facts there; those one-shot
calls keep no table and no saturation on the Program.

The raw engine's support set is the reduct's whole fixpoint closure, which
derives and attacks read. Admissibility and cons need only its
subset-minimal members, so they read a held closure instead: the
hypotheses of one iteration only grow, so each reduct keeps the rules of
the one before, and the raw engine grows one closure along that chain,
pruned by forward subsumption (Brass and Dix's residual-program
computation, which residual._saturate runs on the whole program) and
capped like a saturation. Both closures are built from the program's mask
triples (Program.masks), never its Rules, and leave tautologies (rules
whose head meets their positive body) out of every reduct, an elimination
from Brass and Dix's transformation system: a resolvent of a tautology
contains the premise it resolved on the shared atom, so the subset-minimal
support members, and with them every state, are unchanged.
"""

from __future__ import annotations

import enum

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
from .fixpoint import _close, _lfp_masks, _Rounds


class AdmissibilityError(RouteError):
    """The admissibility iteration broke its invariant: a round dropped an
    assumption, or the rounds outnumbered the atoms."""


class Engine(enum.Enum):
    """Which support set backs derivation: the canonical least model state of
    the reduct, or the raw accumulated fixpoint of the reduct without its
    tautologies. The raw set keeps every other non-minimal member ("a. a |
    b." derives "a b"), but not those only a tautology derives ("a. a | b
    :- a." does not). derives and attacks read the whole raw set;
    admissibility and cons read only its subset-minimal members, so both
    engines give the same states (_Session.minimal_support)."""

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


class _filled_on_first_read:
    """A method read as a plain attribute: the first read of an instance
    calls it and stores its value in the instance's __dict__, where every
    later read finds it without calling anything. functools.cached_property
    without its lock, which Python 3.10 and 3.11 take, class-wide, on every
    first read."""

    def __init__(self, fill):
        self.fill = fill
        self.__doc__ = fill.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fill.__name__] = self.fill(obj)
        return value


class _Session:
    """Support sets over the program's saturation (the route memo, kept on
    the Program, see residual.route_program), one structure read per engine.

    Literal sets and support sets are atom masks (core.atom_mask), decoded
    to atom sets only at the API edge (cons, attack witnesses, the wfds
    state). The canonical engine reads a support set off the saturation's
    live facts for the literals (live), the table its admissibility round
    sweeps; each round of the iteration (fixpoint) reads that table once,
    for its support members and its sweep. A route session keeps its
    tables on the memo (residual.live_in), where every route reads them; a
    session of a one-shot API call (keep false) keeps them to itself. The
    raw engine reads two closures of the fixpoint kernel (fixpoint._close)
    over the reduct's rule masks, tautologies left out (reduct_rules), each
    capped at residual.DEFAULT_LFT_CAP clauses: support, the whole closure
    of one reduct, kept per reduct, for derives and attack witnesses; and
    minimal_support, one held closure pruned by subsumption and grown along
    the chain of reducts, for the admissibility sweep and cons. Only a raw
    session holds that closure's state.
    """

    def __init__(self, program: Program, engine: Engine, keep: bool = True):
        self.program = program
        self.engine = engine
        self._keep = keep
        self._own: dict = {}  # lits -> live facts not kept on the memo
        if engine is Engine.RAW:
            self._raw: dict = {}  # reduct -> its raw closure
            self._rounds = _Rounds()
            self._held: set = set()
            self._index: dict = {}  # the held clauses by lowest atom
            self._kept: frozenset = frozenset()  # the held closure's positive rules
            self._members: tuple = ()  # the held closure, as of its last growth

    def _reduct(self, lits: int) -> frozenset:
        """The reduct under lits, named by the indices of the distinct
        positive parts it keeps (reduct_rules)."""
        return frozenset(i for i, n in self.reduct_rules[1] if not n & ~lits)

    def support(self, lits: int):
        """The engine's support set for the literals lits: under the
        canonical engine the reduct's least model state, under the raw one
        the reduct's whole closure, kept per reduct."""
        if self.engine is Engine.CANONICAL:
            return _heads_within(self.live(lits), lits)
        kept = self._reduct(lits)
        got = self._raw.get(kept)
        if got is None:
            positive = self.reduct_rules[0]
            rules = [positive[i] for i in sorted(kept)]
            got = self._raw[kept] = tuple(_lfp_masks(rules, residual.DEFAULT_LFT_CAP))
        return got

    def minimal_support(self, lits: int):
        """A subset of support(lits) with its subset-minimal members. Under
        the canonical engine, support(lits) itself. Under the raw one, the
        held closure: grown along the chain of reducts (a new reduct adds
        the positive parts it newly keeps, one that drops a kept part starts
        again), pruned by subsumption (fixpoint._close with an index) and
        capped at residual.DEFAULT_LFT_CAP held clauses; or support(lits)
        when a held member lies within lits, so that the admissibility sweep
        and cons are exact (see _armed)."""
        if self.engine is Engine.CANONICAL:
            return self.support(lits)
        kept = self._reduct(lits)
        if kept != self._kept:
            if not kept >= self._kept:
                self._rounds, self._held, self._index = _Rounds(), set(), {}
                self._kept = frozenset()
            positive = self.reduct_rules[0]
            new = [positive[i] for i in sorted(kept - self._kept)]
            _close(self._rounds, self._held, new, residual.DEFAULT_LFT_CAP, self._index)
            self._members = tuple(self._held)
            self._kept = kept
        for b in self._members:
            if not b & ~lits:
                return self.support(lits)
        return self._members

    @_filled_on_first_read
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

    @_filled_on_first_read
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

    def members(self, live: frozenset, lits: int):
        """minimal_support(lits), given live, the live facts for lits: the
        canonical engine reads its support off them, not off a second
        read of the table."""
        if self.engine is Engine.CANONICAL:
            return _heads_within(live, lits)
        return self.minimal_support(lits)

    def armed(self, delta_lits: int) -> int:
        """The atoms a whose assumption "not a" is not admissible with
        respect to delta_lits (_armed), for a one-shot admissible call."""
        # The live facts first: a route memo that raises CapacityError
        # (residual.route_program) does so before a raw closure grows.
        live = self.live(delta_lits)
        return _armed(live, self.members(live, delta_lits), delta_lits)

    def fixpoint(self) -> tuple[int, object]:
        """The admissibility iteration's least fixpoint, as a literal mask,
        with the support members of its last round: each round reads its
        live table once, for its support members and its sweep (_armed)."""
        n = len(self.program.atom_names)
        full = (1 << n) - 1
        delta = 0
        for _ in range(n + 2):
            live = self.live(delta)
            members = self.members(live, delta)
            nxt = full & ~_armed(live, members, delta)
            if delta & ~nxt:
                raise AdmissibilityError("admissibility iteration lost assumptions")
            if nxt == delta:
                return delta, members
            delta = nxt
        raise AdmissibilityError("admissibility iteration exceeded the atom-count bound")

    def wfdh_literals(self) -> int:
        return self.fixpoint()[0]

    def cons(self, lits: int) -> list:
        """Atom masks whose minimal ones are the canonical core of all lits
        supports (_cons)."""
        return _cons(self.minimal_support(lits), lits)


def _heads_within(live: frozenset, lits: int) -> set:
    """The canonical engine's support set for the literals lits, read off
    live, the live facts for lits: the reduct's least model state. A live
    fact whose negative body lies within lits has a subset-minimal head
    among those facts' heads, and each such head has a live fact."""
    return {h for h, n in live if not n & ~lits}


def _armed(live: frozenset, members, lits: int) -> int:
    """The atoms a whose assumption "not a" is not admissible with respect
    to the literals lits, in one sweep over live, the saturation's live
    facts for lits, given members, the support members for lits
    (_Session.members); a superseded fact arms nothing.

    A live fact arms each head atom a that it turns into a derivation no
    hypothesis can answer. An attacker must assume false t = (neg | head)
    minus lits, less a itself unless the fact negates a, and the fact is
    disarmed for a when some remainder (a nonempty member minus lits) lies
    within that target. The remainders, deduplicated, are indexed under the
    one-atom mask of their lowest atom, and those within t are read off the
    index under those of t's atoms that it holds. With none, the fact arms
    its whole head; otherwise it arms the head atoms outside neg that every
    such remainder contains. Both tests depend only on the subset-minimal
    remainders: a non-minimal one within t contains a minimal one within
    t, so it changes neither the test for none nor the intersection. So
    members need only hold the subset-minimal members of the engine's
    support set (_Session.minimal_support), and the sweep arms what the
    whole set gives: a non-minimal member contains a minimal one, whose
    remainder lies within its own and is empty only when that member lies
    within lits; then minimal_support is the whole support set.
    """
    remainders: dict[int, list] = {}
    lows = 0  # the atoms under which remainders holds a mask
    for rest in {b & ~lits for b in members}:
        if rest:
            low = rest & -rest
            lows |= low
            bucket = remainders.get(low)
            if bucket is None:
                remainders[low] = [rest]
            else:
                bucket.append(rest)
    armed = 0
    for head, neg in live:
        t = (neg | head) & ~lits
        m = t & lows
        common = -1  # the atoms of every remainder within t; -1 while none is
        while m:
            a = m & -m
            m ^= a
            for rest in remainders[a]:
                if not rest & ~t:
                    common &= rest
        armed |= head if common < 0 else head & ~neg & common
    return armed


def _cons(members, lits: int) -> list:
    """Atom masks whose minimal ones are the canonical core of all the
    literals lits support, given members, the support members for lits
    (_Session.members): each member minus lits, or else each of its atoms.
    Exact for the subset-minimal members alone: an atom of a member within
    lits lies outside every remainder, and then members is the whole
    support set (_Session.minimal_support)."""
    core = []
    for b in members:
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
    lits, members = _Session(p, engine).fixpoint()
    return ModelState._of_masks(_cons(members, lits), lits)
