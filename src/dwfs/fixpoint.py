"""Least model state of positive programs: the hyperresolution consequence
operator, its accumulated fixpoint and its canonical form.

Both the operator and its fixpoint run on int atom masks (see
core.atom_mask): a rule is its head mask and its body mask, a clause is a
mask, and each body atom is a slot. A slot resolving atom b on premise d
contributes d minus b minus the rule's head, so premises that differ only
there merge before any join, and the slots are joined one at a time into a
set. The semi-naive rounds (_Rounds) keep each rule slot's contributions
from earlier rounds as a running set, so a round touches only its new
clauses. _close grows a closure by more rules, keeping every clause the
rounds derive: the raw engine of the argumentation route grows one closure
along its chain of growing reducts, and _lfp_masks closes a rule set from
nothing. residual.lft runs it with a rule's negative body in the bits above
the atom table; residual._saturate runs the rounds pruned by subsumption.
Every function here reads a program's mask triples (Program.masks), never
its Rules.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import CapacityError, Program, atom_mask, canonicalize, mask_atoms, mask_bits


def _require_positive(p: Program):
    if any(neg for _, _, neg in p.masks):
        raise ValueError("operation requires a positive program (no default negation)")


def _slot(premises: Iterable[int], b: int, head: int) -> set:
    """What the premises contribute to a body slot resolving the atom whose
    one-atom mask is b."""
    drop = ~(b | head)
    return {d & drop for d in premises}


def _join(head: int, slots: list) -> set:
    """head joined with one member of each slot, every way."""
    acc = {head}
    for cands in slots:
        acc = {a | c for a in acc for c in cands}
    return acc


def _join_capped(out: set, head: int, slots: list, cap: int, held: int):
    """out |= _join(head, slots), slots nonempty, with CapacityError as soon
    as held plus the clauses in out exceed cap: the last slot is joined to
    one partial join at a time and the cap tested after each, so a join
    stops within one slot's size of the cap."""
    last = slots[-1]
    for a in _join(head, slots[:-1]):
        out |= {a | c for c in last}
        if held + len(out) > cap:
            raise CapacityError(f"saturation exceeded {cap} stored rules")


def _index(clauses: Iterable[int], atoms: int) -> dict[int, list[int]]:
    """The clauses under the one-atom mask of each of their atoms in the
    mask atoms."""
    by_atom: dict[int, list[int]] = {}
    for d in clauses:
        rest = d & atoms
        while rest:  # mask_bits inlined: the raw engine indexes every clause
            b = rest & -rest
            rest ^= b
            by_atom.setdefault(b, []).append(d)
    return by_atom


def tps_step(p: Program, j: Iterable[frozenset]) -> frozenset:
    """One hyperresolution round over the premise set j.

    For each rule A' <- b1,...,bm and premises Di in j with bi in Di, derive
    A' joined with every Di minus its resolved atom (repetitions merge).
    Facts (m = 0) contribute their heads unconditionally. Joins the slots
    that _Rounds.add seeds from j, as _close does first; tps_lfp runs the
    same kernel semi-naively, with the same sequence of accumulated sets as
    iterating cur | tps_step(p, cur).
    """
    _require_positive(p)
    rules = [(head, pos) for head, pos, _ in p.masks]
    out: set[int] = set()
    for (head, _), slots in zip(rules, _Rounds().add(rules, {atom_mask(d) for d in j})):
        out |= _join(head, slots)
    return frozenset(mask_atoms(d) for d in out)


class _Rounds:
    """The semi-naive rounds of the hyperresolution operator over rules
    given as (head mask, body mask) pairs, taken on by add. Per rule, each
    body slot keeps as a running set what the clauses of earlier rounds
    contribute to it (Bancilhon and Ramakrishnan's semi-naive differential,
    kept per slot)."""

    def __init__(self):
        self.rules, self.slots, self.older, self.bodies = [], [], [], 0

    def add(self, rules: list, known: Iterable[int]) -> list:
        """Take on rules, each body slot starting from what the clauses in
        known contribute to it; returns those new slots, per rule."""
        bodies = 0
        for _, body in rules:
            bodies |= body
        self.bodies |= bodies
        by_atom = _index(known, bodies)
        added = []
        for head, body in rules:
            body_atoms = list(mask_bits(body))
            self.slots.append(body_atoms)
            added.append([_slot(by_atom.get(b, ()), b, head) for b in body_atoms])
        self.rules += rules
        self.older += added
        return added

    def derive(self, fresh: list, cap: int | None = None, held: int = 0) -> set:
        """What one round derives from the new clauses fresh: every join
        that draws at least one contribution of fresh that no earlier clause
        makes, each made once. Indexes fresh alone, under body atoms only.
        Slot i draws the new contributions, the slots before it the earlier
        ones and the slots after it both, so each join is made under the
        first slot that draws a new clause; a new contribution that an
        earlier clause already makes joins nothing earlier rounds missed.
        The slots are joined last first, and each one's new contributions
        join its running set right after its own join. A one-slot rule's
        join is the head with each new contribution, and a join with
        another slot's running set empty is skipped. With a cap,
        CapacityError as soon as held plus the clauses derived exceed it,
        tested within each join of two or more slots (_join_capped); a
        one-slot join adds at most one clause per clause of fresh, which
        the cap already bounded.
        """
        by_atom = _index(fresh, self.bodies)
        touched = 0  # the atoms of the new clauses
        for d in fresh:
            touched |= d
        derived: set[int] = set()
        for (head, body), body_atoms, old in zip(self.rules, self.slots, self.older):
            if not body & touched:
                continue
            if len(body_atoms) == 1:  # fresh holds the body atom: body & touched
                new = _slot(by_atom[body], body, head) - old[0]
                if new:
                    derived |= {head | c for c in new}
                    if cap is not None and held + len(derived) > cap:
                        raise CapacityError(f"saturation exceeded {cap} stored rules")
                    old[0] |= new
                continue
            for i in range(len(body_atoms) - 1, -1, -1):
                b = body_atoms[i]
                premises = by_atom.get(b)
                if not premises:
                    continue
                new = _slot(premises, b, head) - old[i]
                if new:
                    slots = old[:i] + [new] + old[i + 1 :]
                    if all(slots):  # an empty running set joins nothing
                        if cap is None:
                            derived |= _join(head, slots)
                        else:
                            _join_capped(derived, head, slots, cap, held)
                    old[i] |= new
        return derived


def _close(
    rounds: _Rounds, known: set, rules: Iterable[tuple[int, int]], cap: int | None = None
) -> set:
    """Grow known, the accumulated limit of the hyperresolution operator
    for the rules of rounds, into the limit for those rules plus the given
    (head mask, body mask) pairs, and return it: every clause derived,
    non-minimal members included. Only the given rules are joined over
    known; their new clauses open the first round, and a round derives only
    what joins a clause new in the previous round (_Rounds). The limit is
    that of iterating cur | tps_step(p, cur). With a cap (and known empty),
    CapacityError exactly when the limit holds more than cap clauses,
    tested after each join of the given rules over known (known being
    empty, only their facts join anything) and within each join of a round
    (_Rounds.derive).
    """
    rules = list(rules)
    derived: set[int] = set()
    for (head, _), old in zip(rules, rounds.add(rules, known)):
        derived |= _join(head, old)
        if cap is not None and len(derived) > cap:
            raise CapacityError(f"saturation exceeded {cap} stored rules")
    fresh = [d for d in derived if d not in known]
    known.update(fresh)
    while fresh:
        if cap is not None and len(known) > cap:
            raise CapacityError(f"saturation exceeded {cap} stored rules")
        derived = rounds.derive(fresh, cap)
        fresh = [d for d in derived if d not in known]
        known.update(fresh)
    return known


def _lfp_masks(rules: Iterable[tuple[int, int]], cap: int | None = None) -> set:
    """The accumulated limit of the hyperresolution operator from the empty
    set, for rules given as (head mask, body mask) pairs (_close from
    nothing)."""
    return _close(_Rounds(), set(), rules, cap)


def tps_lfp(p: Program) -> frozenset:
    """Accumulated limit of the hyperresolution operator from the empty set
    (the _lfp_masks kernel, read back as atom sets). Non-minimal members are
    kept."""
    _require_positive(p)
    return frozenset(mask_atoms(d) for d in _lfp_masks((h, pos) for h, pos, _ in p.masks))


def least_model_state(p: Program) -> frozenset:
    """Canonical core of the least model state of a positive program."""
    return canonicalize(tps_lfp(p))

