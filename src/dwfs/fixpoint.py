"""Least model state of positive programs: the hyperresolution consequence
operator, its accumulated fixpoint, canonical form, and a truth-table
entailment oracle for cross-checking.

Both the operator and its fixpoint run on int atom masks (see
core.atom_mask): a rule is its head mask and its body mask, a clause is a
mask, and each body atom is a slot. A slot resolving atom b on premise d
contributes d minus b minus the rule's head, so premises that differ only
there merge before any join, and the slots are joined one at a time into a
set. The fixpoint kernel, _lfp_masks, is semi-naive and keeps each rule
slot's contributions from earlier rounds as a running set, so a round
touches only its new clauses.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    CapacityError,
    Program,
    atom_mask,
    canonicalize,
    mask_atoms,
    mask_bits,
    _fset,
)

DEFAULT_ORACLE_BOUND = 20


def _require_positive(p: Program):
    if any(r.neg_body for r in p.rules):
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


def _index(clauses: Iterable[int]) -> dict[int, list[int]]:
    """The clauses under the one-atom mask of each of their atoms."""
    by_atom: dict[int, list[int]] = {}
    for d in clauses:
        for b in mask_bits(d):
            by_atom.setdefault(b, []).append(d)
    return by_atom


def tps_step(p: Program, j: Iterable[frozenset]) -> frozenset:
    """One hyperresolution round over the premise set j.

    For each rule A' <- b1,...,bm and premises Di in j with bi in Di, derive
    A' joined with every Di minus its resolved atom (repetitions merge).
    Facts (m = 0) contribute their heads unconditionally. Runs the mask
    kernel with every slot drawing from j; tps_lfp runs the same kernel
    semi-naively, with the same sequence of accumulated sets as iterating
    cur | tps_step(p, cur).
    """
    _require_positive(p)
    by_atom = _index({atom_mask(d) for d in j})
    out: set[int] = set()
    for r in p.rules:
        head = r.head_mask
        slots = [_slot(by_atom.get(b, ()), b, head) for b in mask_bits(r.pos_mask)]
        out |= _join(head, slots)
    return frozenset(mask_atoms(d) for d in out)


def _lfp_masks(rules: Iterable[tuple[int, int]]) -> set:
    """The accumulated limit of the hyperresolution operator from the empty
    set, for rules given as (head mask, body mask) pairs: every clause mask
    derived, non-minimal members included.

    Semi-naive, with the same sequence of accumulated sets as iterating
    cur | tps_step(p, cur): a round derives only what joins at least one
    clause new in the previous round. Each round indexes its new clauses
    alone. Per rule, each body slot keeps as a running set what the clauses
    of earlier rounds contribute to it (Bancilhon and Ramakrishnan's
    semi-naive differential, kept per slot). Slot i draws the new
    contributions that no earlier clause makes, the slots before it the
    earlier contributions and the slots after it both, so every such join is
    made once, under the first slot that draws a new clause. A new
    contribution that an earlier clause already makes joins nothing the
    earlier rounds missed. After the round, each slot's new contributions
    join its running set.
    """
    rules = list(rules)
    known = {head for head, body in rules if not body}
    slots = [list(mask_bits(body)) for _, body in rules]
    older = [[set() for _ in body] for body in slots]
    fresh = list(known)
    while fresh:
        by_atom = _index(fresh)
        touched = 0  # the atoms of the new clauses
        for d in fresh:
            touched |= d
        derived: set[int] = set()
        for (head, body), body_atoms, old in zip(rules, slots, older):
            if not body & touched:
                continue
            new = [_slot(by_atom.get(b, ()), b, head) for b in body_atoms]
            for i, slot in enumerate(new):
                slot = slot - old[i]
                if slot:
                    later = [o | n for o, n in zip(old[i + 1 :], new[i + 1 :])]
                    derived |= _join(head, old[:i] + [slot] + later)
            for o, n in zip(old, new):
                o |= n
        fresh = [d for d in derived if d not in known]
        known.update(fresh)
    return known


def tps_lfp(p: Program) -> frozenset:
    """Accumulated limit of the hyperresolution operator from the empty set
    (the _lfp_masks kernel, read back as atom sets). Non-minimal members are
    kept."""
    _require_positive(p)
    return frozenset(
        mask_atoms(d) for d in _lfp_masks((r.head_mask, r.pos_mask) for r in p.rules)
    )


def least_model_state(p: Program) -> frozenset:
    """Canonical core of the least model state of a positive program."""
    return canonicalize(tps_lfp(p))


def entails_classical(p: Program, d, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Truth-table oracle: every assignment over the base satisfying all
    rules (as material implications) satisfies the positive disjunction d.

    Desk-scale only; raises CapacityError beyond `bound` atoms.
    """
    _require_positive(p)
    d = _fset(d)
    n = len(p.atom_names)
    if n > bound:
        raise CapacityError(f"entailment oracle limited to {bound} atoms, got {n}")

    rules = [(atom_mask(r.pos_body), atom_mask(r.head)) for r in p.rules]
    dmask = atom_mask(d)
    for bits in range(1 << n):
        if any((bits & pm) == pm and not (bits & hm) for pm, hm in rules):
            continue
        if not (bits & dmask):
            return False
    return True
