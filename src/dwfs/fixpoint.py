"""Least model state of positive programs: the hyperresolution consequence
operator, its accumulated fixpoint and its canonical form.

Both the operator and its fixpoint run on int atom masks (see
core.atom_mask): a rule is its head mask and its body mask, a clause is a
mask, and each body atom is a slot. A slot resolving atom b on premise d
contributes d minus b minus the rule's head, so premises that differ only
there merge before any join, and the slots are joined one at a time into a
set. The fixpoint kernel, _lfp_masks, is semi-naive and keeps each rule
slot's contributions from earlier rounds as a running set, so a round
touches only its new clauses. It can also resume from the fixpoint of a
prefix of its rules, joining only the rules after the prefix over it: the
raw engine of the argumentation route does so along a chain of growing
reducts. The fixpoint stays raw: non-minimal members are kept.
"""

from __future__ import annotations

from typing import Iterable

from .core import Program, atom_mask, canonicalize, mask_atoms, mask_bits


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


def _index(clauses: Iterable[int], atoms: int = -1) -> dict[int, list[int]]:
    """The clauses under the one-atom mask of each of their atoms in the
    mask atoms (every atom by default)."""
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


def _lfp_masks(
    rules: Iterable[tuple[int, int]], start: Iterable[int] = (), closed: int = 0
) -> set:
    """The accumulated limit of the hyperresolution operator from the empty
    set, for rules given as (head mask, body mask) pairs: every clause mask
    derived, non-minimal members included. start, when given, is that limit
    for the first `closed` rules, and the computation continues from it.

    Semi-naive, with the same limit as iterating cur | tps_step(p, cur): a
    round derives only what joins at least one clause new in the previous
    round. Per rule, each body slot keeps as a running set what the clauses
    of earlier rounds contribute to it (Bancilhon and Ramakrishnan's
    semi-naive differential, kept per slot). The running sets start as the
    contributions of start, built in one pass; start is closed under the
    first `closed` rules, so only the remaining rules are joined over it,
    and their new clauses open the first round. Each round indexes its new
    clauses alone, under body atoms only. Slot i draws the new
    contributions that no earlier clause makes, the slots before it the
    earlier contributions and the slots after it both, so every such join
    is made once, under the first slot that draws a new clause. A new
    contribution that an earlier clause already makes joins nothing the
    earlier rounds missed. The slots are joined last first, and each one's
    new contributions join its running set right after its own join.
    """
    rules = list(rules)
    known = set(start)
    slots = [list(mask_bits(body)) for _, body in rules]
    bodies = 0
    for _, body in rules:
        bodies |= body
    by_atom = _index(known, bodies)
    older = [
        [_slot(by_atom.get(b, ()), b, head) for b in body_atoms]
        for (head, _), body_atoms in zip(rules, slots)
    ]
    derived: set[int] = set()
    for (head, _), old in zip(rules[closed:], older[closed:]):
        derived |= _join(head, old)
    fresh = [d for d in derived if d not in known]
    known.update(fresh)
    while fresh:
        by_atom = _index(fresh, bodies)
        touched = 0  # the atoms of the new clauses
        for d in fresh:
            touched |= d
        derived = set()
        for (head, body), body_atoms, old in zip(rules, slots, older):
            if not body & touched:
                continue
            for i in range(len(body_atoms) - 1, -1, -1):
                b = body_atoms[i]
                premises = by_atom.get(b)
                if not premises:
                    continue
                new = _slot(premises, b, head) - old[i]
                if new:
                    derived |= _join(head, old[:i] + [new] + old[i + 1 :])
                    old[i] |= new
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

