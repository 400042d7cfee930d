"""Least model state of positive programs: the hyperresolution consequence
operator, its accumulated fixpoint, canonical form, and a truth-table
entailment oracle for cross-checking.

Both the operator and its fixpoint run on one kernel over int atom masks
(see core.atom_mask): a rule is its head mask and its sorted body atoms, a
clause is a mask. A body slot resolving atom b on premise d contributes
d minus b minus the rule's head, so premises that differ only there merge
before any join, and the slots are joined one at a time into a set.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from .core import CapacityError, Program, atom_mask, canonicalize, mask_atoms, _fset

DEFAULT_ORACLE_BOUND = 20


def _require_positive(p: Program):
    if any(r.neg_body for r in p.rules):
        raise ValueError("operation requires a positive program (no default negation)")


def _mask_rules(p: Program) -> list:
    return [(atom_mask(r.head), sorted(r.pos_body)) for r in p.rules]


def _slot(premises: Iterable[int], b: int, head: int) -> set:
    """What the premises contribute to a body slot resolving atom b."""
    drop = ~(1 << b) & ~head
    return {d & drop for d in premises}


def _join(head: int, slots: list) -> set:
    """head joined with one member of each slot, every way."""
    acc = {head}
    for cands in slots:
        acc = {a | c for a in acc for c in cands}
    return acc


def _index(clauses: Iterable[int], by_atom: dict) -> None:
    for d in clauses:
        for b in mask_atoms(d):
            by_atom.setdefault(b, []).append(d)


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
    by_atom: dict[int, list[int]] = {}
    _index({atom_mask(d) for d in j}, by_atom)
    out: set[int] = set()
    for head, body in _mask_rules(p):
        out |= _join(head, [_slot(by_atom.get(b, ()), b, head) for b in body])
    return frozenset(mask_atoms(d) for d in out)


def tps_lfp(p: Program) -> frozenset:
    """Accumulated limit of the hyperresolution operator from the empty set.

    Semi-naive, on masks, with the same sequence of accumulated sets as
    iterating cur | tps_step(p, cur): a round derives only what joins at
    least one clause new in the previous round. Per rule and body slot i,
    slot i draws the clauses that were new, the slots before it the older
    ones and the slots after it all of them, so every such join is made
    once, under the first slot that draws a new clause. One atom-to-clauses
    index grows by appending; a per-atom length marker splits older from
    new. Non-minimal members are kept.
    """
    _require_positive(p)
    rules = _mask_rules(p)
    known = {head for head, body in rules if not body}
    fresh = list(known)
    by_atom: dict[int, list[int]] = {}
    older: dict[int, int] = {}
    while fresh:
        for b, clauses in by_atom.items():
            older[b] = len(clauses)
        _index(fresh, by_atom)
        derived: set[int] = set()
        for head, body in rules:
            if not body or any(b not in by_atom for b in body):
                continue
            if all(older.get(b, 0) == len(by_atom[b]) for b in body):
                continue
            old, new = [], []
            for b in body:
                clauses, k = by_atom[b], older.get(b, 0)
                old.append(_slot(islice(clauses, k), b, head))
                new.append(_slot(islice(clauses, k, None), b, head))
            for i in range(len(body)):
                # A new clause whose contribution an older one already makes
                # joins nothing the previous rounds missed.
                slot = new[i] - old[i]
                if slot:
                    later = [o | n for o, n in zip(old[i + 1 :], new[i + 1 :])]
                    derived |= _join(head, old[:i] + [slot] + later)
        fresh = [d for d in derived if d not in known]
        known.update(fresh)
    return frozenset(mask_atoms(d) for d in known)


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
