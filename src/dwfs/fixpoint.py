"""Least model state of positive programs: the hyperresolution consequence
operator, its accumulated fixpoint, canonical form, and a truth-table
entailment oracle for cross-checking."""

from __future__ import annotations

import itertools
from typing import Iterable

from .core import CapacityError, Program, atom_mask, canonicalize, env_bound, _fset

DEFAULT_ORACLE_BOUND = 20


def _require_positive(p: Program):
    if any(r.neg_body for r in p.rules):
        raise ValueError("operation requires a positive program (no default negation)")


def tps_step(p: Program, j: Iterable[frozenset]) -> frozenset:
    """One hyperresolution round over the premise set j.

    For each rule A' <- b1,...,bm and premises Di in j with bi in Di, derive
    A' joined with every Di minus its resolved atom (repetitions merge).
    Facts (m = 0) contribute their heads unconditionally.
    """
    _require_positive(p)
    j = frozenset(_fset(d) for d in j)
    by_atom: dict[int, list[frozenset]] = {}
    for d in j:
        for b in d:
            by_atom.setdefault(b, []).append(d)
    out = set()
    for r in p.rules:
        slots = []
        for b in sorted(r.pos_body):
            cands = by_atom.get(b)
            if not cands:
                slots = None
                break
            slots.append((b, cands))
        if slots is None:
            continue
        for combo in itertools.product(*(c for _, c in slots)):
            acc = set(r.head)
            for (b, _), d in zip(slots, combo):
                acc |= d - {b}
            out.add(frozenset(acc))
    return frozenset(out)


def tps_lfp(p: Program) -> frozenset:
    """Accumulated limit of the hyperresolution operator from the empty set."""
    cur: frozenset = frozenset()
    while True:
        nxt = cur | tps_step(p, cur)
        if nxt == cur:
            return cur
        cur = nxt


def least_model_state(p: Program) -> frozenset:
    """Canonical core of the least model state of a positive program."""
    return canonicalize(tps_lfp(p))


def entails_classical(p: Program, d, bound: int | None = None) -> bool:
    """Truth-table oracle: every assignment over the base satisfying all
    rules (as material implications) satisfies the positive disjunction d.

    Desk-scale only; raises CapacityError beyond the configured bound.
    """
    _require_positive(p)
    d = _fset(d)
    n = len(p.atom_names)
    limit = env_bound(bound, DEFAULT_ORACLE_BOUND)
    if n > limit:
        raise CapacityError(f"entailment oracle limited to {limit} atoms, got {n}")

    rules = [(atom_mask(r.pos_body), atom_mask(r.head)) for r in p.rules]
    dmask = atom_mask(d)
    for bits in range(1 << n):
        if any((bits & pm) == pm and not (bits & hm) for pm, hm in rules):
            continue
        if not (bits & dmask):
            return False
    return True
