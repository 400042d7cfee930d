"""Unfounded sets over model states, the greatest unfounded set, and the
well-founded operator they induce.

An atom set X is unfounded with respect to a state when every rule with a
head atom in X is blocked. A rule is blocked when its body is false, when
its positive body circles back into X, when a conditional fact with a
strictly smaller head holds under the rule's own negated atoms plus the
already-false atoms (the rule then never yields a minimal derivation), or
when the state satisfies a disjunction inside what an attacker relying on
the rule must assume false: the rule's negated atoms and its head atoms
outside X.

The greatest unfounded set is the union of all unfounded sets when that
union is itself unfounded; otherwise none exists, which is a value here,
not a fault. The well-founded fixpoint runs over the program's saturation
into conditional facts: positive body atoms carry support information that
only the saturated form exposes rule-locally.
"""

from __future__ import annotations

from . import residual
from .core import (
    ModelState,
    Program,
    Truth,
    atom_mask,
    body_status,
    canonicalize,
    env_bound,
)

DEFAULT_UNFOUNDED_ORACLE_BOUND = 14


class NoGreatest:
    """Sentinel: no greatest unfounded set exists for the given state."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NO_GREATEST"


NO_GREATEST = NoGreatest()


class NoGreatestUnfoundedSetError(RuntimeError):
    """The well-founded operator was applied where no greatest unfounded set
    exists."""


def _members(m: int) -> list:
    """The atom ids in the mask m, ascending."""
    return [a for a in range(m.bit_length()) if m >> a & 1]


def _rule_rows(p: Program, s: ModelState) -> list:
    """Per rule: head mask, positive-body mask, a flag for being blocked
    whatever X is (false body, or a superseded conditional fact), and witness
    masks; a witness blocks the rule for X iff its mask is disjoint from X."""
    dropped = residual.superseded(
        (r for r in p.rules if r.is_conditional_fact), s.false_atoms
    )
    rows = []
    for r in p.rules:
        blocked = body_status(s, r) is Truth.FALSE or r in dropped
        enabling = r.neg_body | s.false_atoms
        scope = r.head | enabling
        free = r.head - enabling
        witnesses = [
            atom_mask(d & free)
            for d in s.pos
            if d <= scope and (d & (r.head | r.neg_body))
        ]
        rows.append((atom_mask(r.head), atom_mask(r.pos_body), blocked, witnesses))
    return rows


def _unfounded(rows: list, x: int) -> bool:
    """True iff every row whose head meets the atom mask x is blocked for x."""
    return all(
        blocked or pm & x or not all(w & x for w in witnesses)
        for hm, pm, blocked, witnesses in rows
        if hm & x
    )


def is_unfounded(p: Program, s: ModelState, x) -> bool:
    """True iff every rule whose head meets x is blocked with respect to s."""
    return _unfounded(_rule_rows(p, s), atom_mask(x))


def _union_of_unfounded(rows: list, n: int) -> int:
    """Union of all unfounded sets, by exhaustive subset enumeration."""
    union = 0
    for m in range(1, 1 << n):
        if m | union != union and _unfounded(rows, m):
            union |= m
    return union


def _eliminate(p: Program, s: ModelState, rows: list) -> int:
    """Heuristic for large bases: shrink a candidate set until every member
    is blocked everywhere, then greedily absorb single atoms."""
    n = len(p.atom_names)
    by_head = [[row for row in rows if row[0] >> a & 1] for a in range(n)]
    cand = atom_mask(p.base - s.unit_true_atoms())
    changed = True
    while changed:
        changed = False
        for a in _members(cand):
            if not _unfounded(by_head[a], cand):
                cand &= ~(1 << a)
                changed = True
    grown = True
    while grown:
        grown = False
        for a in _members(((1 << n) - 1) & ~cand):
            if _unfounded(rows, cand | 1 << a):
                cand |= 1 << a
                grown = True
    return cand


def greatest_unfounded(p: Program, s: ModelState, bound: int | None = None):
    """The unfounded set containing every unfounded set, or NO_GREATEST.

    Exhaustive and exact up to the base bound (`bound`, else
    DWFS_ORACLE_BOUND, else 14 atoms). Beyond it the elimination heuristic
    answers; its result is checked to be unfounded, not to be the greatest,
    and a failed check raises RuntimeError.
    """
    rows = _rule_rows(p, s)
    n = len(p.atom_names)
    if n <= env_bound(bound, DEFAULT_UNFOUNDED_ORACLE_BOUND):
        union = _union_of_unfounded(rows, n)
        if _unfounded(rows, union):
            return frozenset(_members(union))
        return NO_GREATEST
    guess = _eliminate(p, s, rows)
    if not _unfounded(rows, guess):
        raise RuntimeError(
            "elimination produced a non-unfounded candidate; base too large "
            "for the exhaustive check"
        )
    return frozenset(_members(guess))


def t_operator(p: Program, s: ModelState) -> frozenset:
    """Immediate consequences: for every rule with a true body, the head
    minus already-false atoms, canonically."""
    out = []
    for r in p.rules:
        if body_status(s, r) is Truth.TRUE:
            rest = r.head - s.false_atoms
            if rest:
                out.append(rest)
    return canonicalize(out)


def w_operator(p: Program, s: ModelState, bound: int | None = None) -> ModelState:
    """One well-founded step: add immediate consequences and negate the
    greatest unfounded set, accumulating the given state."""
    u = greatest_unfounded(p, s, bound)
    if isinstance(u, NoGreatest):
        raise NoGreatestUnfoundedSetError(
            "well-founded operator undefined: no greatest unfounded set"
        )
    return ModelState(s.pos | t_operator(p, s), s.false_atoms | u)


def uwfs(p: Program, bound: int | None = None, cap: int | None = None) -> ModelState:
    """Least fixpoint of the well-founded operator, computed over the
    saturation of the program into conditional facts."""
    saturated = residual.as_program(p, residual.lft(p, cap))
    state = ModelState()
    while True:
        nxt = w_operator(saturated, state, bound)
        if nxt == state:
            return state
        state = nxt
