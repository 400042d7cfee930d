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

On a program of conditional facts that union takes one test per atom, not
one per subset. With no positive body, a rule is blocked for X exactly when
it is blocked whatever X is (false body, or superseded) or the state
satisfies a disjunction inside its negated atoms, the false atoms and its
head atoms outside X. Neither stops holding when X shrinks, and a subset of
X meets the heads of fewer rules, so every subset of an unfounded set is
unfounded. The union of all unfounded sets is therefore the set of atoms a
with {a} unfounded, and one more test tells whether that union is itself
unfounded. The result is exact at every base size. Only programs that keep
positive bodies, on which the definition is also stated, fall back to
enumerating every subset: a desk-scale oracle with a capacity cap.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from . import residual
from .core import (
    CapacityError,
    ModelState,
    Program,
    RouteError,
    Truth,
    atom_mask,
    body_status,
    mask_atoms,
    minimal_masks,
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


class NoGreatestUnfoundedSetError(RouteError):
    """The well-founded operator was applied where no greatest unfounded set
    exists."""


def _rule_rows(p: Program, s: ModelState) -> list:
    """Per rule: head mask, positive-body mask, a flag for being blocked
    whatever X is (false body, or a superseded conditional fact), and witness
    masks; a witness blocks the rule for X iff its mask is disjoint from X.

    The superseded conditional facts come from p's supersession table for
    the state's false atoms (residual.superseded_in): on the saturated
    program that uwfs reads, it is the table wfds and dwfs_star read too.
    The state's false atoms and core members are encoded once. A conditional
    fact's body is false when a core member lies within its negated atoms
    and not every negated atom is false; a rule with a positive body goes
    through body_status.
    """
    false = atom_mask(s.false_atoms)
    dropped = residual.superseded_in(p, false)
    core = [atom_mask(d) for d in s.pos]
    rows = []
    for r in p.rules:
        h, n = r.head_mask, r.neg_mask
        if r.pos_mask:
            false_body = body_status(s, r) is Truth.FALSE
        else:
            false_body = bool(n & ~false) and any(not c & ~n for c in core)
        enabling = n | false
        scope = h | enabling
        free = h & ~enabling
        witnesses = [c & free for c in core if not c & ~scope and c & (h | n)]
        rows.append((h, r.pos_mask, false_body or r in dropped, witnesses))
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


def _union_of_unfounded_singletons(rows: list, n: int) -> int:
    """The atoms a with {a} unfounded, for rows with no positive body: a row
    whose head holds a is blocked for {a} unless it is blocked for no X and
    every witness contains a."""
    founded = 0
    for hm, _, blocked, witnesses in rows:
        if not blocked:
            founded |= reduce(and_, witnesses, hm)
    return ((1 << n) - 1) & ~founded


def greatest_unfounded(p: Program, s: ModelState, bound: int = DEFAULT_UNFOUNDED_ORACLE_BOUND):
    """The unfounded set containing every unfounded set, or NO_GREATEST.

    When no rule of p has a positive body, as on the saturation that uwfs
    reads, a rule blocked for X stays blocked for every subset of X, so
    every subset of an unfounded set is unfounded (the module docstring
    gives the argument). The union of all unfounded sets is then the set of
    atoms whose singleton is unfounded, read off the row table in one pass
    and exact at every size. Otherwise every subset of the base is
    enumerated, an oracle limited to `bound` atoms; CapacityError beyond.
    """
    rows = _rule_rows(p, s)
    n = len(p.atom_names)
    if any(pm for _, pm, _, _ in rows):
        if n > bound:
            raise CapacityError(
                f"unfounded-set oracle limited to {bound} atoms on programs "
                f"with positive bodies, got {n}"
            )
        union = _union_of_unfounded(rows, n)
    else:
        union = _union_of_unfounded_singletons(rows, n)
    if _unfounded(rows, union):
        return mask_atoms(union)
    return NO_GREATEST


def t_operator(p: Program, s: ModelState) -> frozenset:
    """Immediate consequences: for every rule with a true body, the head
    minus already-false atoms, canonically."""
    false = atom_mask(s.false_atoms)
    out = []
    for r in p.rules:
        if r.pos_mask:
            true_body = body_status(s, r) is Truth.TRUE
        else:  # a conditional fact: true when its negated atoms are false
            true_body = not r.neg_mask & ~false
        if true_body:
            rest = r.head_mask & ~false
            if rest:
                out.append(rest)
    return frozenset(mask_atoms(m) for m in minimal_masks(out))


def w_operator(p: Program, s: ModelState) -> ModelState:
    """One well-founded step: add immediate consequences and negate the
    greatest unfounded set, accumulating the given state."""
    u = greatest_unfounded(p, s)
    if isinstance(u, NoGreatest):
        raise NoGreatestUnfoundedSetError(
            "well-founded operator undefined: no greatest unfounded set"
        )
    return ModelState(s.pos | t_operator(p, s), s.false_atoms | u)


def uwfs(p: Program) -> ModelState:
    """Least fixpoint of the well-founded operator, computed over the
    saturation of the program into conditional facts (the saturated program
    kept on p, see residual.saturated_program)."""
    saturated = residual.saturated_program(p)
    state = ModelState()
    while True:
        nxt = w_operator(saturated, state)
        if nxt == state:
            return state
        state = nxt
