"""Unfounded sets over model states, the greatest unfounded set, and the
well-founded operator they induce, on programs of conditional facts.

The domain is a program of conditional facts (rules with no positive body),
the residual-program form of Brass and Dix: uwfs reads the program's
saturation into that form (the route memo, residual.route_program), since
positive body atoms carry support information that only the saturated form
exposes rule-locally. The route memo leaves out the facts whose negative
body holds a unit atom; a unit atom is never unfounded, so such a fact
never fires and is superseded in every W step. Every function here raises
ValueError on a rule with a positive body. They read the facts as (head
mask, negative body mask) pairs (residual.fact_masks, residual.live_in)
and a state as the masks it holds, and never decode a state, in uwfs's W
steps included.

An atom set X is unfounded with respect to a state when every rule with a
head atom in X is blocked. A rule is blocked when its body is false, when a
conditional fact with a strictly smaller head holds under the rule's own
negated atoms plus the already-false atoms (the rule then never yields a
minimal derivation; live_in drops it, on the two cases of s-implication
that residual states), or when the state satisfies a disjunction inside what
an attacker relying on the rule must assume false: the rule's negated atoms
and its head atoms outside X.

The greatest unfounded set is the union of all unfounded sets when that
union is itself unfounded; otherwise none exists, which is a value here,
not a fault.

That union takes one test per atom, not one per subset. A rule is blocked
for X exactly when it is blocked whatever X is (false body, or superseded)
or the state satisfies a disjunction inside its negated atoms, the false
atoms and its head atoms outside X. Neither stops holding when X shrinks,
and a subset of X meets the heads of fewer rules, so every subset of an
unfounded set is unfounded. The union of all unfounded sets is therefore
the set of atoms a with {a} unfounded, and one more test tells whether that
union is itself unfounded. The result is exact at every base size. A rule
blocked whatever X is decides neither test, so both read rows of the other
rules only (_rule_rows).
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from . import residual
from .core import (
    ModelState,
    Program,
    RouteError,
    atom_mask,
    canonical_sets,
    mask_atoms,
)


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
    """Per live conditional fact whose body is not false: its head mask and
    its witness masks; a witness blocks the fact for X iff its mask is
    disjoint from X.

    The facts are p's live fact pairs for the state's false atoms
    (residual.live_in): on the route memo that uwfs reads, wfds and
    dwfs_star read the same table; on any other p they are built afresh
    and kept nowhere. Of those, a fact whose body is false has no row: a
    core member lies within its negated atoms and not every negated atom
    is false. The state's false atoms and core members are read as the
    masks it holds.
    """
    false, core = s.false_mask, s.core_masks
    rows = []
    for h, n in residual.live_in(p, false):
        if n & ~false and any(not c & ~n for c in core):
            continue
        enabling = n | false
        scope = h | enabling
        free = h & ~enabling
        rows.append((h, [c & free for c in core if not c & ~scope and c & (h | n)]))
    return rows


def _unfounded(rows: list, x: int) -> bool:
    """True iff every row whose head meets the atom mask x is blocked for x."""
    return all(not all(w & x for w in witnesses) for hm, witnesses in rows if hm & x)


def is_unfounded(p: Program, s: ModelState, x) -> bool:
    """True iff every rule whose head meets x is blocked with respect to s."""
    return _unfounded(_rule_rows(p, s), atom_mask(x))


def _singleton_union(rows: list, n: int) -> int:
    """The atoms a with {a} unfounded: a row whose head holds a is blocked
    for {a} unless every witness contains a."""
    founded = 0
    for hm, witnesses in rows:
        founded |= reduce(and_, witnesses, hm)
    return ((1 << n) - 1) & ~founded


def greatest_unfounded(p: Program, s: ModelState):
    """The unfounded set containing every unfounded set, or NO_GREATEST.

    Every subset of an unfounded set is unfounded (the module docstring
    gives the argument), so the union of all unfounded sets is the set of
    atoms whose singleton is unfounded, read off the row table in one pass
    and exact at every size.
    """
    rows = _rule_rows(p, s)
    union = _singleton_union(rows, len(p.atom_names))
    if _unfounded(rows, union):
        return mask_atoms(union)
    return NO_GREATEST


def _consequences(p: Program, false: int) -> list:
    """t_operator's members under the false-atom mask false, as atom masks."""
    return [h & ~false for h, n in residual.fact_masks(p) if not n & ~false and h & ~false]


def t_operator(p: Program, s: ModelState) -> frozenset:
    """Immediate consequences: for every conditional fact whose negated
    atoms are all false, the head minus already-false atoms, canonically."""
    return canonical_sets(_consequences(p, s.false_mask))


def w_operator(p: Program, s: ModelState) -> ModelState:
    """One well-founded step: add immediate consequences and negate the
    greatest unfounded set, accumulating the given state."""
    u = greatest_unfounded(p, s)
    if isinstance(u, NoGreatest):
        raise NoGreatestUnfoundedSetError(
            "well-founded operator undefined: no greatest unfounded set"
        )
    false = s.false_mask
    core = [*s.core_masks, *_consequences(p, false)]
    return ModelState._of_masks(core, false | atom_mask(u))


def uwfs(p: Program) -> ModelState:
    """Least fixpoint of the well-founded operator, computed over the
    saturation of the program into conditional facts (the saturated program
    kept on p, see residual.route_program)."""
    saturated = residual.route_program(p)[0]
    state = ModelState()
    while True:
        nxt = w_operator(saturated, state)
        if nxt == state:
            return state
        state = nxt
