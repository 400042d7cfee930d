"""Unfounded sets over model states, the greatest unfounded set, and the
well-founded operator they induce, on programs of conditional facts.

The domain is a set of conditional facts (rules with no positive body), the
residual-program form of Brass and Dix: a saturation (residual.Saturation,
a record that is not a Program) or a Program of conditional facts. uwfs
reads the program's saturation into that form (the route memo,
residual.route_program), since positive body atoms carry support
information that only the saturated form exposes rule-locally. The route
memo leaves out the facts whose negative body holds a unit atom; a unit
atom is never unfounded, so such a fact never fires and is superseded in
every W step. Every function here takes either kind, and raises ValueError
on a Program rule with a positive body. They read the facts as (head mask,
negative body mask) pairs (residual.fact_masks, residual.live_in) and a
state as the masks it holds, and never decode a state, in uwfs's W steps
included.

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
union is itself unfounded. The result is exact at every base size.

Both tests, and is_unfounded, read one table per state, built in one pass
over the live facts (_w_rows): the atoms whose singleton is not unfounded,
and rows for the facts with a witness only. A rule blocked whatever X is
decides neither test, and a rule with no witness founds its whole head,
which no unfounded set meets. The pass reads the state's core members
through an index by atom, so each fact reads only the members that meet
its head or negative body, the only ones that can block it. uwfs iterates
the W step on masks and builds one ModelState, at the fixpoint.
"""

from __future__ import annotations

from . import residual
from .core import (
    ModelState,
    Program,
    RouteError,
    atom_mask,
    canonical_sets,
    mask_atoms,
    minimal_masks,
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


def _w_rows(live, false: int, core) -> tuple[int, list]:
    """The W step's table for the state with false-atom mask false and core
    member masks core, in one pass over live, the state's live fact pairs
    (residual.live_in): (founded, rows). founded is the mask of the atoms a
    whose singleton {a} is not unfounded. rows holds, per fact with a
    witness, its head mask and its witness masks; a witness blocks the fact
    for X iff its mask is disjoint from X.

    The core members are indexed by atom once per call, each kept as its
    atoms outside false. A member is a witness when it lies within the
    fact's head, negated and false atoms, and it then meets the head or the
    negated atoms; its witness mask is its atoms in the head outside the
    negated and false atoms. So only the members under the atoms of the
    fact's head and negative body are read. An empty witness mask (a member
    within the negated and false atoms: the body is false, or the state
    satisfies a disjunction of them) blocks the fact whatever X is: it
    keeps no row and founds nothing. A fact with no witness founds its
    whole head and keeps no row either. A fact with witnesses founds the
    head atoms that every witness holds.

    The mask arithmetic uses & and ^ on nonnegative ints only: on a wide
    base a complemented mask is a long negative int, and & with one costs
    about three times as much.
    """
    if 0 in core:  # the empty member lies within every negative body
        live = [(h, n) for h, n in live if n & false == n]
    by_atom: dict[int, list] = {}  # bit length of an atom's mask -> members
    covered = 0
    for c in core:
        covered |= c
        rest = c ^ (c & false)
        m = c
        while m:
            k = m.bit_length()
            m ^= 1 << k - 1
            bucket = by_atom.get(k)
            if bucket is None:
                by_atom[k] = [rest]
            else:
                bucket.append(rest)
    founded = 0
    rows = []
    for h, n in live:
        hn = h | n
        m = hn & covered
        if not m:
            founded |= h
            continue
        witnesses = []
        while m:
            k = m.bit_length()
            m ^= 1 << k - 1
            for c in by_atom[k]:
                if c & hn == c:
                    w = c ^ (c & n)
                    if not w:
                        break
                    witnesses.append(w)
            else:
                continue
            break  # blocked whatever X is
        else:
            if witnesses:
                rows.append((h, witnesses))
                for w in witnesses:
                    h &= w
            founded |= h
    return founded, rows


def _unfounded(rows: list, x: int) -> bool:
    """True iff every row whose head meets the atom mask x is blocked for x."""
    return all(not all(w & x for w in witnesses) for hm, witnesses in rows if hm & x)


def is_unfounded(p: residual.Saturation | Program, s: ModelState, x) -> bool:
    """True iff every rule whose head meets x is blocked with respect to s.
    A set that meets founded holds an atom whose singleton is not
    unfounded, and every subset of an unfounded set is unfounded."""
    false = s.false_mask
    founded, rows = _w_rows(residual.live_in(p, false), false, s.core_masks)
    x = atom_mask(x)
    return not x & founded and _unfounded(rows, x)


def _greatest_mask(p: residual.Saturation | Program, false: int, core) -> int | None:
    """The atom mask of the greatest unfounded set for the state with
    false-atom mask false and core member masks core, or None when none
    exists: the atoms outside founded, if that set is unfounded. Every W
    step reads it, undecoded."""
    founded, rows = _w_rows(residual.live_in(p, false), false, core)
    union = ((1 << len(p.atom_names)) - 1) & ~founded
    return union if _unfounded(rows, union) else None


def greatest_unfounded(p: residual.Saturation | Program, s: ModelState):
    """The unfounded set containing every unfounded set, or NO_GREATEST.

    Every subset of an unfounded set is unfounded (the module docstring
    gives the argument), so the union of all unfounded sets is the set of
    atoms whose singleton is unfounded, read off the W step's table in one
    pass and exact at every size (_greatest_mask).
    """
    union = _greatest_mask(p, s.false_mask, s.core_masks)
    return NO_GREATEST if union is None else mask_atoms(union)


def _consequences(p: residual.Saturation | Program, false: int) -> list:
    """t_operator's members under the false-atom mask false, as atom masks."""
    return [
        h ^ (h & false) for h, n in residual.fact_masks(p) if n & false == n and h & false != h
    ]


def t_operator(p: residual.Saturation | Program, s: ModelState) -> frozenset:
    """Immediate consequences: for every conditional fact whose negated
    atoms are all false, the head minus already-false atoms, canonically."""
    return canonical_sets(_consequences(p, s.false_mask))


def _w_step(p: residual.Saturation | Program, false: int, core) -> tuple[frozenset, int]:
    """One well-founded step on masks: the canonical core and the false-atom
    mask that follow the state with false-atom mask false and core member
    masks core."""
    u = _greatest_mask(p, false, core)
    if u is None:
        raise NoGreatestUnfoundedSetError(
            "well-founded operator undefined: no greatest unfounded set"
        )
    # Consequences already in the core leave it as it is.
    new = set(_consequences(p, false)).difference(core)
    if new:
        core = frozenset(minimal_masks([*core, *new]))
    return core, false | u


def w_operator(p: residual.Saturation | Program, s: ModelState) -> ModelState:
    """One well-founded step: add immediate consequences and negate the
    greatest unfounded set, accumulating the given state. The set is read
    as a mask (_greatest_mask), never decoded."""
    core, false = _w_step(p, s.false_mask, s.core_masks)
    return ModelState._of_masks(core, false)


def uwfs(p: Program) -> ModelState:
    """Least fixpoint of the well-founded operator, computed over the
    saturation of the program into conditional facts (the saturated program
    kept on p, see residual.route_program). The W steps run on masks, and
    one ModelState is built, at the fixpoint."""
    saturated = residual.route_program(p)
    core, false = frozenset(), 0
    while True:
        nxt_core, nxt_false = _w_step(saturated, false, core)
        if nxt_false == false and nxt_core == core:
            return ModelState._of_masks(core, false)
        core, false = nxt_core, nxt_false
