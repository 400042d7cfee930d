"""Core syntax: interned atoms, rules, programs, positive disjunctions, and
three-valued model states with their satisfaction and consistency predicates.

Atoms are dense integer ids indexing a per-program name table. A positive
disjunction is a nonempty frozenset of atom ids read disjunctively. A model
state stores only its canonical positive core plus a set of false atoms;
closure under super-disjunctions is realized by the satisfaction predicates
instead of being materialized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

Atom = int
Disjunction = frozenset
AtomSet = frozenset


class CapacityError(RuntimeError):
    """An exhaustive oracle, enumeration, or saturation exceeded its bound."""


class RouteError(RuntimeError):
    """A route stopped without a state for a reason other than capacity: a
    fixpoint iteration found its operator undefined or broke an invariant."""


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"


def _fset(xs) -> frozenset:
    return xs if isinstance(xs, frozenset) else frozenset(xs)


def atom_mask(atoms) -> int:
    """The atom set as an int with bit a set for each atom id a."""
    m = 0
    for a in atoms:
        m |= 1 << a
    return m


def mask_bits(m: int) -> Iterator[int]:
    """The one-atom masks of m's atoms, lowest atom first: one lowest set bit
    at a time, so the cost follows the atoms in m, not its highest atom id."""
    while m:
        low = m & -m
        yield low
        m ^= low


def mask_atoms(m: int) -> frozenset:
    """The atom set of the mask m: the inverse of atom_mask."""
    # mask_bits inlined, which halves the time of a decode. Built through a
    # set: on CPython 3.11 that gives a smaller frozenset than one built from
    # a list at most sizes (472 against 728 bytes at 5 to 7 atoms).
    out = set()
    while m:
        low = m & -m
        out.add(low.bit_length() - 1)
        m ^= low
    return frozenset(out)


def minimal_masks(masks: Iterable[int], by_lowest: dict | None = None) -> list:
    """The subset-minimal members of a collection of atom masks, fewest
    atoms first.

    Only a member with fewer atoms can be a strict subset of m, and its
    lowest atom then lies in m, so each m is tested against the members
    kept so far under the one-atom masks of its own atoms. by_lowest, when
    given, is that index of nonzero masks kept earlier: a member that one of
    them subsumes (equal ones included) is dropped too, and the kept members
    are added to it.
    """
    masks = set(masks)
    if 0 in masks:
        return [0]
    kept: list[int] = []
    if by_lowest is None:
        by_lowest = {}
    for m in sorted(masks, key=int.bit_count):
        # mask_bits inlined: on CPython 3.11 that takes 17% off this
        # function's time over the calls the five routes make on sparse
        # 18-24 atom programs.
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            group = by_lowest.get(low)
            if group and not all(k & ~m for k in group):
                break
        else:
            kept.append(m)
            by_lowest.setdefault(m & -m, []).append(m)
    return kept


@dataclass(frozen=True)
class Rule:
    """head <- pos_body, not neg_body, each part a duplicate-free atom set.

    Each part is also kept as an atom mask (head_mask, pos_mask, neg_mask),
    computed once here, for the set algebra of the hot layer; the masks take
    no part in equality, hashing or repr.
    """

    head: frozenset
    pos_body: frozenset = frozenset()
    neg_body: frozenset = frozenset()
    head_mask: int = field(init=False, compare=False, repr=False)
    pos_mask: int = field(init=False, compare=False, repr=False)
    neg_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        head, pos, neg = _fset(self.head), _fset(self.pos_body), _fset(self.neg_body)
        if not head:
            raise ValueError("rule head must be nonempty")
        put = object.__setattr__
        put(self, "head", head)
        put(self, "pos_body", pos)
        put(self, "neg_body", neg)
        put(self, "head_mask", atom_mask(head))
        put(self, "pos_mask", atom_mask(pos))
        put(self, "neg_mask", atom_mask(neg))

    @property
    def is_fact(self) -> bool:
        return not self.pos_body and not self.neg_body

    @property
    def is_conditional_fact(self) -> bool:
        return not self.pos_body

    @property
    def is_tautology(self) -> bool:
        """The head meets the positive body (Brass and Dix's tautology)."""
        return bool(self.head_mask & self.pos_mask)

    def atoms(self) -> frozenset:
        return self.head | self.pos_body | self.neg_body


def heads_mask(rules: Iterable[Rule]) -> int:
    """The atom mask of every head atom of the rules."""
    acc = 0
    for r in rules:
        acc |= r.head_mask
    return acc


class Program:
    """A deduplicated finite rule set over an interned atom table.

    `rules` is that set itself, a frozenset in no fixed order; ordering
    happens only where output is rendered (render_program, the trace, the
    harness reports). The base is the whole table, which may include atoms
    no rule mentions (such atoms are false under every semantics computed
    here). Instances are immutable by convention; two programs compare equal
    when their rule sets and bases coincide up to atom names, so interning
    order is irrelevant to equality.
    """

    __slots__ = ("rules", "atom_names", "_names_key", "_saturated", "_live")

    def __init__(self, rules: Iterable[Rule], atom_names: Iterable[str]):
        names = tuple(atom_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate atom names in table")
        rules = frozenset(rules)
        n = len(names)
        for r in rules:
            # A Rule holds no negative atom id: its masks cannot be built.
            if (r.head_mask | r.pos_mask | r.neg_mask) >> n:
                a = next(a for a in r.atoms() if a >= n)
                raise ValueError(f"atom id {a} outside table of size {n}")
        self.rules = rules
        self.atom_names = names
        self._names_key = None
        self._saturated = None  # (Program, peak), see residual.saturated_program
        self._live: dict = {}  # false-atom mask -> facts, see residual.live_in

    @property
    def base(self) -> frozenset:
        return frozenset(range(len(self.atom_names)))

    def atom_id(self, name: str) -> int:
        return self.atom_names.index(name)

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return Program(rules, self.atom_names)

    def rule_names(self) -> frozenset:
        """The rule set with ids replaced by names (interning-independent)."""
        return frozenset(
            (
                frozenset(self.atom_names[a] for a in r.head),
                frozenset(self.atom_names[a] for a in r.pos_body),
                frozenset(self.atom_names[a] for a in r.neg_body),
            )
            for r in self.rules
        )

    def _key(self):
        if self._names_key is None:
            self._names_key = (self.rule_names(), frozenset(self.atom_names))
        return self._names_key

    def __eq__(self, other):
        if not isinstance(other, Program):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Program({len(self.rules)} rules over {len(self.atom_names)} atoms)"


def canonicalize(ds: Iterable[frozenset]) -> frozenset:
    """Keep only subset-minimal disjunctions (the antichain core). Idempotent.
    The atom-set form of minimal_masks."""
    # Maps each minimal mask back to its disjunction instead of decoding it.
    by_mask = {atom_mask(d): _fset(d) for d in ds}
    return frozenset(by_mask[m] for m in minimal_masks(by_mask))


def subsumes(a: frozenset, b: frozenset) -> bool:
    """True iff a is a sub-disjunction of b."""
    return _fset(a) <= _fset(b)


@dataclass(frozen=True)
class ModelState:
    """Canonical positive core plus false atoms.

    Membership of an arbitrary pure disjunction in the (implicitly closed)
    state is answered by satisfies_positive / satisfies_negative.
    """

    pos: frozenset = frozenset()
    false_atoms: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "pos", canonicalize(self.pos))
        object.__setattr__(self, "false_atoms", _fset(self.false_atoms))

    def unit_true_atoms(self) -> frozenset:
        return frozenset(a for d in self.pos if len(d) == 1 for a in d)


def satisfies_positive(s: ModelState, d) -> bool:
    """True iff the positive disjunction d belongs to the closure of s."""
    d = _fset(d)
    return any(a <= d for a in s.pos)


def satisfies_negative(s: ModelState, d) -> bool:
    """True iff the negative disjunction over atoms d belongs to the closure of s."""
    return bool(_fset(d) & s.false_atoms)


@dataclass(frozen=True)
class Hypothesis:
    """A set of assumptions: per-atom literal assumptions ("not a") plus
    optional disjunctive assumptions of size >= 2 ("not a or not b ...")."""

    literal_assumptions: frozenset = frozenset()
    disjunctive_assumptions: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "literal_assumptions", _fset(self.literal_assumptions))
        disj = frozenset(_fset(d) for d in self.disjunctive_assumptions)
        for d in disj:
            if len(d) < 2:
                raise ValueError("disjunctive assumptions must have at least two atoms")
        object.__setattr__(self, "disjunctive_assumptions", disj)


def state_consistent(s: ModelState) -> bool:
    """No positive core member has all its atoms false. This covers a false
    atom that is unit-true: its one-atom member lies within the false atoms."""
    return not any(a <= s.false_atoms for a in s.pos)


def body_status(s: ModelState, r: Rule) -> Truth:
    """Three-valued status of a rule body against a model state."""
    if all(frozenset((b,)) in s.pos for b in r.pos_body) and r.neg_body <= s.false_atoms:
        return Truth.TRUE
    if any(b in s.false_atoms for b in r.pos_body):
        return Truth.FALSE
    if any(frozenset((c,)) in s.pos for c in r.neg_body):
        return Truth.FALSE
    if any(a <= r.neg_body for a in s.pos):
        return Truth.FALSE
    return Truth.UNDEFINED
