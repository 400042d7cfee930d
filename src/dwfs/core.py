"""Core syntax: interned atoms, rules, programs, positive disjunctions, and
three-valued model states with their satisfaction and consistency predicates.

Atoms are dense integer ids indexing a per-program name table. A positive
disjunction is a nonempty frozenset of atom ids read disjunctively. A model
state stores only its canonical positive core plus a set of false atoms, as
masks decoded on first read; closure under super-disjunctions is realized
by the satisfaction predicates instead of being materialized. minimal_masks
is the subsumption kernel of every layer, s-implication included (residual).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import attrgetter


class CapacityError(RuntimeError):
    """An exhaustive oracle, enumeration, or saturation exceeded its bound."""


class RouteError(RuntimeError):
    """A route stopped without a state for a reason other than capacity: a
    fixpoint iteration found its operator undefined or broke an invariant."""


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
    kept so far under the one-atom masks of its own atoms, and only under
    those that are some kept member's lowest atom. by_lowest, when given,
    is that index of nonzero masks kept earlier: a member that one of them
    subsumes (equal ones included) is dropped too, and the kept members are
    added to it. A repeated member is dropped the same way, by its first
    copy.
    """
    ordered = sorted(masks, key=int.bit_count)
    if ordered and not ordered[0]:
        return [0]
    kept: list[int] = []
    if by_lowest is None:
        by_lowest = {}
    lows = 0  # the atoms under which by_lowest holds a mask
    for low in by_lowest:
        lows |= low
    get = by_lowest.get
    for m in ordered:
        # _covers(m, get), inlined, over the indexed atoms of m only: this
        # loop is the hot path of every layer.
        rest = m & lows
        covered = False
        while rest and not covered:
            low = rest & -rest
            rest ^= low
            for k in get(low):
                if not k & ~m:
                    covered = True
                    break
        if not covered:
            kept.append(m)
            low = m & -m
            lows |= low
            by_lowest.setdefault(low, []).append(m)
    return kept


def _covers(m: int, get) -> bool:
    """Whether some mask of a by-lowest-atom index (get is its dict.get)
    lies within m: only one whose lowest atom lies in m can."""
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        for k in get(low, ()):
            if not k & ~m:
                return True
    return False


def canonical_sets(masks: Iterable[int]) -> frozenset:
    """The subset-minimal members of the atom masks, decoded to atom sets."""
    return frozenset(mask_atoms(m) for m in minimal_masks(masks))


class _Record:
    """The value semantics of dwfs's record classes, read off the names of
    a class's fields (_fields, in constructor order), with no code generated
    at import: == holds between records of one class whose fields are equal
    in order, the hash is that of the fields' tuple, repr names each field,
    and no attribute can be assigned or deleted. A record's constructor
    fills its __dict__ directly (_set), as unpickling does; a record
    therefore keeps a __dict__ (no __slots__).
    """

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))

    def _set(self, *values):
        """Set the fields, given in _fields' order."""
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Rule(_Record):
    """head <- pos_body, not neg_body, each part a duplicate-free atom set.

    Each part is also kept as an atom mask (head_mask, pos_mask, neg_mask),
    computed once here, for the set algebra of the hot layer; the masks take
    no part in equality, hashing or repr.
    """

    _fields = ("head", "pos_body", "neg_body")

    def __init__(self, head, pos_body=frozenset(), neg_body=frozenset()):
        head, pos, neg = _fset(head), _fset(pos_body), _fset(neg_body)
        if not head:
            raise ValueError("rule head must be nonempty")
        self.__dict__.update(head=head, pos_body=pos, neg_body=neg, head_mask=atom_mask(head),
                             pos_mask=atom_mask(pos), neg_mask=atom_mask(neg))

    @classmethod
    def _of(cls, head, pos, neg, head_mask: int, pos_mask: int, neg_mask: int) -> "Rule":
        """The rule of the given atom frozensets (head nonempty) and their
        masks, without __init__'s re-encoding: decode_rules' constructor."""
        r = object.__new__(cls)
        r.__dict__.update(head=head, pos_body=pos, neg_body=neg, head_mask=head_mask,
                          pos_mask=pos_mask, neg_mask=neg_mask)
        return r

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


def decode_facts(facts: Iterable[tuple[int, int]]) -> frozenset:
    """The conditional facts that (head mask, negative body mask) pairs encode."""
    return decode_rules((h, 0, n) for h, n in facts)


def decode_rules(masks: Iterable[tuple[int, int, int]]) -> frozenset:
    """The rules that (head, positive body, negative body) mask triples
    encode, each head nonempty."""
    return frozenset(
        Rule._of(mask_atoms(h), mask_atoms(p), mask_atoms(n), h, p, n) for h, p, n in masks
    )


def heads_mask(heads: Iterable[int]) -> int:
    """The union of the head masks heads: the atom mask of every head atom."""
    acc = 0
    for h in heads:
        acc |= h
    return acc


class Program:
    """A deduplicated finite rule set over an interned atom table.

    The program holds its rules as one mask store: masks, the frozenset of
    (head, positive body, negative body) mask triples, which every route
    reads. `rules` is the same set as Rule values, a frozenset in no fixed
    order, decoded from the store on first read (Program(rules, names)
    keeps the rules it is given and fills the store from their masks);
    equality, hashing, rendering and the transformations read it. Ordering
    happens only where output is rendered (render_program, the trace, the
    harness reports). The base is the whole table, which may include atoms
    no rule mentions (such atoms are false under every semantics computed
    here). Instances are immutable by convention; two programs compare equal
    when their rule sets and bases coincide up to atom names, so interning
    order is irrelevant to equality.

    A saturation (residual.Saturation) is a Program with the same one store;
    the record of its fact pairs, peak, unit atoms and live table belongs to
    residual. A program keeps one saturation, the route memo (_reduced, see
    residual.route_program); every other one is built on demand and kept
    nowhere (residual.saturated_program).
    """

    __slots__ = ("_rules", "masks", "atom_names", "_names_key", "_reduced")

    def __init__(self, rules: Iterable[Rule], atom_names: Iterable[str]):
        names = tuple(atom_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate atom names in table")
        rules = frozenset(rules)
        # A Rule holds no negative atom id: its masks cannot be built.
        masks = frozenset((r.head_mask, r.pos_mask, r.neg_mask) for r in rules)
        n = len(names)
        used = 0
        for h, p, m in masks:
            used |= h | p | m
        outside = used >> n
        if outside:
            a = n + (outside & -outside).bit_length() - 1
            raise ValueError(f"atom id {a} outside table of size {n}")
        self._init(names, masks)
        self._rules = rules

    def _init(self, names: tuple, masks: frozenset):
        self._rules = None  # decoded from masks on first read
        self.masks = masks  # the rules as (head, positive body, negative body) mask triples
        self.atom_names = names
        self._names_key = None
        self._reduced = None  # residual.Saturation, see residual.route_program

    @classmethod
    def _of(cls, names: tuple, masks: frozenset) -> "Program":
        """The program over a table of distinct names of its mask triples,
        unchecked: every head nonempty and every atom in the table. The
        parser's constructor."""
        p = object.__new__(cls)
        p._init(names, masks)
        return p

    @property
    def rules(self) -> frozenset:
        if self._rules is None:
            self._rules = decode_rules(self.masks)
        return self._rules

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
        return f"Program({len(self.masks)} rules over {len(self.atom_names)} atoms)"


def canonicalize(ds: Iterable[frozenset]) -> frozenset:
    """Keep only subset-minimal disjunctions (the antichain core). Idempotent.
    The atom-set form of minimal_masks."""
    return canonical_sets(atom_mask(d) for d in ds)


def subsumes(a: frozenset, b: frozenset) -> bool:
    """True iff a is a sub-disjunction of b."""
    return _fset(a) <= _fset(b)


class ModelState(_Record):
    """Canonical positive core plus false atoms.

    Held as masks: core_masks, the frozenset of the core's minimal member
    masks, and false_mask, on which states compare and hash and which the
    routes read. pos and false_atoms are decoded once, on first read.
    Membership of an arbitrary pure disjunction in the (implicitly closed)
    state is answered by satisfies_positive / satisfies_negative.
    """

    _fields = ("core_masks", "false_mask")
    _sets = None  # (pos, false_atoms) once decoded; not a field

    def __init__(self, pos=frozenset(), false_atoms=frozenset()):
        self._set(frozenset(minimal_masks(atom_mask(d) for d in pos)), atom_mask(false_atoms))

    @classmethod
    def _of_masks(cls, core: Iterable[int], false: int) -> "ModelState":
        """The routes' constructor: core and false_atoms as atom masks."""
        s = object.__new__(cls)
        s.__dict__.update(core_masks=frozenset(minimal_masks(core)), false_mask=false)
        return s

    def __eq__(self, other):
        # Written out, the int first: uwfs and check_equivalence compare
        # states on every program, and reading the fields' tuples through
        # _values costs twice as much.
        if other.__class__ is self.__class__:
            return self.false_mask == other.false_mask and self.core_masks == other.core_masks
        return NotImplemented

    __hash__ = _Record.__hash__

    def _decode(self) -> tuple:
        """(pos, false_atoms), decoded from the masks and kept."""
        sets = self.__dict__["_sets"] = (
            frozenset(mask_atoms(m) for m in self.core_masks), mask_atoms(self.false_mask)
        )
        return sets

    @property
    def pos(self) -> frozenset:
        return (self._sets or self._decode())[0]

    @property
    def false_atoms(self) -> frozenset:
        return (self._sets or self._decode())[1]

    def __repr__(self):
        return f"{type(self).__qualname__}(pos={self.pos!r}, false_atoms={self.false_atoms!r})"

    def unit_true_atoms(self) -> frozenset:
        return frozenset(a for d in self.pos if len(d) == 1 for a in d)


def satisfies_positive(s: ModelState, d) -> bool:
    """True iff the positive disjunction d belongs to the closure of s."""
    d = _fset(d)
    return any(a <= d for a in s.pos)


def satisfies_negative(s: ModelState, d) -> bool:
    """True iff the negative disjunction over atoms d belongs to the closure of s."""
    return bool(_fset(d) & s.false_atoms)


class Hypothesis(_Record):
    """A set of assumptions: per-atom literal assumptions ("not a") plus
    optional disjunctive assumptions of size >= 2 ("not a or not b ...")."""

    _fields = ("literal_assumptions", "disjunctive_assumptions")

    def __init__(self, literal_assumptions=frozenset(), disjunctive_assumptions=frozenset()):
        lits = _fset(literal_assumptions)
        disj = frozenset(_fset(d) for d in disjunctive_assumptions)
        for d in disj:
            if len(d) < 2:
                raise ValueError("disjunctive assumptions must have at least two atoms")
        self._set(lits, disj)


def state_consistent(s: ModelState) -> bool:
    """No positive core member has all its atoms false. This covers a false
    atom that is unit-true: its one-atom member lies within the false atoms."""
    return not any(a <= s.false_atoms for a in s.pos)

