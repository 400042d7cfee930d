import itertools

import pytest
from hypothesis import given, strategies as st

from dwfs import (
    ModelState,
    Program,
    Rule,
    Truth,
    body_status,
    canonicalize,
    parse_program,
    satisfies_negative,
    satisfies_positive,
    state_consistent,
    subsumes,
)
from dwfs.core import atom_mask
from conftest import atoms, state


def test_rule_head_must_be_nonempty():
    with pytest.raises(ValueError):
        Rule(frozenset())


def test_rule_parts_are_deduplicated_sets():
    r = Rule([1, 1, 2], [3, 3], [4])
    assert r.head == frozenset({1, 2})
    assert r.pos_body == frozenset({3})


def test_program_rejects_out_of_range_atoms():
    with pytest.raises(ValueError):
        Program([Rule([5])], ["a", "b"])
    for rule in (Rule([0], [2]), Rule([0], [1], [2]), Rule([1], [0, 2], [1])):
        with pytest.raises(ValueError, match="atom id 2 outside table of size 2"):
            Program([Rule([1]), rule], ["a", "b"])
    Program([Rule([1], [0], [0, 1])], ["a", "b"])


def test_program_equality_ignores_interning_order():
    p1 = parse_program("a :- b. c.")
    p2 = parse_program("c. a :- b.")
    assert p1 == p2
    assert hash(p1) == hash(p2)


def test_program_equality_sees_base_difference():
    p1 = parse_program("a.")
    p2 = parse_program("a :- b. a.")
    assert p1 != p2


def test_canonicalize_drops_subsumed_disjunction():
    p = parse_program("a. a | b.")
    got = canonicalize({atoms(p, "a"), atoms(p, "a b")})
    assert got == {atoms(p, "a")}


def test_canonicalize_empty():
    assert canonicalize(set()) == frozenset()


def test_canonicalize_merges_equal_disjunctions():
    assert canonicalize([frozenset({0, 1}), frozenset({1, 0})]) == {frozenset({0, 1})}


@given(st.sets(st.frozensets(st.integers(0, 5), min_size=1, max_size=4), max_size=8))
def test_canonicalize_idempotent_antichain(ds):
    once = canonicalize(ds)
    assert canonicalize(once) == once
    assert not any(a < b for a in once for b in once)


def test_subsumes_reflexive():
    d = frozenset({1, 2})
    assert subsumes(d, d)


def test_subsumes_sub_disjunction():
    assert subsumes(frozenset({0}), frozenset({0, 1, 2}))
    assert not subsumes(frozenset({0, 1}), frozenset({0}))


def test_satisfies_positive_via_subsumption():
    p = parse_program("a. b | c.")
    s = state(p, pos=["a", "b c"])
    assert satisfies_positive(s, atoms(p, "a b c"))
    assert not satisfies_positive(s, atoms(p, "b"))


def test_satisfies_negative_via_false_atom():
    p = parse_program("c. x.")
    s = state(p, false="c")
    assert satisfies_negative(s, atoms(p, "c x"))
    assert not satisfies_negative(s, atoms(p, "x"))


def test_empty_state_satisfies_nothing():
    s = ModelState()
    assert not satisfies_positive(s, frozenset({0}))
    assert not satisfies_negative(s, frozenset({0}))


def test_satisfaction_monotone_under_state_growth():
    p = parse_program("a. b | c. d.")
    small = state(p, pos=["b c"], false="d")
    big = state(p, pos=["b c", "a"], false="d a")
    for k in range(1, 4):
        for combo in itertools.combinations(sorted(p.base), k):
            dset = frozenset(combo)
            if satisfies_positive(small, dset):
                assert satisfies_positive(big, dset)
            if satisfies_negative(small, dset):
                assert satisfies_negative(big, dset)


def test_state_consistency_examples():
    p = parse_program("a | b. d. c.")
    assert not state_consistent(state(p, pos=["a b"], false="a b"))
    assert state_consistent(state(p, pos=["a b", "d"], false="c"))
    assert state_consistent(ModelState())


def test_state_stores_canonical_core():
    p = parse_program("a. a | b.")
    s = ModelState(frozenset({atoms(p, "a"), atoms(p, "a b")}))
    assert s.pos == frozenset({atoms(p, "a")})


_DISJUNCTIONS = st.frozensets(st.frozensets(st.integers(0, 5), min_size=1, max_size=4),
                              max_size=8)


@given(_DISJUNCTIONS, st.frozensets(st.integers(0, 5)))
def test_state_from_atom_sets_equals_state_from_masks(pos, false):
    s = ModelState(pos, false)
    t = ModelState._of_masks([atom_mask(d) for d in pos], atom_mask(false))
    assert s == t and hash(s) == hash(t)
    assert s.pos == t.pos == canonicalize(pos)
    assert s.false_atoms == t.false_atoms == false
    assert repr(s) == f"ModelState(pos={s.pos!r}, false_atoms={s.false_atoms!r})"


def test_state_repr_and_immutability():
    s = ModelState(frozenset({frozenset({0}), frozenset({0, 1})}), frozenset({2}))
    assert repr(s) == "ModelState(pos=frozenset({frozenset({0})}), false_atoms=frozenset({2}))"
    assert repr(ModelState()) == "ModelState(pos=frozenset(), false_atoms=frozenset())"
    for name in ("pos", "false_atoms", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, frozenset())
    assert s != ModelState(frozenset({frozenset({0})}))


def test_body_status_false_by_subsumed_negation():
    p = parse_program("a | b. c :- not a, not b.")
    s = state(p, pos=["a b"])
    (rule,) = [r for r in p.rules if r.neg_body]
    assert body_status(s, rule) is Truth.FALSE


def test_body_status_empty_body_true():
    p = parse_program("a.")
    (rule,) = p.rules
    assert body_status(ModelState(), rule) is Truth.TRUE


def test_body_status_undefined_without_evidence():
    p = parse_program("c :- not d.")
    (rule,) = p.rules
    assert body_status(ModelState(), rule) is Truth.UNDEFINED


def _enumerate_states(n):
    """All canonical states over n atoms (positive cores x false sets)."""
    base = list(range(n))
    disjunctions = [
        frozenset(c)
        for k in range(1, n + 1)
        for c in itertools.combinations(base, k)
    ]
    for pos_bits in range(1 << len(disjunctions)):
        pos = frozenset(
            d for i, d in enumerate(disjunctions) if pos_bits >> i & 1
        )
        for false_bits in range(1 << n):
            false = frozenset(a for a in base if false_bits >> a & 1)
            yield ModelState(pos, false)


def test_body_status_true_false_exclusive_on_consistent_states():
    # Exhaustive over 2 atoms, sampled rules over 3: the two clauses of the
    # definition never both hold on a consistent state.
    def clauses(s, r):
        true_c = all(frozenset((b,)) in s.pos for b in r.pos_body) and (
            r.neg_body <= s.false_atoms
        )
        false_c = (
            any(b in s.false_atoms for b in r.pos_body)
            or any(frozenset((c,)) in s.pos for c in r.neg_body)
            or any(a <= r.neg_body for a in s.pos)
        )
        return true_c, false_c

    rules = [
        Rule(frozenset({0}), frozenset(pb), frozenset(nb))
        for pb in [(), (1,), (1, 2)]
        for nb in [(), (2,), (1, 2)]
    ]
    checked = 0
    for s in _enumerate_states(3):
        if not state_consistent(s):
            continue
        for r in rules:
            t, f = clauses(s, r)
            assert not (t and f)
            status = body_status(s, r)
            if t:
                assert status is Truth.TRUE
            elif f:
                assert status is Truth.FALSE
            else:
                assert status is Truth.UNDEFINED
            checked += 1
    assert checked > 1000
