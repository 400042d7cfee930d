import itertools

import pytest

from dwfs import (
    GeneratorConfig,
    ModelState,
    NO_GREATEST,
    NoGreatest,
    greatest_unfounded,
    is_unfounded,
    parse_program,
    random_program,
    t_operator,
    uwfs,
    w_operator,
    wfds,
)
from dwfs.residual import as_program, lft
from dwfs.unfounded import NoGreatestUnfoundedSetError
from conftest import ATTACK_DEMO, EVEN_LOOP, GUARD, atoms, state


def test_blocked_by_false_body():
    p = parse_program(GUARD)
    assert is_unfounded(p, state(p, pos=["a b"]), atoms(p, "c"))


def test_empty_set_vacuously_unfounded():
    p = parse_program(GUARD)
    assert is_unfounded(p, ModelState(), frozenset())


def test_even_loop_pair_not_unfounded():
    p = parse_program(EVEN_LOOP)
    assert not is_unfounded(p, ModelState(), atoms(p, "c d"))
    assert not is_unfounded(p, ModelState(), atoms(p, "c"))


def test_positive_loop_is_unfounded():
    p = parse_program("c :- d. d :- c.")
    assert is_unfounded(p, ModelState(), atoms(p, "c d"))


def test_blocked_by_satisfied_remainder():
    p = parse_program("a | b.")
    s = state(p, pos=["a", "b"])
    assert is_unfounded(p, s, atoms(p, "a"))
    assert is_unfounded(p, s, atoms(p, "b"))
    assert not is_unfounded(p, s, atoms(p, "a b"))


def test_greatest_unfounded_examples():
    g = parse_program(GUARD)
    assert greatest_unfounded(g, state(g, pos=["a b"])) == atoms(g, "c")
    p = parse_program("a | b.")
    assert greatest_unfounded(p, state(p, pos=["a", "b"])) is NO_GREATEST
    loop = parse_program(EVEN_LOOP)
    assert greatest_unfounded(loop, ModelState()) == frozenset()


def test_greatest_unfounded_matches_exhaustive_union():
    for seed in range(20):
        p = random_program(GeneratorConfig(seed, num_atoms=4, num_rules=5))
        s = wfds(p)
        base = sorted(p.base)
        union = frozenset()
        for k in range(1, len(base) + 1):
            for combo in itertools.combinations(base, k):
                x = frozenset(combo)
                if is_unfounded(p, s, x):
                    union |= x
        got = greatest_unfounded(p, s)
        if is_unfounded(p, s, union):
            assert got == union
        else:
            assert got is NO_GREATEST


def test_elimination_path_agrees_with_exhaustive():
    for seed in range(12):
        p = random_program(GeneratorConfig(seed + 70, num_atoms=5, num_rules=6))
        s = wfds(p)
        exhaustive = greatest_unfounded(p, s)
        if isinstance(exhaustive, NoGreatest):
            continue
        heuristic = greatest_unfounded(p, s, bound=0)
        assert heuristic == exhaustive
    # The states uwfs visits: W-reachable states of saturated programs,
    # sparse (8 atoms) and dense (6 atoms).
    checked = 0
    for seed in range(60):
        sparse = GeneratorConfig(seed + 3300, num_atoms=8, num_rules=8, max_head=2,
                                 max_pos_body=1, max_neg_body=2)
        dense = GeneratorConfig(seed + 3400, num_atoms=6, num_rules=9, max_head=2,
                                max_pos_body=2, max_neg_body=2)
        for cfg in (sparse, dense):
            for n, s in _w_sequence(random_program(cfg)):
                assert greatest_unfounded(n, s, bound=0) == greatest_unfounded(n, s)
                checked += 1
    assert checked > 200


def test_t_operator_fires_true_bodies_only():
    p = parse_program(GUARD)
    assert t_operator(p, ModelState()) == {atoms(p, "a b")}
    q = parse_program("a | b.")
    assert t_operator(q, state(q, false="b")) == {atoms(q, "a")}
    r = parse_program("c :- not a, not b.")
    assert t_operator(r, ModelState()) == frozenset()


def test_w_operator_accumulates():
    # The guarded rule is superseded by the disjunctive fact outright, so
    # the negative part arrives with the first application already.
    p = parse_program(GUARD)
    w1 = w_operator(p, ModelState())
    assert w1 == state(p, pos=["a b"], false="c")
    assert w_operator(p, w1) == w1


def test_w_operator_two_step_sequence():
    # With a positive guard the falsity needs the derived disjunction first.
    p = parse_program("a | b. c :- x, not a, not b. x.")
    w1 = w_operator(p, ModelState())
    assert w1 == state(p, pos=["a b", "x"])
    w2 = w_operator(p, w1)
    assert w2 == state(p, pos=["a b", "x"], false="c")
    assert w_operator(p, w2) == w2


def test_w_operator_undefined_raises():
    p = parse_program("a | b.")
    with pytest.raises(NoGreatestUnfoundedSetError):
        w_operator(p, state(p, pos=["a", "b"]))


def test_w_on_empty_program_falsifies_base():
    p = parse_program("a.").with_rules([])
    w1 = w_operator(p, ModelState())
    assert w1.false_atoms == p.base


def test_uwfs_values():
    g = parse_program(GUARD)
    assert uwfs(g) == state(g, pos=["a b"], false="c")
    loop = parse_program(EVEN_LOOP)
    assert uwfs(loop) == ModelState()
    demo = parse_program(ATTACK_DEMO)
    assert uwfs(demo) == state(demo, pos=["a b", "d"], false="c")


def test_uwfs_matches_wfds():
    for seed in range(40):
        p = random_program(GeneratorConfig(seed + 1300, num_atoms=5, num_rules=6))
        assert uwfs(p) == wfds(p)


def _w_sequence(p):
    saturated = as_program(p, lft(p))
    states = []
    s = ModelState()
    while True:
        states.append((saturated, s))
        nxt = w_operator(saturated, s)
        if nxt == s:
            return states
        s = nxt


def test_reachable_states_unfounded_sets_avoid_unit_true():
    for seed in range(15):
        p = random_program(GeneratorConfig(seed + 60, num_atoms=4, num_rules=5))
        for n, s in _w_sequence(p):
            unit_true = s.unit_true_atoms()
            base = sorted(n.base)
            for k in range(1, len(base) + 1):
                for combo in itertools.combinations(base, k):
                    x = frozenset(combo)
                    if is_unfounded(n, s, x):
                        assert not (x & unit_true)


def test_w_sequence_is_increasing():
    from dwfs import satisfies_negative, satisfies_positive

    for seed in range(10):
        p = random_program(GeneratorConfig(seed + 2500, num_atoms=5, num_rules=6))
        seq = [s for _, s in _w_sequence(p)]
        for earlier, later in zip(seq, seq[1:]):
            assert earlier.false_atoms <= later.false_atoms
            for d in earlier.pos:
                assert satisfies_positive(later, d)
            for a in earlier.false_atoms:
                assert satisfies_negative(later, frozenset((a,)))
