import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import dwfs.argumentation as argumentation
from dwfs import (
    CapacityError,
    Engine,
    GeneratorConfig,
    Program,
    Rule,
    entails_classical,
    least_model_state,
    parse_program,
    random_program,
    render_program,
    subsumes,
    tps_lfp,
    tps_step,
    wfds,
)
from dwfs.core import atom_mask, canonicalize, mask_atoms
from dwfs.fixpoint import _close, _lfp_masks, _Rounds
from dwfs.harness import atom_names
from conftest import atoms


def _oracle_round(p, j):
    """One hyperresolution round on frozensets, every premise combination
    enumerated: the operator's definition, independent of the mask kernel."""
    j = frozenset(frozenset(d) for d in j)
    by_atom = {}
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


def _oracle_lfp(p):
    cur = frozenset()
    while True:
        nxt = cur | _oracle_round(p, cur)
        if nxt == cur:
            return cur
        cur = nxt


def _random_positive_programs(count):
    rnd = random.Random(5)
    for seed in range(count):
        n = rnd.randint(1, 7)
        yield random_program(
            GeneratorConfig(
                seed,
                num_atoms=n,
                num_rules=rnd.randint(0, 10),
                max_head=rnd.randint(1, min(3, n)),
                max_pos_body=rnd.randint(0, min(3, n)),
                max_neg_body=0,
                neg_probability=0.0,
            )
        )


def _raw_engine_reducts(monkeypatch, seeds):
    """Every closure growth of the raw engine, on dense programs, one list
    per wfds call: the rules the closure held before, the rules added, the
    closure before and the kernel's result."""
    calls = []
    real = argumentation._close

    def spy(rounds, known, rules, cap=None, index=None):
        rules = list(rules)
        held, start = list(rounds.rules), tuple(known)
        got = real(rounds, known, rules, cap, index)
        calls[-1].append((held, rules, start, frozenset(got)))
        return got

    monkeypatch.setattr(argumentation, "_close", spy)
    for seed in seeds:
        calls.append([])
        wfds(
            random_program(
                GeneratorConfig(seed, num_atoms=10, num_rules=16, max_head=2,
                                max_pos_body=2, max_neg_body=2)
            ),
            Engine.RAW,
        )
    monkeypatch.undo()
    return calls


def _as_program(rules):
    """A positive program over ten atoms from (head mask, body mask) pairs."""
    return Program(
        [Rule(mask_atoms(h), mask_atoms(b)) for h, b in rules], atom_names(10)
    )


def test_lfp_matches_naive_oracle_iteration(monkeypatch):
    reducts = [r for call in _raw_engine_reducts(monkeypatch, range(1, 41)) for r in call]
    assert len(reducts) > 40
    # The raw engine grows one closure along the hypothesis chain, pruned by
    # subsumption: each growth lies within the reduct's closure and has its
    # subset-minimal members.
    assert sum(bool(start) for _, _, start, _ in reducts) > 20
    for held, added, start, got in reducts:
        for clauses, rules in ((got, held + added), (start, held)):
            want = _oracle_lfp(_as_program(rules))
            clauses = {mask_atoms(d) for d in clauses}
            assert clauses <= want
            assert canonicalize(clauses) == canonicalize(want)
    programs = list(_random_positive_programs(200))
    programs += [_as_program(held + added) for held, added, _, _ in reducts]
    for q in programs:
        assert tps_lfp(q) == _oracle_lfp(q)


# (head mask, body mask) pairs over six atoms, heads nonempty.
_RULES = st.lists(st.tuples(st.integers(1, 63), st.integers(0, 63)), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_RULES, st.data())
def test_lfp_resumes_from_a_prefix_fixpoint(rules, data):
    k = data.draw(st.integers(0, len(rules)))
    whole = _lfp_masks(rules)
    rounds, known = _Rounds(), set()
    _close(rounds, known, rules[:k])
    assert _close(rounds, known, rules[k:]) == whole
    assert {mask_atoms(d) for d in whole} == _oracle_lfp(_as_program(rules))


def test_kernel_matches_the_oracle_on_bodies_of_up_to_three_slots():
    # _lfp_masks, and _close grown in two parts with and without a held-clause
    # index, on random rule sets whose bodies have 0 to 3 slots; the cap
    # passes at the limit's size and raises one below it, an empty limit
    # (cap -1) included.
    rnd = random.Random(29)
    empty = three_slots = 0
    for _ in range(400):
        n = rnd.randint(1, 6)
        rules = []
        for _ in range(rnd.randint(0, 8)):
            head = atom_mask(rnd.sample(range(n), rnd.randint(1, min(3, n))))
            body = atom_mask(rnd.sample(range(n), rnd.randint(0, min(3, n))))
            rules.append((head, body))
            three_slots += body.bit_count() == 3
        want = _oracle_lfp(_as_program(rules))
        got = _lfp_masks(rules)
        assert {mask_atoms(d) for d in got} == want, rules
        k = rnd.randint(0, len(rules))
        for index in (None, {}):
            rounds, known = _Rounds(), set()
            _close(rounds, known, rules[:k], None, index)
            _close(rounds, known, rules[k:], None, index)
            if index is None:
                assert known == got, rules
            else:
                assert known <= got, rules
                assert canonicalize({mask_atoms(d) for d in known}) == canonicalize(want)
        assert _lfp_masks(rules, len(got)) == got
        with pytest.raises(CapacityError):
            _lfp_masks(rules, len(got) - 1)
        empty += not got
    assert empty > 20 and three_slots > 100


def test_raw_engine_computes_each_reduct_once(monkeypatch):
    # Literal sets that keep the same rules share one reduct; each positive
    # part joins the closure at most once per wfds call.
    for seed, call in enumerate(_raw_engine_reducts(monkeypatch, range(1, 41)), 1):
        added = [rule for _, rules, _, _ in call for rule in rules]
        assert len(added) == len(set(added)), seed


def test_step_matches_oracle_round():
    rnd = random.Random(9)
    for p in _random_positive_programs(200):
        clauses = sorted(_oracle_lfp(p), key=sorted)
        for _ in range(3):
            j = [d for d in clauses if rnd.random() < 0.5]
            j += [frozenset(rnd.sample(sorted(p.base), rnd.randint(1, len(p.base))))]
            assert tps_step(p, j) == _oracle_round(p, j)


def test_lfp_requires_positive_program():
    p = parse_program("a :- not b.")
    with pytest.raises(ValueError):
        tps_lfp(p)


def test_step_requires_positive_program():
    p = parse_program("a :- not b.")
    with pytest.raises(ValueError):
        tps_step(p, set())


def test_parsed_positive_programs_match_the_program_of_their_rules():
    # A parsed positive program reads its mask triples; the program built
    # from its decoded Rules must give the same answers.
    rnd = random.Random(42)
    for seed in range(60):
        cfg = GeneratorConfig(seed, 6, 8, max_neg_body=0, neg_probability=0.0)
        text = render_program(random_program(cfg))
        p = parse_program(text)
        q = Program(parse_program(text).rules, p.atom_names)
        lfp = tps_lfp(p)
        assert lfp == tps_lfp(q)
        assert least_model_state(p) == least_model_state(q)
        for _ in range(3):
            j = [d for d in lfp if rnd.random() < 0.5]
            assert tps_step(p, j) == tps_step(q, j)
        assert p._rules is None


def test_parsed_negation_is_rejected():
    p = parse_program("a :- b, not c. b.")
    for program in (p, Program(p.rules, p.atom_names)):
        for call in (lambda: tps_lfp(program), lambda: tps_step(program, set()),
                     lambda: least_model_state(program)):
            with pytest.raises(ValueError, match="positive program"):
                call()


def test_step_resolves_body_atom_against_premise():
    p = parse_program("a :- b. b | c | d.")
    got = tps_step(p, {atoms(p, "b c d")})
    assert atoms(p, "a c d") in got
    assert atoms(p, "b c d") in got


def test_step_fact_fires_from_empty():
    p = parse_program("g.")
    assert tps_step(p, set()) == {atoms(p, "g")}


def test_step_tautology_derives_nothing_from_nothing():
    p = parse_program("a :- a.")
    assert tps_lfp(p) == frozenset()


def test_lfp_keeps_raw_non_minimal_members():
    p = parse_program("a. a | b.")
    assert tps_lfp(p) == {atoms(p, "a"), atoms(p, "a b")}


def test_lfp_of_guarded_chain():
    p = parse_program("a | b :- c. c | e :- g. g.")
    got = tps_lfp(p)
    assert {atoms(p, "g"), atoms(p, "c e"), atoms(p, "a b e")} <= got


def test_lfp_empty_program():
    p = parse_program("")
    assert tps_lfp(p) == frozenset()


def test_least_model_state_canonicalizes():
    p = parse_program("a. a | b.")
    assert least_model_state(p) == {atoms(p, "a")}


def test_least_model_state_of_chain():
    p = parse_program("a :- b. b | c | d.")
    assert least_model_state(p) == {atoms(p, "a c d"), atoms(p, "b c d")}


def test_entailment_examples():
    p = parse_program("a :- b. b | c | d.")
    assert entails_classical(p, atoms(p, "a c d"))
    assert not entails_classical(p, atoms(p, "b"))
    q = parse_program("a.")
    assert entails_classical(q, atoms(q, "a"))


def test_entailment_bound_raises():
    p = parse_program("a.")
    with pytest.raises(CapacityError):
        entails_classical(p, atoms(p, "a"), bound=0)


def test_lfp_monotone_in_program():
    base = parse_program("a :- b. b | c.")
    more = parse_program("a :- b. b | c. b.")
    small = {frozenset(base.atom_names[x] for x in d) for d in tps_lfp(base)}
    big = {frozenset(more.atom_names[x] for x in d) for d in tps_lfp(more)}
    assert small <= big


def test_least_model_state_is_antichain():
    for seed in range(8):
        p = random_program(
            GeneratorConfig(seed, num_atoms=5, num_rules=6, neg_probability=0.0)
        )
        core = least_model_state(p)
        assert not any(a < b for a in core for b in core)


def test_fixpoint_matches_classical_entailment_oracle():
    # Membership in the canonical least model state, read through
    # subsumption, coincides with classical entailment.
    for seed in range(25):
        p = random_program(
            GeneratorConfig(
                seed, num_atoms=6, num_rules=8, neg_probability=0.0
            )
        )
        core = least_model_state(p)
        for k in range(1, 4):
            for combo in itertools.combinations(sorted(p.base), k):
                d = frozenset(combo)
                derived = any(subsumes(b, d) for b in core)
                assert derived == entails_classical(p, d)
