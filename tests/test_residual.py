import gc
import random
import time
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from dwfs import (
    CapacityError,
    Engine,
    GeneratorConfig,
    Hypothesis,
    Rule,
    TransformKind,
    admissible,
    applicable,
    apply,
    attacks,
    bd_semantics_axioms,
    classic_reduction,
    cons,
    derives,
    is_s_implication,
    dwfs_classic,
    dwfs_star,
    lft,
    parse_program,
    random_program,
    render_program,
    strong_reduction,
    strong_residual,
    tpg_step,
    uwfs,
    wfds,
)
import dwfs.fixpoint as fixpoint
import dwfs.residual as residual
from dwfs.argumentation import _Session
from dwfs.core import (
    ModelState,
    atom_mask,
    decode_facts,
    heads_mask,
    mask_atoms,
    minimal_masks,
)
from dwfs.harness import check_equivalence
from dwfs.residual import (
    classic_residual,
    residual_trace,
    saturated_program,
    saturation,
    superseded,
)
from dwfs.transforms import s_implies
from conftest import (
    ATTACK_DEMO,
    GUARD,
    PIPELINE,
    SATURATE,
    SATURATE_LFT,
    TRAVEL,
    atoms,
    state,
)


def _fact(p, head, neg=""):
    return Rule(atoms(p, head), frozenset(), atoms(p, neg))


def test_tpg_rejects_non_facts_in_premises():
    p = parse_program("a :- b.")
    with pytest.raises(ValueError):
        tpg_step(p, {Rule(atoms(p, "a"), atoms(p, "b"))})


def test_rule_level_reductions_reject_a_positive_body():
    # "a :- b." is no conditional fact: read as "a." it would supersede
    # "a | c.", so every Rule-level entry point rejects it instead.
    p = parse_program("a :- b. a | c.")
    for call in (superseded, strong_reduction, classic_reduction, residual.reduction_pass):
        with pytest.raises(ValueError):
            call(p.rules)


def test_tpg_step_negative_rules_enter_directly():
    p = parse_program("a :- not b. c | d.")
    got = tpg_step(p, frozenset())
    assert _fact(p, "a", neg="b") in got
    assert _fact(p, "c d") in got


def test_tpg_step_no_premise_no_resolvent():
    p = parse_program("a :- b.")
    assert tpg_step(p, frozenset()) == frozenset()


def test_tpg_step_resolution_carries_delayed_negation():
    p = parse_program(SATURATE)
    j = frozenset()
    for _ in range(3):
        j = j | tpg_step(p, j)
    assert _fact(p, "l p", neg="w") in j


def test_saturation_of_worked_example_is_exact():
    p = parse_program(SATURATE)
    assert p.with_rules(lft(p)) == parse_program(SATURATE_LFT)


def test_saturation_of_negative_program_is_itself():
    p = parse_program("a :- not b. c | d :- not e.")
    assert lft(p) == frozenset(p.rules)


def _subsumption_minimal(facts):
    return frozenset(
        f
        for f in facts
        if not any(
            g != f and g.head <= f.head and g.neg_body <= f.neg_body for g in facts
        )
    )


# Programs where resolving one body atom leaves the rest of the body in the
# head: resolving a in "c :- a, b." against "a | b." alone would leave
# "c | b :- b.", a tautology. The hyperresolution rounds resolve every body
# atom at once, so "c :- a, b." joins "a | b." on both slots into
# "a | b | c.", which "a | b." subsumes.
_LATE_TAUTOLOGIES = [
    "a | b. c :- a, b.",
    "a | b :- not x. c :- a, b, not y. d :- c.",
    "a | b. b | c. d :- a, b, c.",
    "a | c. b :- a. d :- b, c, not e.",
    "a | b. c | a :- b. d :- a, c. e :- d, not c.",
    "a | b | c :- not d. e :- a, c. f :- b, e.",
]


def test_saturation_agrees_with_naive_iteration():
    programs = [random_program(GeneratorConfig(seed, num_atoms=4, num_rules=5))
                for seed in range(15)]
    programs += [parse_program(text) for text in _LATE_TAUTOLOGIES]
    # Criterion-2 programs, with bodies of up to three atoms.
    programs += [random_program(GeneratorConfig(seed, 6, 8)) for seed in range(1, 41)]
    for p in programs:
        naive: frozenset = frozenset()
        while True:
            nxt = naive | tpg_step(p, naive)
            if nxt == naive:
                break
            naive = nxt
        assert lft(p) == naive
        assert saturation(p) == _subsumption_minimal(naive)
    pruned = 0
    for seed in range(60):
        p = random_program(
            GeneratorConfig(seed + 3300, num_atoms=6, num_rules=8, max_head=3,
                            max_pos_body=2, max_neg_body=2)
        )
        full = lft(p)
        assert saturation(p) == _subsumption_minimal(full)
        pruned += len(saturation(p)) < len(full)
    assert pruned > 20
    # The bench's sparse family, and the dense family but for seed 6, whose
    # lft takes seconds.
    programs = [
        random_program(GeneratorConfig(seed, 18 + seed % 7, 18 + seed % 7, 2, 1, 2))
        for seed in range(1, 61)
    ]
    programs += [
        random_program(GeneratorConfig(seed, 10, 16, 2, 2, 2))
        for seed in range(1, 26)
        if seed != 6
    ]
    for p in programs:
        assert saturation(p) == _subsumption_minimal(lft(p))


def test_saturation_capacity_cap():
    p = parse_program("a | b. c | d :- not e.")
    with pytest.raises(CapacityError):
        lft(p, cap=1)
    with pytest.raises(CapacityError):
        saturation(p, cap=1)


def test_lft_cap_counts_facts_exactly():
    # The cap bounds lft's facts, not the work or the partial rules on the way.
    for seed in range(100):
        p = random_program(GeneratorConfig(seed, 6, 8))
        n = len(lft(p))
        assert len(lft(p, cap=n)) == n
        with pytest.raises(CapacityError):
            lft(p, cap=n - 1)


def test_capped_lft_raises_before_a_join_passes_the_cap(monkeypatch):
    # Joined whole, one join of this program holds 437,227 clauses (2.2
    # times the cap) before the cap is tested. Joined one partial join at a
    # time, each join stops within one last slot's size of the cap.
    p = random_program(GeneratorConfig(9605, 300, 600, max_head=1, max_pos_body=2,
                                       max_neg_body=2, neg_probability=0.9))
    cap = 200_000
    real, joins = fixpoint._join_capped, []

    def spy(out, head, slots, limit, held):
        try:
            real(out, head, slots, limit, held)
        finally:
            joins.append((held + len(out), len(slots[-1])))

    monkeypatch.setattr(fixpoint, "_join_capped", spy)
    with pytest.raises(CapacityError, match=f"exceeded {cap} stored rules"):
        lft(p, cap)
    assert all(size <= cap + last for size, last in joins)
    assert joins[-1][0] > cap


def test_saturation_cap_holds_after_memo():
    p = parse_program(SATURATE)
    facts = saturation(p)
    assert saturation(p, cap=100) == facts
    with pytest.raises(CapacityError):
        saturation(p, cap=1)
    assert saturation(p) == facts
    assert decode_facts(saturated_program(p).facts) == saturation(p)
    with pytest.raises(CapacityError):
        saturated_program(p, cap=1)


def test_blow_up_program_saturates_small_and_fast():
    # Its unpruned lft keeps 5,213 facts (see test_lft_of_blow_up_program).
    p = random_program(
        GeneratorConfig(seed=0, num_atoms=10, num_rules=16, max_head=2,
                        max_pos_body=2, max_neg_body=2)
    )
    start = time.perf_counter()
    assert len(saturation(p)) == 10
    states = [wfds(p), wfds(p, Engine.RAW), dwfs_star(p), dwfs_classic(p), uwfs(p)]
    elapsed = time.perf_counter() - start
    assert all(s == states[0] for s in states)
    assert elapsed < 2.0


def test_lft_of_blow_up_program():
    # The time bound is over ten times what lft takes on a 2-core machine.
    p = random_program(GeneratorConfig(0, 10, 16, 2, 2, 2))
    start = time.perf_counter()
    assert len(lft(p)) == 5213
    assert time.perf_counter() - start < 20


def test_strong_reduction_removes_moved_implication():
    p = parse_program(TRAVEL)
    n = frozenset(p.rules)
    assert strong_reduction(n) == {_fact(p, "l p")}


def test_strong_reduction_deletes_dead_literal():
    p = parse_program("a :- not b.")
    assert strong_reduction(frozenset(p.rules)) == {_fact(p, "a")}


def test_strong_reduction_empty():
    assert strong_reduction(frozenset()) == frozenset()


def test_strong_reduction_shrinks():
    for seed in range(15):
        p = random_program(GeneratorConfig(seed, num_atoms=5, num_rules=6))
        n = lft(p)
        reduced = strong_reduction(n)
        assert len(reduced) <= len(n)
        assert sum(len(r.head) + len(r.neg_body) for r in reduced) <= sum(
            len(r.head) + len(r.neg_body) for r in n
        )


def test_residual_of_pipeline():
    p = parse_program(PIPELINE)
    assert strong_residual(p) == {
        _fact(p, "p1 p2"),
        _fact(p, "p3 p4"),
        _fact(p, "q"),
    }


def test_residual_of_travel():
    p = parse_program(TRAVEL)
    assert strong_residual(p) == {_fact(p, "l p")}


def test_residual_of_positive_fact():
    p = parse_program("a | b.")
    assert strong_residual(p) == {_fact(p, "a b")}


def test_residual_invariant_under_transformations():
    for seed in range(25):
        p = random_program(GeneratorConfig(seed + 100, num_atoms=5, num_rules=5))
        value = strong_residual(p)
        for kind in TransformKind:
            for step in applicable(p, kind)[:2]:
                assert strong_residual(apply(p, step)) == value


def test_read_off_values():
    p = parse_program(TRAVEL)
    assert dwfs_star(p) == state(p, pos=["l p"], false="b")
    q = parse_program(PIPELINE)
    got = dwfs_star(q)
    assert got == state(q, pos=["p1 p2", "p3 p4", "q"], false="p w")
    g = parse_program(GUARD)
    assert dwfs_star(g) == state(g, pos=["a b"], false="c")


def test_read_off_satisfies_structural_axioms():
    for seed in range(20):
        p = random_program(GeneratorConfig(seed, num_atoms=5, num_rules=6))
        assert bd_semantics_axioms(dwfs_star(p), p)


def test_semantics_invariant_under_saturation():
    for seed in range(15):
        p = random_program(GeneratorConfig(seed + 40, num_atoms=5, num_rules=5))
        saturated = p.with_rules(lft(p))
        assert wfds(saturated) == wfds(p)
        assert dwfs_star(saturated) == dwfs_star(p)


def test_classic_reduction_weaker_than_strong():
    p = parse_program(TRAVEL)
    n = frozenset(p.rules)
    assert classic_reduction(n) == n
    q = parse_program("a :- not b.")
    assert classic_reduction(frozenset(q.rules)) == {_fact(q, "a")}
    r = parse_program("a. a | b.")
    assert classic_reduction(frozenset(r.rules)) == {_fact(r, "a")}


def test_classic_negative_reduction():
    p = parse_program("c :- not a, not b. a | b.")
    assert classic_residual(p) == {_fact(p, "a b")}


def test_classic_value_on_travel_lacks_negative():
    p = parse_program(TRAVEL)
    assert dwfs_classic(p) == state(p, pos=["l p"])


def test_classic_value_matches_strong_on_attack_demo():
    p = parse_program(ATTACK_DEMO)
    want = state(p, pos=["a b", "d"], false="c")
    assert dwfs_classic(p) == want
    assert dwfs_star(p) == want


def test_classic_included_in_strong():
    from dwfs import satisfies_negative, satisfies_positive
    import itertools

    for seed in range(25):
        p = random_program(GeneratorConfig(seed + 900, num_atoms=5, num_rules=6))
        weak, strong = dwfs_classic(p), dwfs_star(p)
        for k in range(1, 4):
            for combo in itertools.combinations(sorted(p.base), k):
                d = frozenset(combo)
                if satisfies_positive(weak, d):
                    assert satisfies_positive(strong, d)
                if satisfies_negative(weak, d):
                    assert satisfies_negative(strong, d)


def test_trace_reaches_residual():
    p = parse_program(PIPELINE)
    saturated, passes, residual = residual_trace(p)
    assert saturated == lft(p)
    assert residual == strong_residual(p)
    assert passes
    steps, after = passes[0]
    assert steps
    assert all(s.kind in (TransformKind.ELIM_S_IMPLICATION, TransformKind.POSITIVE_REDUCTION) for s in steps)
    assert after == strong_reduction(saturated)
    # b heads no rule, so the first pass deletes "not b" from a's rule.
    q = parse_program("a :- not b.\nc | d :- not a.")
    _, passes, _ = residual_trace(q)
    (step,) = [s for s in passes[0][0] if s.kind is TransformKind.POSITIVE_REDUCTION]
    assert step.added == {Rule(atoms(q, "a"))}


def _superseded_by_rules(fact, others, assumed_false):
    red = Rule(fact.head, frozenset(), fact.neg_body - assumed_false)
    for g in others:
        gred = Rule(g.head, frozenset(), g.neg_body - assumed_false)
        if gred != red and is_s_implication(red, gred):
            return True
    return False


def test_superseded_matches_rule_definition():
    rnd = random.Random(11)
    hits = 0
    for seed in range(80):
        p = random_program(GeneratorConfig(seed + 3100, num_atoms=5, num_rules=6))
        facts = lft(p)
        for _ in range(3):
            assumed_false = frozenset(a for a in p.base if rnd.random() < 0.3)
            want = frozenset(
                f for f in facts if _superseded_by_rules(f, facts, assumed_false)
            )
            assert superseded(facts, assumed_false) == want
            hits += bool(want)
    assert hits > 50


def _superseded_all_pairs(facts, assumed_false):
    """superseded with every pair of fact forms tested: the definition the
    index by lowest head atom must reproduce."""
    off = ~atom_mask(assumed_false)
    by_form = defaultdict(list)
    for r in facts:
        by_form[atom_mask(r.head), atom_mask(r.neg_body) & off].append(r)
    return frozenset(
        r
        for h1, n1 in by_form
        if any(s_implies(h1, 0, n1, h2, 0, n2) for h2, n2 in by_form)
        for r in by_form[h1, n1]
    )


def _classic_reduction_all_pairs(facts):
    """classic_reduction with every pair of facts compared."""
    heads = frozenset().union(*(r.head for r in facts))
    return frozenset(
        Rule(r.head, frozenset(), r.neg_body & heads)
        for r in facts
        if not any(
            g != r and g.head <= r.head and g.neg_body <= r.neg_body for g in facts
        )
        and not any(not g.neg_body and g.head <= r.neg_body for g in facts)
    )


# (head mask, negative body mask) fact pairs over six atoms, heads
# nonempty. Heads and negative bodies come from small pools, so that equal
# heads, unconditional facts and forms that coincide once false atoms are
# discounted are common.
_HEADS = st.sampled_from([1, 2, 3, 4, 6, 7, 12, 32, 33, 48])
_NEGS = st.sampled_from([0, 0, 1, 2, 3, 4, 8, 12, 16, 24, 48])
_FACT_PAIRS = st.frozensets(st.tuples(_HEADS, _NEGS), max_size=12)


@settings(max_examples=400, deadline=None)
@given(_FACT_PAIRS, st.integers(0, 63))
def test_subsumption_kernel_matches_all_pairs_s_implies(facts, false):
    off = ~false
    want = frozenset(
        (h1, n1)
        for h1, n1 in facts
        if any(s_implies(h1, 0, n1 & off, h2, 0, n2 & off) for h2, n2 in facts)
    )
    assert residual._superseded_masks(facts, false) == want
    # The live facts whose negative body lies within false carry exactly the
    # subset-minimal heads of those facts (the canonical engine's support).
    live = facts - residual._superseded_masks(facts, false)
    assert {h for h, n in live if not n & ~false} == set(
        minimal_masks(h for h, n in facts if not n & ~false)
    )
    assert decode_facts(residual._reduce(facts, True)) == _classic_reduction_all_pairs(
        decode_facts(facts)
    )


def test_indexed_scans_match_all_pairs_on_sparse_saturations():
    rnd = random.Random(12)
    hits = checked = 0
    for seed in range(60):
        size = 18 + seed % 7
        p = random_program(GeneratorConfig(seed + 3700, num_atoms=size, num_rules=size,
                                           max_head=2, max_pos_body=1, max_neg_body=2))
        facts = saturation(p)
        assert classic_reduction(facts) == _classic_reduction_all_pairs(facts)
        for _ in range(4):
            assumed_false = frozenset(a for a in p.base if rnd.random() < rnd.random())
            want = _superseded_all_pairs(facts, assumed_false)
            assert superseded(facts, assumed_false) == want
            hits += bool(want)
            checked += 1
    assert checked == 240 and hits > 100


def test_each_false_set_is_superseded_once_per_saturation(monkeypatch):
    # Every route reads the route memo's supersession table, so across
    # check_equivalence's routes and rounds no (saturation, key) pair
    # reaches _superseded_masks, the supersession behind live_in, twice. The
    # key is the false set's atoms that lie in some negative body (negs).
    real = residual._superseded_masks
    calls = []

    def spy(facts, false=0):
        facts = frozenset(facts)
        calls.append((facts, false))
        return real(facts, false)

    monkeypatch.setattr(residual, "_superseded_masks", spy)
    programs = [
        random_program(GeneratorConfig(seed + 3700, num_atoms=18 + seed % 7,
                                       num_rules=18 + seed % 7, max_head=2,
                                       max_pos_body=1, max_neg_body=2))
        for seed in range(30)
    ] + [
        random_program(GeneratorConfig(seed + 9200, num_atoms=10, num_rules=16,
                                       max_head=2, max_pos_body=2, max_neg_body=2))
        for seed in range(12)
    ]
    several = 0  # programs whose saturation got more than one table
    for p in programs:
        calls.clear()
        report = check_equivalence(p)
        assert report.equal and not report.errors
        q = residual.route_program(p)
        keys = [false for got, false in calls if got == q.facts]
        assert len(keys) == len(set(keys)), p
        assert 0 in keys and all(not false & ~q.negs for false in keys)
        several += len(keys) > 1
    assert several > len(programs) // 3


def _fixpoint(step, n):
    while (nxt := step(n)) != n:
        n = nxt
    return n


def _strong_reduction_all_pairs(facts):
    """strong_reduction with every pair of fact forms tested."""
    heads = frozenset().union(*(r.head for r in facts))
    return frozenset(
        Rule(r.head, frozenset(), r.neg_body & heads)
        for r in facts - _superseded_all_pairs(facts, frozenset())
    )


def _residual_programs():
    for seed in range(200):  # criterion 2
        yield random_program(GeneratorConfig(seed, num_atoms=6, num_rules=8))
    for seed in range(60):  # sparse, 18 to 24 atoms
        n = 18 + seed % 7
        yield random_program(GeneratorConfig(seed, num_atoms=n, num_rules=n, max_head=2,
                                             max_pos_body=1, max_neg_body=2))
    for seed in range(1, 61):  # dense
        yield random_program(GeneratorConfig(seed, num_atoms=10, num_rules=16, max_head=2,
                                             max_pos_body=2, max_neg_body=2))


def test_mask_level_residual_loops_match_all_pairs_references():
    # The residual fixpoints run on the saturation's mask pairs; the
    # references iterate the Rule-level all-pairs definitions from the
    # decoded saturation.
    reduced = 0
    for p in _residual_programs():
        facts = saturation(p)
        want = _fixpoint(_strong_reduction_all_pairs, facts)
        assert strong_residual(p) == want, p
        assert classic_residual(p) == _fixpoint(_classic_reduction_all_pairs, facts), p
        reduced += want != facts
    assert reduced > 100


def test_route_memo_is_the_saturation_less_what_unit_facts_supersede(monkeypatch):
    # The routes read route_program(p): the unreduced saturation's facts
    # less those whose negative body meets the unit atoms. Under every false
    # set check_equivalence's routes reach, and under random ones that miss
    # the unit atoms, both have the same live table.
    real = residual.live_in
    reached = []

    def spy(q, false=0):
        reached.append(false)
        return real(q, false)

    monkeypatch.setattr(residual, "live_in", spy)
    rnd = random.Random(21)
    dropped = compared = 0
    for p in _residual_programs():
        reached.clear()
        report = check_equivalence(p)
        assert report.equal and not report.errors
        q = residual.route_program(p)
        units = q.units
        spec = saturated_program(p)
        facts = residual.fact_masks(spec)
        assert units == heads_mask(h for h, n in facts if not n and not h & (h - 1))
        assert residual.fact_masks(q) == frozenset((h, n) for h, n in facts if not n & units)
        dropped += len(facts) - len(residual.fact_masks(q))
        width = len(p.atom_names)
        randoms = {rnd.getrandbits(width) & ~units for _ in range(4)}
        for false in set(reached) | randoms:
            assert not false & units, p
            assert residual._live_facts(q, false) == residual._live_facts(spec, false), (p, false)
            compared += 1
    assert dropped > 100 and compared > 1000


def test_saturation_keeping_has_the_specifications_live_table():
    # For literals that meet the unit atoms, the one-shot argumentation
    # calls read the saturation reduced by the unit atoms outside the
    # literals: the unreduced saturation's facts less those whose negative
    # body meets a unit atom outside them, with the unreduced saturation's
    # live table under those literals.
    rnd = random.Random(22)
    compared = 0
    for p in _residual_programs():
        units = residual.route_program(p).units
        if not units:
            continue
        spec = saturated_program(p)
        facts = residual.fact_masks(spec)
        width = len(p.atom_names)
        for _ in range(3):
            unit = rnd.choice([1 << a for a in range(width) if units >> a & 1])
            lits = rnd.getrandbits(width) & rnd.getrandbits(width) | unit
            keep = lits & units
            q = saturated_program(p, keep=keep)
            dropped = units & ~keep
            assert residual.fact_masks(q) == frozenset((h, n) for h, n in facts
                                                       if not n & dropped), p
            want = residual._live_facts(spec, lits)
            assert residual._live_facts(q, lits) == want, (p, lits)
            assert _Session(p, Engine.CANONICAL, keep=False).live(lits) == want, (p, lits)
            compared += 1
    assert compared > 300


def test_routes_never_compute_the_specification_memo(monkeypatch):
    # On the bench families, check_equivalence, dwfs_classic and both
    # residual programs compute one saturation memo, the route memo (keep
    # 0). The one-shot cons, derives, attacks and admissible compute no
    # other memo; on hypotheses that meet the unit atoms they saturate
    # keeping those atoms, never unreduced (keep -1).
    real = residual.saturated_program
    memos = []

    def spy(p, cap=None, keep=-1):
        memos.append(keep)
        return real(p, cap, keep)

    monkeypatch.setattr(residual, "saturated_program", spy)
    configs = [GeneratorConfig(seed, 6, 8, 3, 3, 3, 0.5) for seed in range(40)]
    configs += [GeneratorConfig(seed, 5, 7, 1, 2, 2, 0.7) for seed in range(40)]
    configs += [GeneratorConfig(seed, 5, 6, 3, 3, 3, 0.0) for seed in range(40)]
    configs += [GeneratorConfig(seed, 10, 16, 2, 2, 2, 0.5) for seed in range(40)]
    configs += [GeneratorConfig(seed, 18 + seed % 7, 18 + seed % 7, 2, 1, 2, 0.5)
                for seed in range(40)]
    rnd = random.Random(560)
    met = 0
    for cfg in configs:
        memos.clear()
        p = random_program(cfg)
        report = check_equivalence(p)
        assert report.equal and not report.errors
        dwfs_classic(p)
        strong_residual(p)
        classic_residual(p)
        assert memos == [0], cfg
        n = len(p.atom_names)
        units = residual.route_program(p).units
        for _ in range(4):
            lits = rnd.getrandbits(n) & rnd.getrandbits(n)
            if units and rnd.random() < 0.5:
                lits |= 1 << rnd.choice([a for a in range(n) if units >> a & 1])
            met += bool(lits & units)
            delta = Hypothesis(mask_atoms(lits))
            for engine in Engine:
                cons(p, delta, engine)
                derives(p, delta, frozenset((rnd.randrange(n),)), engine)
                attacks(p, delta, Hypothesis(mask_atoms(rnd.getrandbits(n))), engine)
                admissible(p, delta, rnd.randrange(n), engine)
        assert all(keep and not keep & ~units for keep in memos[1:]), cfg
    assert met > 100


def _saturations_reachable(p):
    """The Saturation records reachable from p through object references."""
    found, seen, stack = [], set(), [p]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        if isinstance(x, residual.Saturation):
            found.append(x)
        stack.extend(gc.get_referents(x))
    return found


def test_unreduced_saturation_is_kept_nowhere(monkeypatch):
    # saturation(p) builds the unreduced saturation afresh on each call and
    # leaves no memo on p; check_equivalence and one-shot calls about a unit
    # atom leave the route memo as the one saturation reachable from p.
    real = residual._saturate
    runs = []

    def spy(rules, width, limit, keep):
        runs.append(keep)
        return real(rules, width, limit, keep)

    monkeypatch.setattr(residual, "_saturate", spy)
    p = parse_program("a.\nb | c :- a, not d.\nd :- not b.\ne :- c, not a.\n")
    first = saturation(p)
    assert saturation(p) == first
    assert runs == [-1, -1] and p._reduced is None
    assert _saturations_reachable(p) == []
    report = check_equivalence(p)
    assert report.equal and not report.errors
    a = p.atom_id("a")
    assert residual.route_program(p).units == 1 << a
    delta = Hypothesis({a})
    assert frozenset({a}) in cons(p, delta)
    assert not admissible(p, delta, a)
    assert runs == [-1, -1, 0, 1 << a, 1 << a]
    assert _saturations_reachable(p) == [p._reduced]


def _decode_test_programs():
    """90 programs: criterion-2, sparse 18 to 24 atoms and dense."""
    programs = [random_program(GeneratorConfig(seed, num_atoms=6, num_rules=8))
                for seed in range(40)]
    programs += [
        random_program(GeneratorConfig(seed, num_atoms=n, num_rules=n, max_head=2,
                                       max_pos_body=1, max_neg_body=2))
        for seed, n in enumerate((18, 21, 24) * 10)
    ]
    programs += [random_program(GeneratorConfig(seed, num_atoms=10, num_rules=16, max_head=2,
                                                max_pos_body=2, max_neg_body=2))
                 for seed in range(1, 21)]
    return programs


def test_recorded_peak_is_the_exact_cap_boundary():
    # Each saturation records the most rules it held at once, and that peak
    # is the least cap that passes: one below it raises CapacityError, on
    # the Program that holds the route memo and on a fresh one. The
    # unreduced saturation is built afresh on each call, to the same record.
    for text in [render_program(p) for p in _decode_test_programs()]:
        for memo in (saturated_program, residual.route_program):
            p = parse_program(text)
            q = memo(p)
            again = memo(p, q.peak)
            if memo is residual.route_program:
                assert again is q
            assert (again.peak, again.facts, again.units) == (q.peak, q.facts, q.units)
            with pytest.raises(CapacityError):
                memo(p, q.peak - 1)
            fresh = memo(parse_program(text), q.peak)
            assert (fresh.peak, fresh.facts, fresh.units) == (q.peak, q.facts, q.units)
            with pytest.raises(CapacityError):
                memo(parse_program(text), q.peak - 1)


def test_route_memo_matches_iterating_tpg_step():
    # The route memo is the subset-minimal facts of the limit of tpg_step
    # less those whose negative body meets a unit atom, on bodies of up to
    # three atoms; its peak is the exact cap boundary.
    programs = [random_program(GeneratorConfig(seed, 6, 8)) for seed in range(100, 160)]
    programs += [random_program(GeneratorConfig(seed, 5, 6, 3, 3, 3, 0.0))
                 for seed in range(20)]
    for p in programs:
        naive: frozenset = frozenset()
        while (nxt := naive | tpg_step(p, naive)) != naive:
            naive = nxt
        q = residual.route_program(p)
        units = heads_mask(r.head_mask for r in naive if r.is_fact and len(r.head) == 1)
        want = {r for r in _subsumption_minimal(naive) if not r.neg_mask & units}
        assert decode_facts(q.facts) == want, p
        assert q.units == units
        text = render_program(p)
        assert residual.route_program(parse_program(text), q.peak).peak == q.peak
        with pytest.raises(CapacityError):
            residual.route_program(parse_program(text), q.peak - 1)


def test_a_failing_saturation_runs_once_per_cap(monkeypatch):
    # The route memo remembers the cap its saturation exceeded: every route
    # of check_equivalence raises CapacityError off one saturation, a later
    # call at or below that cap raises without saturating again, and a
    # larger cap saturates again and succeeds.
    real = residual.saturated_program
    runs = []

    def spy(p, cap=None, keep=-1):
        runs.append(cap)
        return real(p, cap, keep)

    text = render_program(random_program(GeneratorConfig(1, 10, 16, 2, 2, 2)))
    peak = residual.route_program(parse_program(text)).peak
    monkeypatch.setattr(residual, "saturated_program", spy)
    monkeypatch.setattr(residual, "DEFAULT_LFT_CAP", peak - 1)
    p = parse_program(text)
    report = check_equivalence(p)
    assert set(report.errors) == {"wfds", "wfds-raw", "dwfs-star", "uwfs"}
    assert all(isinstance(e, CapacityError) for e in report.errors.values())
    assert runs == [peak - 1]
    for cap in (None, peak - 1, 0):
        with pytest.raises(CapacityError):
            residual.route_program(p, cap)
    assert runs == [peak - 1]
    q = residual.route_program(p, peak)
    assert q.peak == peak and residual.route_program(p, peak) is q
    assert runs == [peak - 1, peak]


def test_live_tables_are_keyed_by_the_false_atoms_in_negative_bodies():
    # Discounting false atoms reads only the negative bodies, so the route
    # memo's table under false atoms f is that under f & negs: it equals the
    # live facts built afresh, and false atoms outside negs read it again.
    rnd = random.Random(29)
    outside = 0
    programs = list(_residual_programs())
    programs += [random_program(GeneratorConfig(seed, 5, 6, 3, 3, 3, 0.0))
                 for seed in range(20)]
    for p in programs:
        q = residual.route_program(p)
        width = len(p.atom_names)
        assert q.negs == heads_mask(n for _, n in q.facts)
        for _ in range(4):
            f = rnd.getrandbits(width)
            got = residual.live_in(q, f)
            assert got == residual._live_facts(q, f), (p, f)
            g = rnd.getrandbits(width) & ~q.negs
            assert residual.live_in(q, f | g) is got
            assert residual.live_in(q, f & q.negs) is got
            outside += bool(g and f & ~g)
        assert all(not key & ~q.negs for key in q.live)
        if not q.negs:  # a positive program builds one table
            assert list(q.live) == [0]
    assert outside > 500


def test_routes_never_decode_the_saturation(monkeypatch):
    # The routes read the saturation's mask pairs: no Rule is built while
    # check_equivalence and dwfs_classic run, by either constructor.
    # Each saturation(p) call then builds the saturation afresh and decodes
    # each of its facts once, to an equal frozenset.
    built = []
    real_init, real_of = Rule.__init__, Rule._of.__func__

    def spy_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def spy_of(cls, *args):
        built.append(args)
        return real_of(cls, *args)

    programs = _decode_test_programs()
    monkeypatch.setattr(Rule, "__init__", spy_init)
    monkeypatch.setattr(Rule, "_of", classmethod(spy_of))
    for p in programs:
        report = check_equivalence(p)
        assert report.equal and not report.errors
        dwfs_classic(p)
        assert not built, p
    for p in programs:
        facts = saturation(p)
        assert len(built) == len(facts)
        assert saturation(p) == facts
        assert len(built) == 2 * len(facts)
        assert decode_facts(saturated_program(p).facts) == facts
        assert len(built) == 3 * len(facts)
        built.clear()


def test_routes_never_decode_a_parsed_programs_rules(monkeypatch):
    # parse_program builds mask triples and no Rule; check_equivalence,
    # dwfs_classic and both residual programs read the triples, so the
    # program's Rules are never decoded.
    built = []
    real_init, real_of = Rule.__init__, Rule._of.__func__

    def spy_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def spy_of(cls, *args):
        built.append(args)
        return real_of(cls, *args)

    texts = [render_program(p) for p in _decode_test_programs()]
    monkeypatch.setattr(Rule, "__init__", spy_init)
    monkeypatch.setattr(Rule, "_of", classmethod(spy_of))
    for text in texts:
        p = parse_program(text)
        assert not built and p._rules is None
        report = check_equivalence(p)
        assert report.equal and not report.errors
        dwfs_classic(p)
        assert not built
        strong_residual(p)
        classic_residual(p)
        assert p._rules is None, text
        built.clear()
    # Reading rules decodes each rule once, through Rule._of.
    p = parse_program(texts[-1])
    assert len(p.rules) == len(built) and p.rules is p.rules


def test_routes_never_decode_their_states(monkeypatch):
    # A route's state stays masks, uwfs's W steps included: no state is
    # decoded to atom sets while check_equivalence and dwfs_classic run.
    # Reading pos, then false_atoms, decodes a state once.
    decoded = []
    real = ModelState._decode

    def spy(self):
        decoded.append(self)
        return real(self)

    monkeypatch.setattr(ModelState, "_decode", spy)
    for p in _decode_test_programs():
        report = check_equivalence(p)
        assert report.equal and not report.errors
        states = [*report.states.values(), dwfs_classic(p)]
        assert not decoded, p
        for s in states:
            pos = s.pos
            assert s.pos is pos and s.false_atoms is s.false_atoms
            assert len(decoded) == 1 and decoded[0] is s
            decoded.clear()
