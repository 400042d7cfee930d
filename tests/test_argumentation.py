import itertools
import random
import signal
import time

import pytest

from dwfs import (
    Engine,
    GeneratorConfig,
    Hypothesis,
    admissible,
    attacks,
    check_equivalence,
    cons,
    derives,
    least_model_state,
    parse_program,
    random_program,
    reduct,
    render_program,
    self_consistent,
    state_consistent,
    wfdh,
    wfds,
)
from dwfs import harness, residual
from dwfs.argumentation import _Session
from dwfs.core import atom_mask, mask_atoms, minimal_masks
from conftest import (
    ATTACK_DEMO,
    EVEN_LOOP,
    HALF_LOOP,
    REDUCT_DEMO,
    SUPPORT_DEMO,
    TRAVEL,
    atoms,
    disj,
    lits,
    state,
)


def test_reduct_keeps_covered_rules_only():
    p = parse_program(REDUCT_DEMO)
    got = reduct(p, lits(p, "c"))
    want = parse_program("a :- b. b | c | d.")
    assert got.rule_names() == want.rule_names()


def test_reduct_of_guarded_rules():
    p = parse_program(SUPPORT_DEMO)
    got = reduct(p, lits(p, "e d f"))
    want = parse_program("a | b :- c. c | e :- g. g.")
    assert got.rule_names() == want.rule_names()


def test_reduct_empty_hypothesis_keeps_negation_free_rules():
    p = parse_program(SUPPORT_DEMO)
    got = reduct(p, Hypothesis())
    assert got.rule_names() == parse_program("g.").rule_names()


def test_derives_by_cancelling_assumed_atoms():
    p = parse_program(SUPPORT_DEMO)
    assert derives(p, lits(p, "e d f"), disj(p, "a b"))


def test_derives_engine_difference_on_subsumed_member():
    p = parse_program("a. a | b.")
    empty = Hypothesis()
    assert derives(p, empty, disj(p, "a"), Engine.CANONICAL)
    assert derives(p, empty, disj(p, "a"), Engine.RAW)
    assert not derives(p, empty, disj(p, "a b"), Engine.CANONICAL)
    assert derives(p, empty, disj(p, "a b"), Engine.RAW)


def test_raw_engine_skips_tautologies():
    # "a b" is derivable only through the tautology, which the raw engine
    # leaves out of every reduct. Without a tautology, "a. a | b." still
    # derives it raw (test_derives_engine_difference_on_subsumed_member).
    p = parse_program("a. a | b :- a.")
    empty = Hypothesis()
    assert derives(p, empty, disj(p, "a"), Engine.RAW)
    assert not derives(p, empty, disj(p, "a b"), Engine.RAW)
    # Only the tautology's member "x b" cancels into "b" under "not x".
    q = parse_program("x :- not x. b | x :- x.")
    assert not derives(q, lits(q, "x"), disj(q, "b"), Engine.RAW)
    assert attacks(q, lits(q, "x"), lits(q, "b"), Engine.RAW) is None
    assert wfds(p, Engine.RAW) == wfds(p, Engine.CANONICAL) == state(p, pos=["a"], false="b")


def test_derives_nothing_from_empty_program():
    r = parse_program("x :- not x.")
    empty_rules = r.with_rules([])
    assert not derives(empty_rules, Hypothesis(), disj(r, "x"))
    assert not derives(empty_rules, lits(r, "x"), disj(r, "x"))


def test_cons_cancels_into_canonical_core():
    p = parse_program(SUPPORT_DEMO)
    got = cons(p, lits(p, "e d f"))
    assert got == {disj(p, "g"), disj(p, "c"), disj(p, "a b")}


def test_cons_empty_hypothesis_is_least_model_state():
    from dwfs import least_model_state

    p = parse_program("a | b. c.")
    assert cons(p, Hypothesis()) == least_model_state(p)


def test_cons_on_travel_program():
    p = parse_program(TRAVEL)
    assert cons(p, lits(p, "b")) == {disj(p, "l p")}


def _support_is_reduct_least_model_state(p, delta):
    # The canonical engine reads its support set off the saturation; by
    # definition it is the least model state of the reduct.
    # Literal and support sets are atom masks inside the session.
    got = _Session(p, Engine.CANONICAL).support(atom_mask(delta.literal_assumptions))
    return {mask_atoms(m) for m in got} == least_model_state(reduct(p, delta))


def test_cons_equals_canonical_derivable_set():
    # Dual route: enumerate every positive disjunction and compare against
    # the member-wise cancellation.
    from dwfs import canonicalize

    for seed in range(12):
        p = random_program(GeneratorConfig(seed, num_atoms=4, num_rules=5))
        for bits in range(1 << 4):
            delta = Hypothesis(frozenset(a for a in range(4) if bits >> a & 1))
            derived = {
                frozenset(c)
                for k in range(1, 5)
                for c in itertools.combinations(range(4), k)
                if derives(p, delta, frozenset(c))
            }
            assert cons(p, delta) == canonicalize(derived)
            assert _support_is_reduct_least_model_state(p, delta)
    rnd = random.Random(5)
    for seed in range(40):
        p = random_program(
            GeneratorConfig(seed + 700, num_atoms=6, num_rules=8, max_head=3,
                            max_pos_body=2, max_neg_body=2)
        )
        for _ in range(5):
            delta = Hypothesis(frozenset(a for a in p.base if rnd.random() < 0.5))
            assert _support_is_reduct_least_model_state(p, delta)


def test_attack_on_assumption_pair():
    p = parse_program(ATTACK_DEMO)
    witness = attacks(p, lits(p, "a b"), lits(p, "c"))
    assert witness is not None
    assert witness.clause == 2
    assert witness.assumption_or_atoms == atoms(p, "c")


def test_attack_by_cancelling_into_target():
    p = parse_program("a | c :- not c.")
    witness = attacks(p, lits(p, "c"), lits(p, "a"))
    assert witness is not None


def test_no_attack_on_empty_target():
    p = parse_program(ATTACK_DEMO)
    assert attacks(p, lits(p, "a b"), Hypothesis()) is None


def test_attack_clause_one_disjunctive_assumption():
    p = parse_program("a. b.")
    target = Hypothesis(frozenset(), frozenset({atoms(p, "a b")}))
    witness = attacks(p, Hypothesis(), target)
    assert witness is not None
    assert witness.clause == 1


def test_attack_monotone_in_target():
    for seed in range(10):
        p = random_program(GeneratorConfig(seed, num_atoms=4, num_rules=5))
        base = sorted(p.base)
        for dbits in (0, 3, 5):
            delta = Hypothesis(frozenset(a for a in base if dbits >> a & 1))
            for tbits in range(1 << 4):
                t = frozenset(a for a in base if tbits >> a & 1)
                if attacks(p, delta, Hypothesis(t)) is not None:
                    bigger = t | {base[0]}
                    assert attacks(p, delta, Hypothesis(bigger)) is not None


def test_attack_witness_recheck(attack_demo):
    p = attack_demo
    delta = lits(p, "a b")
    witness = attacks(p, delta, lits(p, "c"))
    (derived,) = witness.derived
    assert derives(p, delta, derived)
    assert derived <= atoms(p, "c")


def test_self_consistency():
    p = parse_program("a | c :- not c.")
    # The hypothesis does not derive any disjunction inside its own
    # assumptions, so it does not attack itself.
    assert self_consistent(p, lits(p, "c"))
    assert self_consistent(p, Hypothesis())
    q = parse_program(ATTACK_DEMO)
    assert self_consistent(q, lits(q, "c"))


def test_self_attacking_hypothesis():
    p = parse_program("c. a :- not c.")
    assert not self_consistent(p, lits(p, "c"))


def test_admissible_guard_assumption(attack_demo):
    assert admissible(attack_demo, Hypothesis(), attack_demo.atom_id("c"))


def test_odd_loop_assumption_not_admissible(attack_demo):
    p = attack_demo
    assert not admissible(p, wfdh(p), p.atom_id("e"))


def test_unheaded_atom_vacuously_admissible():
    p = parse_program("a :- b, not x.")
    assert admissible(p, Hypothesis(), p.atom_id("x"))


def _reference_admissible(session, delta_lits, atom):
    """The per-atom definition of admissibility: for every live saturation
    fact with the atom in its head, some remainder (a minimal nonempty
    support member minus delta_lits) lies within the assumptions an
    attacker must make, its negated atoms and its other head atoms not
    already assumed false. The facts come from the specification memo, not
    from the route memo the session reads."""
    rests = [r for group in session.remainders(delta_lits).values() for r in group]
    for head, neg in residual.live_in(residual.saturated_program(session.program), delta_lits):
        if not head >> atom & 1:
            continue
        target = (neg | head & ~(1 << atom)) & ~delta_lits
        if not any(not rest & ~target for rest in rests):
            return False
    return True


def _admissibility_programs():
    for seed in range(60):  # criterion 2
        yield random_program(GeneratorConfig(seed, num_atoms=6, num_rules=8))
    for seed in range(30):  # sparse, 18 to 24 atoms
        n = 18 + seed % 7
        yield random_program(
            GeneratorConfig(seed, num_atoms=n, num_rules=n, max_head=2,
                            max_pos_body=1, max_neg_body=2)
        )
    for seed in range(1, 21):  # dense
        yield random_program(
            GeneratorConfig(seed, num_atoms=10, num_rules=16, max_head=2,
                            max_pos_body=2, max_neg_body=2)
        )


def test_admissibility_sweep_matches_per_atom_definition(monkeypatch):
    # Every round mask of both engines, for every hypothesis the iteration
    # reaches and for random subsets of the base, equals the per-atom
    # definition; so does the public admissible.
    reached = []
    real = _Session.armed

    def spy(self, delta_lits):
        got = real(self, delta_lits)
        reached.append((self, delta_lits, got))
        return got

    monkeypatch.setattr(_Session, "armed", spy)
    rnd = random.Random(3)
    rounds = 0
    for p in _admissibility_programs():
        n = len(p.atom_names)
        for engine in Engine:
            reached.clear()
            wfdh(p, engine)
            session = reached[0][0]
            deltas = [d for _, d, _ in reached]
            deltas += [rnd.getrandbits(n) for _ in range(3)]
            for delta in deltas:
                want = atom_mask(
                    a for a in range(n) if _reference_admissible(session, delta, a)
                )
                assert ((1 << n) - 1) & ~real(session, delta) == want
                rounds += 1
            a = rnd.randrange(n)
            hyp = Hypothesis(mask_atoms(deltas[-1]))
            assert admissible(p, hyp, a, engine) == bool(want >> a & 1)
    assert rounds > 1000


def test_wfdh_values():
    p = parse_program(ATTACK_DEMO)
    assert wfdh(p).literal_assumptions == atoms(p, "c")
    t = parse_program(TRAVEL)
    assert wfdh(t).literal_assumptions == atoms(t, "b")
    loop = parse_program(EVEN_LOOP)
    assert wfdh(loop).literal_assumptions == frozenset()


def test_wfds_values():
    p = parse_program(ATTACK_DEMO)
    assert wfds(p) == state(p, pos=["a b", "d"], false="c")
    t = parse_program(TRAVEL)
    assert wfds(t) == state(t, pos=["l p"], false="b")
    h = parse_program(HALF_LOOP)
    assert wfds(h) == state(h, pos=["a"], false="b")


def test_wfds_engines_agree():
    for seed in range(40):
        p = random_program(GeneratorConfig(seed, num_atoms=5, num_rules=6))
        assert wfds(p, Engine.CANONICAL) == wfds(p, Engine.RAW)


def test_raw_engine_states_unchanged_without_tautologies(monkeypatch):
    # Dense programs, as in the raw-engine fixpoint tests. Dropping the
    # tautologies changes no state, and each raw support set reached has
    # the reduct's least model state as its subset-minimal members.
    reached = []
    real = _Session.support

    def spy(self, lits_mask):
        got = real(self, lits_mask)
        reached.append((lits_mask, got))
        return got

    checked = 0
    for seed in range(1, 101):
        p = random_program(
            GeneratorConfig(seed, num_atoms=10, num_rules=16, max_head=2,
                            max_pos_body=2, max_neg_body=2)
        )
        if not any(r.is_tautology for r in p.rules):
            continue
        checked += 1
        pruned = p.with_rules(r for r in p.rules if not r.is_tautology)
        assert wfds(p, Engine.RAW) == wfds(p, Engine.CANONICAL) == wfds(pruned, Engine.RAW), seed
        reached.clear()
        monkeypatch.setattr(_Session, "support", spy)
        _Session(p, Engine.RAW).wfdh_literals()  # the support set of every round
        monkeypatch.undo()
        assert reached, seed
        for lits_mask, support in reached:
            delta = Hypothesis(mask_atoms(lits_mask))
            got = {mask_atoms(m) for m in minimal_masks(support)}
            assert got == least_model_state(reduct(p, delta)), seed
    assert checked > 80


def test_support_is_a_function_of_the_literals_alone():
    # A session asked out of chain order (A, then B not containing A, then
    # A again) answers as fresh sessions do: the raw engine starts its
    # closure again when a reduct drops a rule it kept.
    rnd = random.Random(20)
    programs = [
        random_program(GeneratorConfig(seed, num_atoms=10, num_rules=16, max_head=2,
                                       max_pos_body=2, max_neg_body=2))
        for seed in range(1, 41)
    ]
    programs += [  # criterion 2 of the acceptance suite
        random_program(GeneratorConfig(seed, num_atoms=6, num_rules=8, max_head=3,
                                       max_pos_body=3, max_neg_body=3,
                                       neg_probability=0.5))
        for seed in range(100)
    ]
    for p in programs:
        n = len(p.atom_names)
        a = rnd.getrandbits(n) | 1
        b = rnd.getrandbits(n) & ~1
        for engine in Engine:
            session = _Session(p, engine)
            for lits_mask in (a, b, a):
                want = set(_Session(p, engine).support(lits_mask))
                assert set(session.support(lits_mask)) == want, (engine, lits_mask)


def test_wfdh_self_consistent_and_wfds_consistent():
    for seed in range(30):
        p = random_program(GeneratorConfig(seed + 500, num_atoms=5, num_rules=6))
        h = wfdh(p)
        assert self_consistent(p, h)
        assert state_consistent(wfds(p))


def test_literal_attackers_suffice():
    # Disjunctive assumptions never contribute derivations.
    for seed in range(10):
        p = random_program(GeneratorConfig(seed, num_atoms=4, num_rules=5))
        base = sorted(p.base)
        big = Hypothesis(
            frozenset(base[:2]),
            frozenset({frozenset(base[-2:])}) if len(base) >= 2 else frozenset(),
        )
        small = Hypothesis(big.literal_assumptions)
        for k in range(1, 4):
            for combo in itertools.combinations(base, k):
                d = frozenset(combo)
                assert derives(p, big, d) == derives(p, small, d)


def test_hypothesis_rejects_unit_disjunctive_assumption():
    with pytest.raises(ValueError):
        Hypothesis(frozenset(), frozenset({frozenset({1})}))


def _table_counts(p):
    """The live tables kept on p's saturation memos: the route memo's, and
    the specification memo's once computed."""
    counts = [len(residual.route_program(p).live)]
    if p._saturated is not None:
        counts.append(len(residual.saturated_program(p).live))
    return counts


def test_one_shot_calls_keep_no_live_table(monkeypatch):
    # cons, derives, attacks and admissible build the tables they read
    # without keeping them on the memo, whatever the hypothesis; one that
    # assumes a unit atom false reads a saturation reduced by the unit atoms
    # outside its literals, kept by its session alone. The dense program
    # has 28 saturated facts and no unit atom, the sparse one three.
    real = residual.saturation_keeping
    keeping = []

    def spy(p, keep):
        keeping.append(keep)
        return real(p, keep)

    monkeypatch.setattr(residual, "saturation_keeping", spy)
    rnd = random.Random(8)
    for cfg, unit_atoms in (
        (GeneratorConfig(3, 16, 24, 2, 2, 2), 0),
        (GeneratorConfig(3, 24, 24, 2, 1, 2), 3),
    ):
        p = random_program(cfg)
        wfds(p)
        assert bin(residual.route_program(p).units).count("1") == unit_atoms
        kept = _table_counts(p)
        n = len(p.atom_names)
        for _ in range(3000):
            cons(p, Hypothesis(mask_atoms(rnd.getrandbits(n) & rnd.getrandbits(n))))
        for _ in range(100):
            delta = Hypothesis(mask_atoms(rnd.getrandbits(n) & rnd.getrandbits(n)))
            target = Hypothesis(mask_atoms(rnd.getrandbits(n)))
            derives(p, delta, frozenset((rnd.randrange(n),)))
            attacks(p, delta, target)
            admissible(p, delta, rnd.randrange(n))
        # Some hypothesis met the unit atoms, if any, and read a saturation
        # reduced outside them; no table and no specification memo was kept.
        units = residual.route_program(p).units
        assert bool(keeping) == bool(unit_atoms)
        assert all(keep and not keep & ~units for keep in keeping)
        assert _table_counts(p) == kept and p._saturated is None
        keeping.clear()


class _Saturated(Exception):
    pass


def test_raw_one_shot_calls_never_saturate(monkeypatch):
    # Under Engine.RAW, cons, derives and attacks read the reduct's closure
    # alone, so a one-shot call saturates nothing; admissible, which sweeps
    # the live facts, and canonical cons read the route memo.
    def refuse(*args):
        raise _Saturated

    rnd = random.Random(24)
    calls = []
    for s in range(200):
        text = render_program(random_program(GeneratorConfig(s, 10, 16, 2, 2, 2)))
        n = len(parse_program(text).atom_names)
        delta = Hypothesis(mask_atoms(rnd.getrandbits(n) & rnd.getrandbits(n)))
        target = Hypothesis(mask_atoms(rnd.getrandbits(n)))
        calls.append((text, delta, target, frozenset((rnd.randrange(n),))))
    want = [
        (cons(parse_program(t), d, Engine.RAW), derives(parse_program(t), d, a, Engine.RAW),
         attacks(parse_program(t), d, g, Engine.RAW))
        for t, d, g, a in calls
    ]
    monkeypatch.setattr(residual, "_saturate", refuse)
    for (text, delta, target, a), expected in zip(calls, want):
        p = parse_program(text)
        got = (cons(p, delta, Engine.RAW), derives(p, delta, a, Engine.RAW),
               attacks(p, delta, target, Engine.RAW))
        assert got == expected, text
        with pytest.raises(_Saturated):
            admissible(p, delta, 0, Engine.RAW)
        with pytest.raises(_Saturated):
            cons(p, delta)


def test_one_shot_calls_about_unit_atoms_finish_on_the_300_atom_normal_family():
    # Assuming a unit atom false used to read the unreduced specification
    # memo, which runs for minutes on this family; the saturation reduced
    # by the other unit atoms takes well under 0.1 s per call on a 2-core
    # machine. An alarm stops a regression instead of letting it hang, and
    # the time bound is about ten times what the calls take.
    def expired(signum, frame):
        raise TimeoutError("one-shot calls about unit atoms ran past 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        for s in range(12):
            cfg = GeneratorConfig(9600 + s, 300, 600, max_head=1, max_pos_body=2,
                                  max_neg_body=2, neg_probability=0.9)
            p = random_program(cfg)
            units = residual.route_program(p).units
            for a in sorted(mask_atoms(units))[:3]:
                delta = Hypothesis({a})
                # A hypothesis that assumes a unit atom false attacks itself.
                assert frozenset({a}) in cons(p, delta)
                assert derives(p, delta, {a})
                assert attacks(p, delta, delta) is not None
                assert not admissible(p, delta, a)
            assert p._saturated is None
        assert time.perf_counter() - start < 30
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_later_routes_hit_the_tables_wfds_keeps(monkeypatch):
    # Inside check_equivalence, wfds builds each live table the routes read
    # once, and every lookup of the routes after it hits the memo.
    real = residual.live_in
    route = []
    lookups = {}

    def spy(q, false=0):
        got = lookups.setdefault(route[-1], [0, 0])
        got[0] += 1
        got[1] += false in q.live
        return real(q, false)

    inner = harness.compute_semantics

    def labelled(p, name):
        route.append(name)
        return inner(p, name)

    monkeypatch.setattr(residual, "live_in", spy)
    monkeypatch.setattr(harness, "compute_semantics", labelled)
    for seed in range(60):
        for cfg in (
            GeneratorConfig(seed, 6, 8),
            GeneratorConfig(seed, 18 + seed % 7, 18 + seed % 7, 2, 1, 2),
            GeneratorConfig(seed + 1, 10, 16, 2, 2, 2),
        ):
            report = check_equivalence(random_program(cfg))
            assert report.equal and not report.errors
    assert set(lookups) == {"wfds", "wfds-raw", "dwfs-star", "uwfs"}
    for name in ("wfds-raw", "dwfs-star", "uwfs"):
        calls, hits = lookups[name]
        assert hits == calls > 100, name
