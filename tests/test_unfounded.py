import itertools
import random

import pytest

from dwfs import (
    GeneratorConfig,
    ModelState,
    NO_GREATEST,
    Program,
    Truth,
    body_status,
    greatest_unfounded,
    is_unfounded,
    parse_program,
    random_program,
    render_program,
    state_consistent,
    t_operator,
    uwfs,
    w_operator,
    wfds,
)
from dwfs.residual import (
    fact_masks,
    lft,
    live_in,
    route_program,
    saturated_program,
    saturation,
)
from dwfs.core import atom_mask, decode_facts, mask_atoms
import dwfs.unfounded as unfounded
from dwfs.unfounded import NoGreatestUnfoundedSetError, _rule_rows
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
    # The loop saturates to no conditional fact at all.
    p = parse_program("c :- d. d :- c.")
    n = saturated_program(p)
    assert not n.facts
    assert is_unfounded(n, ModelState(), atoms(p, "c d"))
    assert greatest_unfounded(n, ModelState()) == atoms(p, "c d")


def test_positive_bodies_are_rejected():
    p = parse_program("c :- d. d :- c.")
    s = ModelState()
    with pytest.raises(ValueError):
        is_unfounded(p, s, atoms(p, "c d"))
    with pytest.raises(ValueError):
        greatest_unfounded(p, s)
    with pytest.raises(ValueError):
        t_operator(p, s)
    with pytest.raises(ValueError):
        w_operator(p, s)


def test_parsed_conditional_facts_match_the_program_of_their_rules():
    # A parsed program of conditional facts reads its mask triples; the
    # program built from its decoded Rules must give the same answers.
    rnd = random.Random(41)
    for seed in range(60):
        cfg = GeneratorConfig(seed, 6, 9, max_pos_body=0, neg_probability=0.7)
        text = render_program(random_program(cfg))
        p = parse_program(text)
        q = Program(parse_program(text).rules, p.atom_names)
        assert fact_masks(p) == fact_masks(q)
        n = len(p.atom_names)
        for _ in range(6):
            pos = [mask_atoms(rnd.getrandbits(n)) for _ in range(rnd.randrange(3))]
            false = mask_atoms(rnd.getrandbits(n) & rnd.getrandbits(n))
            s = ModelState([d for d in pos if d], false)
            x = mask_atoms(rnd.getrandbits(n))
            assert t_operator(p, s) == t_operator(q, s)
            assert is_unfounded(p, s, x) == is_unfounded(q, s, x)
            assert greatest_unfounded(p, s) == greatest_unfounded(q, s)
        assert p._rules is None


def test_parsed_positive_bodies_are_rejected():
    for text in ("c :- d. d.", "a | b :- not c, d."):
        p = parse_program(text)
        for program in (p, Program(p.rules, p.atom_names)):
            with pytest.raises(ValueError, match="only conditional facts"):
                fact_masks(program)
            with pytest.raises(ValueError):
                t_operator(program, ModelState())
            with pytest.raises(ValueError):
                greatest_unfounded(program, ModelState())


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
    assert repr(NO_GREATEST) == "NO_GREATEST"
    loop = parse_program(EVEN_LOOP)
    assert greatest_unfounded(loop, ModelState()) == frozenset()


def _subset_union(p, s):
    """The greatest unfounded set by definition: the union of every subset of
    the base that is_unfounded accepts, if that union is accepted too."""
    base = range(len(p.atom_names))
    union = frozenset()
    for k in range(1, len(base) + 1):
        for combo in itertools.combinations(base, k):
            x = frozenset(combo)
            if is_unfounded(p, s, x):
                union |= x
    return union if is_unfounded(p, s, union) else NO_GREATEST


def _random_state(rng, n):
    """Unit atoms and two-atom disjunctions true, atoms false, at random:
    units on both sides of a disjunctive head leave no greatest set."""
    pos = [frozenset((a,)) for a in range(n) if rng.random() < 0.5]
    if n >= 2:
        pos += [frozenset(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))]
    false = frozenset(a for a in range(n) if rng.random() < 0.15)
    return ModelState(frozenset(pos), false)


def test_greatest_unfounded_matches_exhaustive_union():
    # Saturated programs at the wfds state of the raw program.
    for seed in range(20):
        p = random_program(GeneratorConfig(seed, num_atoms=4, num_rules=5))
        n = saturated_program(p)
        s = wfds(p)
        assert greatest_unfounded(n, s) == _subset_union(n, s)
    # Saturated programs at random states that no W-sequence need reach.
    rng = random.Random(4100)
    verdicts = []
    for seed in range(240):
        cfg = GeneratorConfig(seed + 4100, num_atoms=3 + seed % 4, num_rules=5,
                              max_head=2, max_pos_body=2, max_neg_body=2)
        p = random_program(cfg)
        n = p.with_rules(saturation(p))
        s = _random_state(rng, len(n.atom_names))
        got = greatest_unfounded(n, s)
        assert got == _subset_union(n, s)
        verdicts.append(got)
    assert sum(v is NO_GREATEST for v in verdicts) >= 10
    assert sum(v is not NO_GREATEST and bool(v) for v in verdicts) >= 150
    # A 16-atom positive chain saturates to no fact: every atom is unfounded.
    chain = parse_program(" ".join(f"a{i + 1} :- a{i}." for i in range(15)))
    assert len(chain.atom_names) == 16
    n = chain.with_rules(saturation(chain))
    assert greatest_unfounded(n, ModelState()) == n.base


def _truth_table_union(rows, n):
    """The union of every unfounded subset of an n-atom base, all 2^n subsets
    tested at once: bit m of a truth table is the verdict on the subset with
    atom mask m, so each row's condition is a few operations on 2^n-bit ints.
    This is the subset enumeration with no appeal to closure under subsets."""
    full = (1 << (1 << n)) - 1
    member = []  # member[a]: the truth table of "a is in the subset"
    for a in range(n):
        half = 1 << a
        period = ((1 << half) - 1) << half
        member.append(period * (full // ((1 << 2 * half) - 1)))

    def meets(mask):
        table = 0
        for a in range(n):
            if mask >> a & 1:
                table |= member[a]
        return table

    verdict = full
    for hm, witnesses in rows:
        ok = full ^ meets(hm)
        for w in witnesses:
            ok |= full ^ meets(w)
        verdict &= ok
    return frozenset(a for a in range(n) if verdict & member[a])


def test_reachable_states_agree_with_exhaustive_union():
    # W-reachable states of saturated programs: sparse (8 atoms) and dense
    # (6 atoms) over lft, and sparse at 15-18 atoms over the pruned
    # saturation that uwfs reads.
    runs = []
    for seed in range(60):
        sparse = GeneratorConfig(seed + 3300, num_atoms=8, num_rules=8, max_head=2,
                                 max_pos_body=1, max_neg_body=2)
        dense = GeneratorConfig(seed + 3400, num_atoms=6, num_rules=9, max_head=2,
                                max_pos_body=2, max_neg_body=2)
        runs += [(sparse, lft), (dense, lft)]
    for seed in range(12):
        size = 15 + seed % 4
        large_sparse = GeneratorConfig(seed + 5000, num_atoms=size, num_rules=size,
                                       max_head=2, max_pos_body=1, max_neg_body=2)
        runs.append((large_sparse, saturation))
    checked = large = 0
    for cfg, saturate in runs:
        for n, s in _w_sequence(random_program(cfg), saturate):
            size = len(n.atom_names)
            rows = _rule_rows(n, s)
            union = _truth_table_union(rows, size)
            expected = union if is_unfounded(n, s, union) else NO_GREATEST
            assert greatest_unfounded(n, s) == expected
            checked += 1
            large += size >= 15
    assert checked > 200
    assert large >= 20


def test_mask_body_tests_match_body_status():
    # body_status is the reference: on conditional facts, the rows are the
    # live facts whose body is not false, and t_operator fires a fact
    # exactly when its body is true (and its head is not all false).
    rng = random.Random(7700)
    seen = {t: 0 for t in Truth}
    for seed in range(150):
        cfg = GeneratorConfig(seed + 7700, num_atoms=3 + seed % 5, num_rules=6,
                              max_head=2, max_pos_body=2, max_neg_body=3)
        n = saturated_program(random_program(cfg))
        for _ in range(4):
            s = _random_state(rng, len(n.atom_names))
            if not state_consistent(s):
                continue
            live = live_in(n, atom_mask(s.false_atoms))
            heads = []
            for r in decode_facts(n.facts):
                status = body_status(s, r)
                seen[status] += 1
                if (r.head_mask, r.neg_mask) in live and status is not Truth.FALSE:
                    heads.append(r.head_mask)
                rest = r.head - s.false_atoms
                fired = {rest} if status is Truth.TRUE and rest else set()
                assert t_operator(Program([r], n.atom_names), s) == fired
            assert sorted(h for h, _ in _rule_rows(n, s)) == sorted(heads)
    assert min(seen.values()) >= 50


def test_rows_skip_superseded_and_false_body_facts():
    # a | c is superseded by a, and the body of e :- not b is false once b
    # holds: neither can be unblocked, so neither has a row.
    p = parse_program("a. a | c. e :- not b.")
    assert _rule_rows(p, state(p, pos=["b"])) == [(atom_mask(atoms(p, "a")), [])]


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
    # With a guarded disjunction the falsity of c needs the guard's atom
    # false first: only then does the disjunction supersede c's fact.
    p = parse_program("a | b :- not x. c :- not a, not b.")
    w1 = w_operator(p, ModelState())
    assert w1 == state(p, false="x")
    w2 = w_operator(p, w1)
    assert w2 == state(p, pos=["a b"], false="c x")
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


def _w_sequence(p, saturate=lft):
    saturated = p.with_rules(saturate(p))
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


def test_unfounded_api_keeps_no_live_table():
    # Only the route memo keeps live tables: is_unfounded,
    # greatest_unfounded, t_operator and w_operator build the tables they
    # read afresh on any other program, a saturated_program memo or a
    # parsed program of conditional facts, so probing many states piles
    # nothing up. uwfs, which passes the route memo, still keeps its tables.
    rng = random.Random(23)
    p = random_program(GeneratorConfig(3, 16, 24, 2, 2, 2))
    text = render_program(random_program(GeneratorConfig(5, 12, 18, max_pos_body=0,
                                                         neg_probability=0.7)))
    programs = [saturated_program(p), parse_program(text)]
    undefined = 0
    for q in programs:
        n = len(q.atom_names)
        for _ in range(300):
            pos = [mask_atoms(rng.getrandbits(n) & rng.getrandbits(n)) for _ in range(2)]
            false = mask_atoms(rng.getrandbits(n) & rng.getrandbits(n))
            s = ModelState([d for d in pos if d], false)
            is_unfounded(q, s, mask_atoms(rng.getrandbits(n)))
            greatest_unfounded(q, s)
            t_operator(q, s)
            try:
                w_operator(q, s)
            except NoGreatestUnfoundedSetError:
                undefined += 1
        assert getattr(q, "live", None) is None
    assert 0 < undefined < 600
    uwfs(p)
    assert route_program(p).live and programs[0].live is None


def test_w_steps_read_the_greatest_unfounded_set_as_a_mask(monkeypatch):
    # greatest_unfounded decodes the mask the W operator reads undecoded:
    # the two agree on random states, and uwfs decodes no unfounded set.
    rng = random.Random(4200)
    for seed in range(120):
        p = random_program(GeneratorConfig(seed + 4200, 3 + seed % 4, 5, 2, 2, 2))
        n = route_program(p)
        s = _random_state(rng, len(n.atom_names))
        union = unfounded._greatest_mask(n, s)
        want = NO_GREATEST if union is None else mask_atoms(union)
        assert greatest_unfounded(n, s) == want

    def decoded(m):
        raise AssertionError("a W step decoded its unfounded set")

    monkeypatch.setattr(unfounded, "mask_atoms", decoded)
    for seed in range(40):
        p = random_program(GeneratorConfig(seed, 6, 8))
        assert uwfs(p) == wfds(p)
