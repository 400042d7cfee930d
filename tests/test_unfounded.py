import itertools
import random
import signal
from collections import Counter

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
from dwfs.unfounded import NoGreatestUnfoundedSetError, _w_rows
from conftest import ATTACK_DEMO, EVEN_LOOP, GUARD, atoms, state


def _rule_rows(p, s) -> list:
    """The W step's rows by their definition, one per live fact whose body
    is not false: its head mask and its witness masks, read off every core
    member. A witness blocks the fact for X iff its mask is disjoint from
    X. The reference for unfounded._w_rows."""
    false, core = s.false_mask, s.core_masks
    rows = []
    for h, n in live_in(p, false):
        if n & ~false and any(not c & ~n for c in core):
            continue
        enabling = n | false
        scope = h | enabling
        free = h & ~enabling
        rows.append((h, [c & free for c in core if not c & ~scope and c & (h | n)]))
    return rows


def _singleton_union(rows: list, n: int) -> int:
    """The atoms a with {a} unfounded: a row whose head holds a is blocked
    for {a} unless every witness contains a."""
    founded = 0
    for hm, witnesses in rows:
        for w in witnesses:
            hm &= w
        founded |= hm
    return ((1 << n) - 1) & ~founded


def _unfounded(rows: list, x: int) -> bool:
    """True iff every row whose head meets the atom mask x is blocked for x."""
    return all(not all(w & x for w in witnesses) for hm, witnesses in rows if hm & x)


def _reference_mask(p, s):
    """The greatest unfounded set's mask by the reference rows, or None."""
    rows = _rule_rows(p, s)
    union = _singleton_union(rows, len(p.atom_names))
    return union if _unfounded(rows, union) else None


def _table(p, s):
    """unfounded._w_rows for s, with each row's witnesses as a set."""
    founded, rows = _w_rows(live_in(p, s.false_mask), s.false_mask, s.core_masks)
    return founded, Counter((h, frozenset(ws)) for h, ws in rows)


def _reference_table(p, s):
    """_table by the reference rows: the atoms outside the singleton union,
    and the rows with a witness and no empty witness. A row with an empty
    witness is blocked for every X, and one with no witness founds its
    whole head; neither decides a test."""
    rows = _rule_rows(p, s)
    founded = ((1 << len(p.atom_names)) - 1) & ~_singleton_union(rows, len(p.atom_names))
    return founded, Counter((h, frozenset(ws)) for h, ws in rows if ws and 0 not in ws)


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
            assert _table(n, s) == _reference_table(n, s)
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
            assert _table(n, s) == _reference_table(n, s)
    assert min(seen.values()) >= 50


def test_rows_skip_superseded_and_false_body_facts():
    # a | c is superseded by a, and the body of e :- not b is false once b
    # holds: neither can be unblocked, so neither has a row.
    # The W step's table keeps no row for a witnessless fact either: a
    # founds itself, and nothing else is founded.
    p = parse_program("a. a | c. e :- not b.")
    s = state(p, pos=["b"])
    assert _rule_rows(p, s) == [(atom_mask(atoms(p, "a")), [])]
    assert _w_rows(live_in(p, 0), 0, s.core_masks) == (atom_mask(atoms(p, "a")), [])


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
        union = unfounded._greatest_mask(n, s.false_mask, s.core_masks)
        want = NO_GREATEST if union is None else mask_atoms(union)
        assert greatest_unfounded(n, s) == want

    def decoded(m):
        raise AssertionError("a W step decoded its unfounded set")

    monkeypatch.setattr(unfounded, "mask_atoms", decoded)
    for seed in range(40):
        p = random_program(GeneratorConfig(seed, 6, 8))
        assert uwfs(p) == wfds(p)


def _kernel_test_programs():
    """Criterion-2, sparse 18 to 24 atom and dense 10 x 16 programs."""
    programs = [random_program(GeneratorConfig(seed, num_atoms=6, num_rules=8))
                for seed in range(60)]
    programs += [
        random_program(GeneratorConfig(seed, num_atoms=18 + seed % 7, num_rules=18 + seed % 7,
                                       max_head=2, max_pos_body=1, max_neg_body=2))
        for seed in range(60)
    ]
    programs += [random_program(GeneratorConfig(seed, 10, 16, 2, 2, 2)) for seed in range(1, 31)]
    return programs


def test_w_step_kernel_matches_definition_on_reachable_states():
    # Every W-reachable state over the saturation uwfs reads: the one-pass
    # table (_w_rows, its core index and its founded atoms) equals the rows
    # read off every core member, and the W step's greatest set equals the
    # singleton union and unfounded test on those rows.
    checked = rows = 0
    for p in _kernel_test_programs():
        q = route_program(p)
        s = ModelState()
        while True:
            table = _table(q, s)
            assert table == _reference_table(q, s)
            assert unfounded._greatest_mask(q, s.false_mask, s.core_masks) == _reference_mask(q, s)
            checked += 1
            rows += sum(table[1].values())
            try:
                nxt = w_operator(q, s)
            except NoGreatestUnfoundedSetError:
                break
            if nxt == s:
                break
            s = nxt
    assert checked > 300 and rows > 900


def test_w_step_kernel_matches_definition_on_random_states():
    # Random states, reachable or not, with core members within the false
    # atoms, members that meet neither a fact's head nor its negative body
    # (the members the index skips), and now and then the empty member.
    rng = random.Random(9100)
    within_false = skipped = empty = verdicts = 0
    for p in _kernel_test_programs():
        q = route_program(p)
        n = len(q.atom_names)
        for i in range(8):
            false = rng.getrandbits(n) & rng.getrandbits(n)
            core = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                    for _ in range(rng.randrange(6))]
            core = [c for c in core if c]
            if false:
                core.append(false & rng.getrandbits(n) or false)
            if i == 7 and rng.random() < 0.3:
                core.append(0)
            s = ModelState._of_masks(core, false)
            empty += 0 in s.core_masks
            assert _table(q, s) == _reference_table(q, s)
            want = _reference_mask(q, s)
            assert unfounded._greatest_mask(q, false, s.core_masks) == want
            verdicts += want is None
            for _ in range(3):
                x = rng.getrandbits(n)
                assert is_unfounded(q, s, mask_atoms(x)) == _unfounded(_rule_rows(q, s), x)
            for h, neg in live_in(q, false):
                for c in s.core_masks:
                    within_false += bool(c and not c & ~false and c & (h | neg))
                    skipped += not c & (h | neg)
    assert within_false > 500 and skipped > 5000 and empty > 5 and verdicts > 5


def test_uwfs_iterates_the_public_w_operator():
    # uwfs runs its W steps on masks and builds one state at the fixpoint;
    # the public w_operator, iterated from the empty state over the same
    # saturation, reaches the same state, or fails where uwfs fails.
    undefined = 0
    for p in _kernel_test_programs():
        q = route_program(p)
        s = ModelState()
        try:
            while True:
                nxt = w_operator(q, s)
                if nxt == s:
                    break
                s = nxt
        except NoGreatestUnfoundedSetError:
            undefined += 1
            with pytest.raises(NoGreatestUnfoundedSetError):
                uwfs(p)
            continue
        assert uwfs(p) == s
    assert undefined < 10


def test_uwfs_scales_on_the_sparse_ladder():
    # GeneratorConfig(0, 2560, 2560, 2, 1, 2), saturation precomputed: with
    # every core member read against every live fact, uwfs took about 2 s;
    # reading each fact's members through the core index, under 0.1 s on a
    # 2-core machine. An alarm stops a regression instead of letting it hang.
    p = random_program(GeneratorConfig(0, 2560, 2560, 2, 1, 2))
    route_program(p)

    def expired(signum, frame):
        raise TimeoutError("uwfs ran past 1 s on the 2,560-atom sparse ladder")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(1)
    try:
        s = uwfs(p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert s.false_mask and s.core_masks
