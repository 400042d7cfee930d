"""Metamorphic relations and conservativity at scale: checks that need no
exhaustive oracle, so they run at sizes the truth-table oracles cannot reach.

- Re-interning the atoms in a random order, under new names, leaves every
  route's state unchanged up to the renaming. The hot layer computes on atom
  masks, so this guards every place that depends on the order of bits.
  Under the same names the copy is the same program, and its saturation
  raises CapacityError at the same caps.
- A disjoint union of two programs has the union of their states: no
  s-implication crosses components, since it needs h2 within h1 | n1.
- On normal programs of 100-300 atoms every route equals the alternating
  fixpoint (normal_wfs), which is polynomial and shares no code with them,
  the 300-atom family with two-atom positive bodies included.
- Routes run in any order, on programs that keep their saturation and
  supersession tables between calls, give the states they give on a fresh
  parse with the tables bypassed: no table leaks between false-atom sets,
  routes or programs.
- A rule whose head is one fresh atom, mentioned nowhere else, leaves every
  route's state on the old atoms unchanged.
"""

import random
import time

from dwfs import (
    CapacityError,
    GeneratorConfig,
    ModelState,
    Program,
    Rule,
    normal_wfs,
    parse_program,
    random_program,
    render_program,
)
import dwfs.residual as residual
from dwfs.core import mask_atoms
from dwfs.harness import compute_semantics

ROUTES = ("wfds", "wfds-raw", "dwfs-star", "dwfs-classic", "uwfs")


def _sparse(seed, n):
    return random_program(
        GeneratorConfig(seed, num_atoms=n, num_rules=n, max_head=2, max_pos_body=1,
                        max_neg_body=2)
    )


def _dense(seed):
    return random_program(
        GeneratorConfig(seed, num_atoms=10, num_rules=16, max_head=2, max_pos_body=2,
                        max_neg_body=2)
    )


def _criterion_2(seed):
    return random_program(
        GeneratorConfig(seed, num_atoms=6, num_rules=8, max_head=3, max_pos_body=3,
                        max_neg_body=3)
    )


def _corpus():
    for seed in range(24):
        yield _sparse(seed + 9100, 18 + seed % 7)
    for seed in range(24):
        yield _dense(seed + 9200)


def _map_state(s: ModelState, new_id) -> ModelState:
    return ModelState(
        frozenset(frozenset(new_id[a] for a in d) for d in s.pos),
        frozenset(new_id[a] for a in s.false_atoms),
    )


def _map_rules(rules, new_id):
    return [
        Rule(
            frozenset(new_id[a] for a in r.head),
            frozenset(new_id[a] for a in r.pos_body),
            frozenset(new_id[a] for a in r.neg_body),
        )
        for r in rules
    ]


def _states(p):
    return {name: compute_semantics(p, name) for name in ROUTES}


def test_reinterning_atoms_renames_every_state():
    rnd = random.Random(3)
    checked = 0
    for p in _corpus():
        n = len(p.atom_names)
        new_id = list(range(n))
        rnd.shuffle(new_id)
        names = [""] * n
        for a, b in enumerate(new_id):
            names[b] = f"x{a}"
        q = Program(_map_rules(p.rules, new_id), names)
        want = _states(p)
        got = _states(q)
        for name in ROUTES:
            assert got[name] == _map_state(want[name], new_id), (p, name)
            checked += 1
    assert checked == 48 * len(ROUTES)


def _capped(p, cap) -> bool:
    """True when saturating a fresh copy of p (no memo) raises at cap."""
    try:
        residual.saturation(Program(p.rules, p.atom_names), cap)
    except CapacityError:
        return True
    return False


def test_saturation_cap_is_a_function_of_the_program():
    # A copy with its atoms re-interned in another order, under the same
    # names, is the same program (Program.__eq__), so the caps at which its
    # saturation raises must be the same ones. They raise below one least
    # passing cap, found here by doubling and bisection.
    rnd = random.Random(7)
    for seed in range(300):
        p = _criterion_2(seed) if seed % 2 == 0 else _dense(seed)
        n = len(p.atom_names)
        new_id = list(range(n))
        rnd.shuffle(new_id)
        names = [""] * n
        for a, b in enumerate(new_id):
            names[b] = p.atom_names[a]
        q = Program(_map_rules(p.rules, new_id), names)
        assert q == p
        low, high = 0, 1
        while _capped(p, high):
            low, high = high + 1, 2 * high
        while low < high:
            mid = (low + high) // 2
            low, high = (mid + 1, high) if _capped(p, mid) else (low, mid)
        for cap in range(max(0, high - 2), high + 2):
            assert _capped(q, cap) == _capped(p, cap) == (cap < high), (seed, cap)


def test_disjoint_union_has_union_of_states():
    programs = list(_corpus())
    rnd = random.Random(4)
    for _ in range(20):
        p, q = rnd.sample(programs, 2)
        shift = len(p.atom_names)
        new_id = [shift + a for a in range(len(q.atom_names))]
        union = Program(
            list(p.rules) + _map_rules(q.rules, new_id),
            list(p.atom_names) + [f"q_{name}" for name in q.atom_names],
        )
        left, right, both = _states(p), _states(q), _states(union)
        for name in ROUTES:
            moved = _map_state(right[name], new_id)
            assert both[name] == ModelState(
                left[name].pos | moved.pos, left[name].false_atoms | moved.false_atoms
            ), (p, q, name)


def test_every_route_equals_normal_wfs_at_scale():
    # Sparse normal programs (one rule per atom, short bodies) and denser
    # ones (two rules per atom, mostly with negation), whose undefined atoms
    # come from loops through negation. The time bound is about ten times
    # what the routes take on a 2-core machine.
    configs = [
        GeneratorConfig(seed, num_atoms=n, num_rules=n, max_head=1,
                        max_pos_body=1, max_neg_body=2, neg_probability=0.7)
        for seed, n in ((9300, 100), (9302, 200), (9304, 300))
    ] + [
        GeneratorConfig(seed, num_atoms=n, num_rules=2 * n, max_head=1,
                        max_pos_body=2, max_neg_body=2, neg_probability=0.9)
        for seed, n in ((9300, 100), (9304, 300))
    ]
    start = time.perf_counter()
    undefined = 0
    for cfg in configs:
        p = random_program(cfg)
        want = normal_wfs(p)
        undefined += cfg.num_atoms - len(want.pos) - len(want.false_atoms)
        for name in ROUTES:
            assert compute_semantics(p, name) == want, (cfg, name)
    assert undefined > 0
    assert time.perf_counter() - start < 60


def test_every_route_equals_normal_wfs_on_the_300_atom_normal_family():
    # Two rules per atom, positive bodies of up to two atoms, negation in
    # nine rules of ten. Without negative reduction by unit facts while
    # saturating, 7 of these 12 saturations run past 5 s; the routes' memo
    # takes at most 0.2 s on a 2-core machine. Each route runs on a fresh
    # parse, so that it saturates alone. The time bound is about ten times
    # what the routes take.
    start = time.perf_counter()
    for s in range(12):
        cfg = GeneratorConfig(9600 + s, 300, 600, max_head=1, max_pos_body=2,
                              max_neg_body=2, neg_probability=0.9)
        want = normal_wfs(random_program(cfg))
        for name in ("wfds", "wfds-raw", "dwfs-star", "uwfs"):
            assert compute_semantics(random_program(cfg), name) == want, (cfg, name)
    assert time.perf_counter() - start < 30


def _untabled(q, false=0):
    """residual.live_in without its table or fact store: the live facts'
    (head mask, negative body mask) pairs, from the decoded rules through
    the Rule-level superseded."""
    facts = frozenset(r for r in q.rules if r.is_conditional_fact)
    live = facts - residual.superseded(facts, mask_atoms(false))
    return frozenset((r.head_mask, r.neg_mask) for r in live)


def test_routes_in_any_order_on_shared_programs_match_fresh_parses(monkeypatch):
    # The reference states come from a fresh parse per route with the
    # supersession table bypassed, so a table that leaked even between
    # Program instances would show.
    programs = list(_corpus())[::2] + [_criterion_2(seed + 9600) for seed in range(60)]
    texts = [render_program(p) for p in programs]
    runs = [(i, name) for i in range(len(texts)) for name in ROUTES]
    with monkeypatch.context() as patch:
        patch.setattr(residual, "live_in", _untabled)
        want = {(i, name): compute_semantics(parse_program(texts[i]), name) for i, name in runs}
    shared = [parse_program(text) for text in texts]
    random.Random(5).shuffle(runs)
    for i, name in runs:
        assert compute_semantics(shared[i], name) == want[i, name], (texts[i], name)


def test_rule_for_a_fresh_atom_leaves_old_atoms_unchanged():
    rnd = random.Random(6)
    programs = (
        [_criterion_2(seed + 9400) for seed in range(150)]
        + [_sparse(seed + 9500, 20) for seed in range(50)]
        + [_dense(seed + 9200) for seed in range(50)]
    )
    for p in programs:
        n = len(p.atom_names)
        body = rnd.sample(range(n), rnd.randint(0, 3))
        cut = rnd.randint(0, len(body))
        rule = Rule(frozenset((n,)), frozenset(body[:cut]), frozenset(body[cut:]))
        q = Program(list(p.rules) + [rule], list(p.atom_names) + ["fresh_atom"])
        want, got = _states(p), _states(q)
        for name in ROUTES:
            old_part = ModelState(
                frozenset(d for d in got[name].pos if n not in d),
                got[name].false_atoms - {n},
            )
            assert old_part == want[name], (q, name)
