"""Metamorphic relations and conservativity at scale: checks that need no
exhaustive oracle, so they run at sizes the truth-table oracles cannot reach.

- Re-interning the atoms in a random order, under new names, leaves every
  route's state unchanged up to the renaming. The hot layer computes on atom
  masks, so this guards every place that depends on the order of bits.
- A disjoint union of two programs has the union of their states: no
  s-implication crosses components, since it needs h2 within h1 | n1.
- On normal programs of 100-300 atoms every route equals the alternating
  fixpoint (normal_wfs), which is polynomial and shares no code with them.
"""

import random
import time

from dwfs import GeneratorConfig, ModelState, Program, Rule, normal_wfs, random_program
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
