"""Acceptance suite: golden examples, cross-semantics equivalence at scale,
conservativity against independent oracles, transformation invariance,
baseline inclusion, consistency, and unfounded-set oracle agreement.

Each criterion prints one PASS/FAIL line.
"""

import itertools

from dwfs import (
    GeneratorConfig,
    Hypothesis,
    ModelState,
    NO_GREATEST,
    Rule,
    TransformKind,
    applicable,
    apply,
    check_equivalence,
    derives,
    dwfs_classic,
    dwfs_star,
    entails_classical,
    gcwa_negatives,
    greatest_unfounded,
    is_unfounded,
    least_model_state,
    normal_wfs,
    parse_program,
    random_program,
    reduct,
    satisfies_negative,
    satisfies_positive,
    state_consistent,
    strong_residual,
    uwfs,
    w_operator,
    wfdh,
    wfds,
)
from dwfs.harness import fuzz_reports
from dwfs.residual import lft
from conftest import (
    ATTACK_DEMO,
    GUARD,
    PIPELINE,
    REDUCT_DEMO,
    SATURATE,
    SATURATE_LFT,
    SUPPORT_DEMO,
    TRAVEL,
    atoms,
    disj,
    lits,
    state,
)

_TOUCHED: list[tuple] = []


def _note(program, state_value):
    _TOUCHED.append((program, state_value))


def _verdict(name, failures):
    line = f"acceptance {name}: {'PASS' if not failures else 'FAIL'}"
    print(line)
    assert not failures, (line, failures[:5])


def test_criterion_1_golden_examples():
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    p1 = parse_program(REDUCT_DEMO)
    red = reduct(p1, lits(p1, "c"))
    check("reduct rules", red.rule_names() == parse_program("a :- b. b | c | d.").rule_names())
    check(
        "reduct least state",
        least_model_state(red) == {disj(p1, "a c d"), disj(p1, "b c d")},
    )

    p2 = parse_program(SUPPORT_DEMO)
    red2 = reduct(p2, lits(p2, "e d f"))
    check(
        "support least state",
        least_model_state(red2) == {disj(p2, "g"), disj(p2, "c e"), disj(p2, "a b e")},
    )
    check("support derivation", derives(p2, lits(p2, "e d f"), disj(p2, "a b")))

    p3 = parse_program(ATTACK_DEMO)
    w3 = wfds(p3)
    check("attack-demo state", w3 == state(p3, pos=["a b", "d"], false="c"))
    e = p3.atom_id("e")
    check(
        "attack-demo e undefined",
        e not in w3.false_atoms and not satisfies_positive(w3, frozenset((e,))),
    )
    check("attack-demo hypothesis", wfdh(p3).literal_assumptions == atoms(p3, "c"))
    _note(p3, w3)

    p4 = parse_program(TRAVEL)
    want4 = state(p4, pos=["l p"], false="b")
    for name, value in (
        ("wfds", wfds(p4)),
        ("dwfs-star", dwfs_star(p4)),
        ("uwfs", uwfs(p4)),
    ):
        check(f"travel {name}", value == want4)
        _note(p4, value)
    check(
        "travel baseline misses negative",
        not satisfies_negative(dwfs_classic(p4), atoms(p4, "b")),
    )

    p5 = parse_program(PIPELINE)
    res5 = strong_residual(p5)
    want_res = {
        Rule(atoms(p5, "p1 p2")),
        Rule(atoms(p5, "p3 p4")),
        Rule(atoms(p5, "q")),
    }
    check("pipeline residual", res5 == want_res)
    s5 = dwfs_star(p5)
    check(
        "pipeline state",
        satisfies_positive(s5, disj(p5, "p1 p2"))
        and satisfies_positive(s5, disj(p5, "p3 p4"))
        and satisfies_positive(s5, disj(p5, "q"))
        and satisfies_negative(s5, atoms(p5, "w"))
        and satisfies_negative(s5, atoms(p5, "p")),
    )
    _note(p5, s5)

    p6 = parse_program(SATURATE)
    check("saturation exact", p6.with_rules(lft(p6)) == parse_program(SATURATE_LFT))

    p7 = parse_program(GUARD)
    s7 = uwfs(p7)
    check("guard state", s7 == state(p7, pos=["a b"], false="c"))
    check("guard greatest", greatest_unfounded(p7, state(p7, pos=["a b"])) == atoms(p7, "c"))
    p7b = parse_program("a | b.")
    check(
        "no greatest",
        greatest_unfounded(p7b, state(p7b, pos=["a", "b"])) is NO_GREATEST,
    )
    _note(p7, s7)

    _verdict("criterion 1 (golden examples)", failures)


def test_criterion_2_equivalence_fuzz():
    failures = []
    cfg = GeneratorConfig(
        seed=20260808, num_atoms=6, num_rules=8, max_head=3, max_pos_body=3,
        max_neg_body=3, neg_probability=0.5,
    )
    count = 0
    for report in fuzz_reports(498, cfg, shrink=False):
        count += 1
        if report.errors or not report.equal:
            failures.append((count, report.first_divergence, report.errors))
        for value in report.states.values():
            _note(report.program, value)
    assert count == 500
    _verdict("criterion 2 (equivalence fuzz, 500 programs)", failures)


def test_criterion_3_conservativity_fuzz():
    failures = []
    for i in range(300):
        p = random_program(
            GeneratorConfig(seed=40000 + i, num_atoms=5, num_rules=7, max_head=1,
                            max_pos_body=2, max_neg_body=2, neg_probability=0.7)
        )
        want = normal_wfs(p)
        report = check_equivalence(p)
        if report.errors or not report.equal:
            failures.append(("normal-equal", i))
            continue
        for name, value in report.states.items():
            _note(p, value)
            if value != want:
                failures.append(("normal", i, name))
                break
    for i in range(300):
        p = random_program(
            GeneratorConfig(seed=50000 + i, num_atoms=5, num_rules=6, max_head=3,
                            max_pos_body=3, max_neg_body=3, neg_probability=0.0)
        )
        negatives = gcwa_negatives(p)
        report = check_equivalence(p)
        if report.errors or not report.equal:
            failures.append(("positive-equal", i))
            continue
        for name, value in report.states.items():
            _note(p, value)
            if value.false_atoms != negatives:
                failures.append(("gcwa", i, name))
                break
            ok = all(
                satisfies_positive(value, frozenset(c)) == entails_classical(p, frozenset(c))
                for k in range(1, 4)
                for c in itertools.combinations(sorted(p.base), k)
            )
            if not ok:
                failures.append(("entailment", i, name))
                break
    _verdict("criterion 3 (conservativity fuzz, 300 normal + 300 positive)", failures)


def test_criterion_4_invariance_fuzz():
    failures = []
    pairs = 0
    per_kind = {kind: 0 for kind in TransformKind}
    seed = 0
    while pairs < 200:
        seed += 1
        p = random_program(
            GeneratorConfig(seed=60000 + seed, num_atoms=5, num_rules=6,
                            max_head=3, max_pos_body=2, max_neg_body=2,
                            neg_probability=0.6)
        )
        base_wfds = wfds(p)
        base_res = strong_residual(p)
        for kind in TransformKind:
            steps = applicable(p, kind)
            if not steps:
                continue
            step = steps[pairs % len(steps)]
            q = apply(p, step)
            pairs += 1
            per_kind[kind] += 1
            if wfds(q) != base_wfds:
                failures.append(("wfds", seed, kind.value))
            if strong_residual(q) != base_res:
                failures.append(("residual", seed, kind.value))
            _note(q, wfds(q))
            if pairs >= 200:
                break
    if not all(per_kind.values()):
        failures.append(("kind coverage", {k.value: v for k, v in per_kind.items()}))
    _verdict("criterion 4 (invariance fuzz, 200 steps)", failures)


def test_criterion_5_inclusion_fuzz():
    failures = []
    for i in range(300):
        p = random_program(
            GeneratorConfig(seed=70000 + i, num_atoms=5, num_rules=6,
                            neg_probability=0.5)
        )
        weak = dwfs_classic(p)
        strong = dwfs_star(p)
        _note(p, strong)
        for k in range(1, 4):
            for c in itertools.combinations(sorted(p.base), k):
                d = frozenset(c)
                if satisfies_positive(weak, d) and not satisfies_positive(strong, d):
                    failures.append(("pos", i, d))
                if satisfies_negative(weak, d) and not satisfies_negative(strong, d):
                    failures.append(("neg", i, d))
    travel = parse_program(TRAVEL)
    strict = satisfies_negative(dwfs_star(travel), atoms(travel, "b")) and not satisfies_negative(
        dwfs_classic(travel), atoms(travel, "b")
    )
    if not strict:
        failures.append("travel strictness witness")
    _verdict("criterion 5 (baseline inclusion, 300 programs)", failures)


def test_criterion_6_consistency_everywhere():
    failures = [
        i for i, (_, value) in enumerate(_TOUCHED) if not state_consistent(value)
    ]
    assert len(_TOUCHED) > 2000
    _verdict(f"criterion 6 (consistency on {len(_TOUCHED)} computed states)", failures)


def test_criterion_7_unfounded_oracle_agreement():
    failures = []
    pairs = 0
    seed = 0
    while pairs < 200:
        seed += 1
        num_atoms = 6 + seed % 5
        p = random_program(
            GeneratorConfig(seed=80000 + seed, num_atoms=num_atoms, num_rules=7,
                            max_head=3, max_pos_body=2, max_neg_body=2,
                            neg_probability=0.6)
        )
        saturated = p.with_rules(lft(p))
        current = ModelState()
        while pairs < 200:
            base = sorted(saturated.base)
            union = frozenset()
            for k in range(1, len(base) + 1):
                for combo in itertools.combinations(base, k):
                    x = frozenset(combo)
                    if x <= union:
                        continue
                    if is_unfounded(saturated, current, x):
                        union |= x
            got = greatest_unfounded(saturated, current)
            pairs += 1
            if got is NO_GREATEST or got != union:
                failures.append((seed, sorted(union)))
            nxt = w_operator(saturated, current)
            if nxt == current:
                break
            current = nxt
    _verdict("criterion 7 (greatest unfounded = oracle union, 200 states)", failures)
