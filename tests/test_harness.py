import itertools

import pytest

import dwfs.unfounded as unfounded
from dwfs import (
    AdmissibilityError,
    CapacityError,
    NoGreatestUnfoundedSetError,
    GeneratorConfig,
    Program,
    Rule,
    check_equivalence,
    dwfs_classic,
    gcwa_negatives,
    minimal_models,
    normal_wfs,
    parse_program,
    random_program,
    render_program,
    wfds,
)
from dwfs import satisfies_negative, satisfies_positive
from dwfs.harness import (
    ROUTES,
    SEMANTICS_NAMES,
    atom_names,
    compute_semantics,
    find_divergence,
    fuzz_reports,
    report_json,
    shrink_divergence,
    states_agree,
)
from conftest import (
    ATTACK_DEMO,
    GUARD,
    HALF_LOOP,
    REDUCT_DEMO,
    TRAVEL,
    admissibility_loses_assumptions,
    atoms,
    no_greatest_when_atom_a,
    state,
)


def test_generator_is_deterministic():
    cfg = GeneratorConfig(seed=42, num_atoms=5, num_rules=6)
    assert random_program(cfg) == random_program(cfg)


def test_generator_respects_bounds():
    cfg = GeneratorConfig(seed=7, num_atoms=5, num_rules=6)
    p = random_program(cfg)
    assert len(p.rules) <= 6
    assert len(p.atom_names) == 5
    normal = random_program(
        GeneratorConfig(seed=7, num_atoms=5, num_rules=6, max_head=1, neg_probability=0.0)
    )
    assert all(len(r.head) == 1 and not r.neg_body for r in normal.rules)


def test_generator_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, num_atoms=2, max_head=3)
    for bad, message in [
        ({"num_atoms": 0}, "num_atoms must be positive"),
        ({"max_head": 0}, "max_head must be at least 1"),
        ({"max_pos_body": -1}, "body bounds cannot be negative"),
        ({"max_neg_body": -1}, "body bounds cannot be negative"),
        ({"num_atoms": 2, "max_head": 1, "max_pos_body": 3}, "size bounds cannot exceed"),
        ({"num_atoms": 2, "max_head": 1, "max_neg_body": 3}, "size bounds cannot exceed"),
    ]:
        with pytest.raises(ValueError, match=message):
            GeneratorConfig(**bad)


def test_generator_rejects_negative_rule_count():
    with pytest.raises(ValueError, match="num_rules cannot be negative"):
        GeneratorConfig(num_rules=-3)
    assert random_program(GeneratorConfig(num_rules=0)).rules == frozenset()


@pytest.mark.parametrize("prob", [-0.1, 1.5, float("nan"), float("inf")])
def test_generator_rejects_neg_probability_outside_unit_interval(prob):
    with pytest.raises(ValueError, match="neg_probability"):
        GeneratorConfig(neg_probability=prob)
    for edge in (0.0, 1.0):
        GeneratorConfig(neg_probability=edge)


def test_generated_atom_names_skip_the_reserved_word():
    # Spreadsheet order would name atom 9,873 "not". A chain over 9,880
    # atoms mentions every atom, that one among them as a head and as a
    # negated body atom, and renders to text that re-parses to it.
    n = 9880
    names = atom_names(n)
    assert "not" not in names and len(set(names)) == n
    assert names[9872:9874] == ["nos", "nou"]
    p = Program(
        [Rule({a}, (), {a + 1}) for a in range(n - 1)] + [Rule({n - 1})], names
    )
    assert parse_program(render_program(p)) == p


def test_minimal_models_of_disjunctive_fact():
    p = parse_program("a | b.")
    assert minimal_models(p) == {atoms(p, "a"), atoms(p, "b")}


def test_minimal_models_of_chain():
    p = parse_program("a :- b. b | c | d.")
    assert minimal_models(p) == {atoms(p, "c"), atoms(p, "d"), atoms(p, "a b")}


def test_minimal_models_of_empty_program():
    p = parse_program("")
    assert minimal_models(p) == {frozenset()}


def test_minimal_models_capacity():
    p = parse_program("a.")
    with pytest.raises(CapacityError):
        minimal_models(p, bound=0)


def test_gcwa_examples():
    p = parse_program("a | b.")
    assert gcwa_negatives(p) == frozenset()
    q = parse_program("a. x :- b.")
    assert gcwa_negatives(q) == atoms(q, "x b")


def test_gcwa_of_reduced_pipeline():
    p = parse_program("p1 | p2. p3 | p4. q. w :- p, w.")
    assert gcwa_negatives(p) == atoms(p, "p w")


def test_normal_wfs_examples():
    p = parse_program(HALF_LOOP)
    assert normal_wfs(p) == state(p, pos=["a"], false="b")
    loop = parse_program("c :- not d. d :- not c.")
    assert normal_wfs(loop) == state(loop, pos=[])
    fact = parse_program("a. b :- c.")
    assert normal_wfs(fact) == state(fact, pos=["a"], false="b c")


def test_normal_wfs_rejects_disjunction():
    with pytest.raises(ValueError):
        normal_wfs(parse_program("a | b."))


def test_all_semantics_extend_normal_wfs():
    for seed in range(30):
        p = random_program(
            GeneratorConfig(seed, num_atoms=5, num_rules=6, max_head=1, neg_probability=0.7)
        )
        want = normal_wfs(p)
        report = check_equivalence(p)
        assert report.equal
        for s in report.states.values():
            assert s == want


def test_check_equivalence_on_examples():
    for text, pos, false in [
        (ATTACK_DEMO, ["a b", "d"], "c"),
        (TRAVEL, ["l p"], "b"),
        (GUARD, ["a b"], "c"),
    ]:
        p = parse_program(text)
        report = check_equivalence(p)
        assert report.equal
        assert set(report.states) == {"wfds", "wfds-raw", "dwfs-star", "uwfs"}
        want = state(p, pos=pos, false=false)
        assert all(s == want for s in report.states.values())


def test_route_table_names_every_route_once():
    # One table names the routes: check_equivalence compares all but the
    # baseline, and compute_semantics refuses a name outside it.
    assert tuple(ROUTES) == ("wfds", "wfds-raw", "dwfs-star", "dwfs-classic", "uwfs")
    assert SEMANTICS_NAMES == ("wfds", "wfds-raw", "dwfs-star", "uwfs")
    p = parse_program(TRAVEL)
    with pytest.raises(ValueError, match="unknown semantics 'nope'"):
        compute_semantics(p, "nope")


def test_states_agree_matches_pointwise_satisfaction():
    p = parse_program(REDUCT_DEMO)
    candidates = [
        state(p, pos=["a b"], false="c"),
        state(p, pos=["a b"], false="c e"),
        state(p, pos=["a", "b"], false="c"),
        state(p, pos=["a b c"], false=""),
    ]
    base = sorted(p.base)
    for s1 in candidates:
        for s2 in candidates:
            pointwise = all(
                satisfies_positive(s1, frozenset(c)) == satisfies_positive(s2, frozenset(c))
                and satisfies_negative(s1, frozenset(c)) == satisfies_negative(s2, frozenset(c))
                for k in range(1, len(base) + 1)
                for c in itertools.combinations(base, k)
            )
            assert states_agree(s1, s2) == pointwise


def test_find_divergence_names_the_first_witness():
    p = parse_program(REDUCT_DEMO)
    same = state(p, pos=["a b"], false="c")
    assert find_divergence(same, same) is None
    # {a} comes first in sorted order and only the second state has it.
    split = state(p, pos=["a", "b"], false="c")
    assert find_divergence(same, split) == ("pos", atoms(p, "a"))
    # Equal cores: the lowest atom false in exactly one state.
    other = state(p, pos=["a b"], false="d e")
    assert find_divergence(same, other) == ("neg", atoms(p, "c"))


def test_shrink_preserves_divergence():
    # The baseline semantics genuinely differs from the strong one on the
    # travel rules; shrinking from a padded program keeps that witness.
    padded = parse_program(TRAVEL + "x :- y, not z. z | y.")

    def divergent(q):
        return dwfs_classic(q).false_atoms != wfds(q).false_atoms

    assert divergent(padded)
    small = shrink_divergence(padded, divergent)
    assert divergent(small)
    assert len(small.rules) == 2
    assert len(small.atom_names) == 3


def test_fuzz_reports_inject_degenerates_and_agree():
    reports = list(fuzz_reports(5, GeneratorConfig(seed=3, num_atoms=4, num_rules=4)))
    assert len(reports) == 7
    assert not reports[0].program.rules
    assert all(r.is_fact for r in reports[1].program.rules)
    assert all(rep.equal for rep in reports)


def test_report_json_shape():
    p = parse_program(TRAVEL)
    doc = report_json(check_equivalence(p))
    assert doc["equal"] is True
    assert doc["first_divergence"] is None
    assert doc["states"]["wfds"] == {
        "true_disjunctions": [["l", "p"]],
        "false_atoms": ["b"],
        "undefined_atoms": ["l", "p"],
    }
    assert "b | l :- not p." in doc["program"]


def test_check_equivalence_records_route_failures(monkeypatch):
    p = parse_program(TRAVEL)
    no_greatest_when_atom_a(monkeypatch)
    assert check_equivalence(parse_program("b :- not c.")).errors == {}
    report = check_equivalence(parse_program("a | b :- not c. c."))
    assert set(report.errors) == {"uwfs"}
    assert isinstance(report.errors["uwfs"], NoGreatestUnfoundedSetError)
    assert report.route_errors == report.errors
    assert report.equal and set(report.states) == {"wfds", "wfds-raw", "dwfs-star"}
    assert "well-founded operator undefined" in report_json(report)["errors"]["uwfs"]

    monkeypatch.undo()
    admissibility_loses_assumptions(monkeypatch)
    report = check_equivalence(p)
    assert set(report.errors) == {"wfds", "wfds-raw"}
    assert all(isinstance(e, AdmissibilityError) for e in report.errors.values())
    assert report_json(report)["errors"]["wfds"] == "admissibility iteration lost assumptions"


def test_capacity_errors_are_not_route_failures(monkeypatch):
    def capped(p, s):
        raise CapacityError("capped")

    monkeypatch.setattr(unfounded, "greatest_unfounded", capped)
    report = check_equivalence(parse_program(TRAVEL))
    assert set(report.errors) == {"uwfs"} and report.route_errors == {}
    assert report.capacity_errors == report.errors
    assert report_json(report)["errors"] == {"uwfs": "capped"}


def test_fuzz_reports_shrink_route_failures(monkeypatch):
    no_greatest_when_atom_a(monkeypatch)
    reports = list(fuzz_reports(3, GeneratorConfig(seed=3, num_atoms=4, num_rules=4)))
    assert len(reports) == 5
    for rep in reports:
        assert set(rep.route_errors) == {"uwfs"}
        assert not rep.program.rules and rep.program.atom_names == ("a",)
