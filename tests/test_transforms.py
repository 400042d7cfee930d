import pytest

from dwfs import (
    GeneratorConfig,
    Rule,
    TransformKind,
    TransformStep,
    applicable,
    apply,
    bd_semantics_axioms,
    parse_program,
    random_program,
    is_s_implication,
    wfds,
)
from dwfs.transforms import render_step
from conftest import PIPELINE, TRAVEL, atoms, state


def _rule(p, head, pos="", neg=""):
    return Rule(atoms(p, head), atoms(p, pos), atoms(p, neg))


def test_moved_literal_implication():
    p = parse_program(TRAVEL)
    weaker = _rule(p, "b l", neg="p")
    stronger = _rule(p, "l p")
    assert is_s_implication(weaker, stronger)
    assert not is_s_implication(stronger, weaker)


def test_plain_implication():
    p = parse_program(TRAVEL)
    assert is_s_implication(_rule(p, "b l", neg="p"), _rule(p, "l", neg="p"))


def test_rule_never_implies_itself():
    p = parse_program(TRAVEL)
    r = _rule(p, "b l", neg="p")
    assert not is_s_implication(r, r)


def test_moved_literal_requires_negation_free_witness():
    # Trading a negative literal for a head atom against a witness that
    # itself carries default negation would change the semantics.
    p = parse_program("a :- not a, not e. e :- not a.")
    assert not is_s_implication(_rule(p, "a", neg="a e"), _rule(p, "e", neg="a"))


def test_unfolding_steps_replace_rule_by_resolvents():
    p = parse_program("a :- b. b | c.")
    (step,) = applicable(p, TransformKind.UNFOLDING)
    assert step.removed == {_rule(p, "a", pos="b")}
    assert step.added == {_rule(p, "a c")}
    q = apply(p, step)
    assert q.rule_names() == parse_program("a | c. b | c.").rule_names()


def test_unfolding_resolves_with_rule_itself_when_head_matches():
    # The only resolvent partner is the rule itself, whose body survives.
    p = parse_program("a | b :- a.")
    (step,) = applicable(p, TransformKind.UNFOLDING)
    assert step.added == {_rule(p, "a b", pos="a")}


def test_tautology_elimination_detects_head_body_overlap():
    p = parse_program("w | q :- w, not p. q.")
    (step,) = applicable(p, TransformKind.ELIM_TAUTOLOGY)
    assert step.removed == {_rule(p, "w q", pos="w", neg="p")}


def test_positive_reduction_drops_dead_literal():
    p = parse_program("a :- not b, not c. c.")
    steps = applicable(p, TransformKind.POSITIVE_REDUCTION)
    assert len(steps) == 1
    (step,) = steps
    assert step.added == {_rule(p, "a", neg="c")}


def test_negative_reduction_removes_blocked_rule():
    p = parse_program("x :- not a, not b. a | b.")
    (step,) = applicable(p, TransformKind.NEGATIVE_REDUCTION)
    assert step.removed == {_rule(p, "x", neg="a b")}


def test_negative_reduction_is_special_moved_implication():
    for seed in range(15):
        p = random_program(GeneratorConfig(seed, num_atoms=5, num_rules=6))
        for step in applicable(p, TransformKind.NEGATIVE_REDUCTION):
            (removed,) = step.removed
            facts = [r for r in p.rules if r.is_fact and r.head <= removed.neg_body]
            assert any(is_s_implication(removed, f) for f in facts)


def test_pipeline_reduces_to_three_facts():
    p = parse_program(PIPELINE)
    # Unfold q out of both q-dependent rules, then run the removals and
    # reductions to their fixpoint. A step unfolds q when no rule it adds
    # keeps q in its positive body; unfolding p in "p3 :- p, q, not p4."
    # keeps it, and which of the two steps came first would then depend on
    # the order of the rule set.
    q = p.atom_id("q")
    for _ in range(2):
        step = next(
            s
            for s in applicable(p, TransformKind.UNFOLDING)
            if all(q in r.pos_body for r in s.removed)
            and not any(q in r.pos_body for r in s.added)
        )
        p = apply(p, step)
    for kind in (
        TransformKind.ELIM_TAUTOLOGY,
        TransformKind.ELIM_S_IMPLICATION,
        TransformKind.POSITIVE_REDUCTION,
    ):
        while True:
            steps = applicable(p, kind)
            if not steps:
                break
            p = apply(p, steps[0])
    assert p.rule_names() == parse_program("p1 | p2. p3 | p4. q.").rule_names()


def test_travel_elimination():
    p = parse_program(TRAVEL)
    (step,) = applicable(p, TransformKind.ELIM_S_IMPLICATION)
    q = apply(p, step)
    assert q.rule_names() == parse_program("l | p.").rule_names()


def test_empty_step_is_identity():
    p = parse_program(TRAVEL)
    step = TransformStep(TransformKind.UNFOLDING, frozenset(), frozenset())
    assert apply(p, step) is p


def test_stale_step_rejected():
    p = parse_program(TRAVEL)
    q = parse_program("x. y :- x.")
    (step,) = applicable(q, TransformKind.UNFOLDING)
    with pytest.raises(ValueError):
        apply(p, step)


def test_semantics_invariant_under_every_step():
    for seed in range(25):
        p = random_program(GeneratorConfig(seed + 300, num_atoms=5, num_rules=5))
        value = wfds(p)
        for kind in TransformKind:
            for step in applicable(p, kind)[:2]:
                assert wfds(apply(p, step)) == value


def test_structural_axioms():
    p = parse_program("a. x :- b, not a.")
    assert bd_semantics_axioms(wfds(p), p)
    assert not bd_semantics_axioms(state(p, pos=[], false="b x"), p)
    assert not bd_semantics_axioms(state(p, pos=["a"], false="x"), p)


def test_axioms_require_unheaded_atoms_false():
    p = parse_program("a :- b.")
    assert not bd_semantics_axioms(state(p, pos=[]), p)
    assert bd_semantics_axioms(state(p, pos=[], false="a b"), p)


def test_render_step_format():
    p = parse_program("a :- not b, not c. c.")
    (step,) = applicable(p, TransformKind.POSITIVE_REDUCTION)
    line = render_step(step, p.atom_names)
    assert line == "positive-reduction: -a :- not b, not c. / +a :- not c."
    # z is interned before c, so the '+rule' order is the text order, not
    # the atom id order.
    p = parse_program("a :- b. b :- z. b :- c. z. c.")
    (step,) = [
        s for s in applicable(p, TransformKind.UNFOLDING)
        if s.removed == {_rule(p, "a", pos="b")}
    ]
    assert len(step.added) == 2
    line = render_step(step, p.atom_names)
    assert line == "unfolding: -a :- b. / +a :- c. +a :- z."
