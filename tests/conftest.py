"""Shared fixtures: example programs and small builders for tests."""

from __future__ import annotations

import pytest

import dwfs.argumentation as argumentation
import dwfs.unfounded as unfounded
from dwfs import Hypothesis, ModelState, parse_program

# Reduct / least-model-state demo: one positive chain plus a guarded
# disjunctive fact.
REDUCT_DEMO = """
a :- b, not c.
b | c :- not e.
b | c | d.
"""

# Supporting-hypothesis demo: cancelling an assumed-false atom out of a
# derived disjunction.
SUPPORT_DEMO = """
a | b :- c, not d.
c | e :- g, not f.
a | d :- not b.
g.
"""

# Attack/admissibility demo: a disjunctive fact defeats the assumptions
# that would fire the guarded rule; one odd loop stays undefined.
ATTACK_DEMO = """
a | b.
c :- d, not a, not b.
d.
e :- not e.
"""

# Either London or Paris; Berlin only if not Paris.
TRAVEL = """
b | l :- not p.
l | p.
"""

# Transformation-pipeline demo: unfolding, tautology elimination, rule
# elimination, and positive reduction all fire on the way down.
PIPELINE = """
p | p1 | p2.
p1 | p2 :- q.
p3 :- p, q, not p4.
p3 | p4.
w | q :- w, not p.
q.
"""

# Saturation demo and its expected conditional-fact form.
SATURATE = """
b | l :- u, not p.
l :- v.
p | v :- u, not w.
u.
"""
SATURATE_LFT = """
b | l :- not p.
l | p :- not w.
p | v :- not w.
u.
"""

# Unfounded-set demo: the disjunctive fact falsifies the guarded rule body.
GUARD = """
a | b.
c :- not a, not b.
"""

EVEN_LOOP = """
c :- not d.
d :- not c.
"""

HALF_LOOP = """
a :- not b.
c :- not c.
"""


@pytest.fixture
def travel():
    return parse_program(TRAVEL)


@pytest.fixture
def attack_demo():
    return parse_program(ATTACK_DEMO)


@pytest.fixture
def guard():
    return parse_program(GUARD)


def atoms(p, names: str) -> frozenset:
    """Space-separated atom names -> frozenset of ids in program p."""
    return frozenset(p.atom_id(n) for n in names.split())


def disj(p, names: str) -> frozenset:
    return atoms(p, names)


def lits(p, names: str) -> Hypothesis:
    """Literal-only hypothesis assuming the named atoms false."""
    return Hypothesis(atoms(p, names))


def state(p, pos=(), false: str = "") -> ModelState:
    """ModelState from disjunction strings and a false-atom string."""
    return ModelState(
        frozenset(atoms(p, d) for d in pos),
        atoms(p, false),
    )


def no_greatest_when_atom_a(monkeypatch):
    """Make uwfs's W operator undefined on every program with an atom a: the
    greatest unfounded set's mask, which the W operator reads, is None."""
    real = unfounded._greatest_mask

    def patched(p, false, core):
        return None if "a" in p.atom_names else real(p, false, core)

    monkeypatch.setattr(unfounded, "_greatest_mask", patched)


def admissibility_loses_assumptions(monkeypatch):
    """Make the admissibility sweep arm no atom for the empty hypothesis and
    every atom for any other, so the second round drops assumptions."""
    monkeypatch.setattr(argumentation, "_armed", lambda live, members, lits: -1 if lits else 0)
