"""The five elementary program transformations, the generalized rule
implication test that powers rule elimination, and the structural axioms a
candidate semantics must satisfy."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import (
    ModelState,
    Program,
    Rule,
    heads_mask,
    mask_atoms,
    satisfies_negative,
    satisfies_positive,
)
from .parser import render_rule


class TransformKind(enum.Enum):
    UNFOLDING = "unfolding"
    ELIM_TAUTOLOGY = "elim-tautology"
    ELIM_S_IMPLICATION = "elim-s-implication"
    POSITIVE_REDUCTION = "positive-reduction"
    NEGATIVE_REDUCTION = "negative-reduction"


@dataclass(frozen=True)
class TransformStep:
    """One rewrite: drop `removed` from the program, then add `added`."""

    kind: TransformKind
    removed: frozenset
    added: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "removed", frozenset(self.removed))
        object.__setattr__(self, "added", frozenset(self.added))


def s_implies(h1: int, p1: int, n1: int, h2: int, p2: int, n2: int) -> bool:
    """True iff the rule with head, positive-body and negative-body masks
    (h1, p1, n1) is redundant given the stronger rule (h2, p2, n2).

    Plain form: rule 2's head and body are contained in rule 1's. Moved form:
    some negative body literals of rule 1, read as head atoms, cover rule 2's
    extra head atoms; the witness must then be an unconditional fact,
    otherwise the move would trade rule 1's firing direction for conditions
    of its own and derive more than the well-founded semantics allows.
    """
    if h1 == h2 and p1 == p2 and n1 == n2:
        return False
    moved = h2 & ~h1
    if moved:
        return not (moved & ~n1 or p2 or n2)
    return not (p2 & ~p1 or n2 & ~n1)


def is_s_implication(r1: Rule, r2: Rule) -> bool:
    """True iff r1 is redundant given the stronger rule r2 (see s_implies)."""
    return s_implies(
        r1.head_mask, r1.pos_mask, r1.neg_mask, r2.head_mask, r2.pos_mask, r2.neg_mask
    )


def _unfold(r: Rule, b: int, other: Rule) -> Rule:
    return Rule(
        r.head | (other.head - {b}),
        (r.pos_body - {b}) | other.pos_body,
        r.neg_body | other.neg_body,
    )


def applicable(p: Program, kind: TransformKind) -> tuple:
    """Every single application of the given transformation, in a
    deterministic order: the program's rule set order, then lowest atom
    first within a rule."""
    steps: list[TransformStep] = []
    if kind is TransformKind.UNFOLDING:
        for r in p.rules:
            for b in sorted(r.pos_body):
                resolvents = frozenset(
                    _unfold(r, b, other) for other in p.rules if b in other.head
                )
                steps.append(TransformStep(kind, frozenset((r,)), resolvents))
    elif kind is TransformKind.ELIM_TAUTOLOGY:
        for r in p.rules:
            if r.is_tautology:
                steps.append(TransformStep(kind, frozenset((r,))))
    elif kind is TransformKind.ELIM_S_IMPLICATION:
        for r1 in p.rules:
            if any(is_s_implication(r1, r2) for r2 in p.rules if r2 != r1):
                steps.append(TransformStep(kind, frozenset((r1,))))
    elif kind is TransformKind.POSITIVE_REDUCTION:
        heads = heads_mask(p.rules)
        for r in p.rules:
            for c in sorted(mask_atoms(r.neg_mask & ~heads)):
                reduced = Rule(r.head, r.pos_body, r.neg_body - {c})
                steps.append(TransformStep(kind, frozenset((r,)), frozenset((reduced,))))
    elif kind is TransformKind.NEGATIVE_REDUCTION:
        facts = [r for r in p.rules if r.is_fact]
        for r in p.rules:
            if r.neg_body and any(f.head <= r.neg_body for f in facts):
                steps.append(TransformStep(kind, frozenset((r,))))
    else:
        raise ValueError(f"unknown transformation kind {kind!r}")
    return tuple(dict.fromkeys(steps))


def apply(p: Program, step: TransformStep) -> Program:
    """Apply a transformation step; the empty step is the identity."""
    if not step.removed and not step.added:
        return p
    if step not in applicable(p, step.kind):
        raise ValueError("stale transform step: not applicable to this program")
    return p.with_rules((p.rules - step.removed) | step.added)


def bd_semantics_axioms(s: ModelState, p: Program) -> bool:
    """Structural conditions any candidate semantics value must satisfy:
    closure under super-disjunctions, truth of fact heads, and falsity of
    atoms outside every rule head."""
    closure = all(
        satisfies_positive(s, d | {x}) for d in s.pos for x in p.base
    ) and all(
        satisfies_negative(s, frozenset((a, x)))
        for a in s.false_atoms
        for x in p.base
    )
    facts_hold = all(satisfies_positive(s, r.head) for r in p.rules if r.is_fact)
    unheaded_false = p.base - mask_atoms(heads_mask(p.rules)) <= s.false_atoms
    return closure and facts_hold and unheaded_false


def render_step(step: TransformStep, names) -> str:
    """Trace line: kind, removed rules as '-rule', added rules as '+rule',
    each side in sorted text order."""
    removed = sorted(f"-{render_rule(r, names)}" for r in step.removed)
    added = sorted(f"+{render_rule(r, names)}" for r in step.added)
    line = f"{step.kind.value}: {' '.join(removed)}"
    if added:
        line += " / " + " ".join(added)
    return line
