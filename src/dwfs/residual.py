"""Bottom-up computation of the transformation-based semantics: saturation
of a program into conditional facts, strong reduction, the strong residual
program, its read-off state, and the classic reduction baseline.

A negative program is a frozenset of Rule values with empty positive bodies
(conditional facts).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable

from .core import (
    CapacityError,
    ModelState,
    Program,
    Rule,
    atom_mask,
    canonicalize,
    env_bound,
)
from .transforms import TransformKind, TransformStep, s_implies

DEFAULT_LFT_CAP = 1_000_000


def _check_facts(n: Iterable[Rule]) -> frozenset:
    facts = frozenset(n)
    for r in facts:
        if r.pos_body:
            raise ValueError("negative program may contain only conditional facts")
    return facts


def heads_of(n: Iterable[Rule]) -> frozenset:
    acc = set()
    for r in n:
        acc |= r.head
    return frozenset(acc)


def as_program(p: Program, facts: Iterable[Rule]) -> Program:
    """Wrap a negative program over p's atom table."""
    return p.with_rules(facts)


def tpg_step(p: Program, j: Iterable[Rule]) -> frozenset:
    """One saturation round: resolve every rule's positive body atoms against
    conditional facts from j whose heads contain them, delaying negation."""
    j = _check_facts(j)
    by_head: dict[int, list[Rule]] = defaultdict(list)
    for f in j:
        for a in f.head:
            by_head[a].append(f)
    out = set()
    for r in p.rules:
        combos: list[list[Rule]] = [[]]
        for b in sorted(r.pos_body):
            cands = by_head.get(b)
            if not cands:
                combos = []
                break
            combos = [c + [f] for c in combos for f in cands]
        for combo in combos:
            head = set(r.head)
            neg = set(r.neg_body)
            for b, f in zip(sorted(r.pos_body), combo):
                head |= f.head - {b}
                neg |= f.neg_body
            out.add(Rule(frozenset(head), frozenset(), frozenset(neg)))
    return frozenset(out)


def lft(p: Program, cap: int | None = None) -> frozenset:
    """Least fixpoint transformation: all conditional facts derivable by
    resolving away positive body atoms.

    Computed by a binary-resolution worklist (one body atom at a time, in id
    order); this reaches exactly the saturation of tpg_step, which the tests
    cross-check, without materializing whole premise tuples.
    """
    limit = env_bound(cap, DEFAULT_LFT_CAP)
    facts: set[Rule] = set()
    facts_by_head: dict[int, set[Rule]] = defaultdict(set)
    partials: set[Rule] = set()
    partials_by_slot: dict[int, set[Rule]] = defaultdict(set)
    work: deque[tuple[str, Rule]] = deque()

    def push(r: Rule):
        if r.pos_body:
            if r not in partials:
                partials.add(r)
                partials_by_slot[min(r.pos_body)].add(r)
                work.append(("partial", r))
        else:
            if r not in facts:
                facts.add(r)
                for a in r.head:
                    facts_by_head[a].add(r)
                work.append(("fact", r))
        if len(facts) + len(partials) > limit:
            raise CapacityError(f"saturation exceeded {limit} stored rules")

    def resolve(partial: Rule, fact: Rule, b: int) -> Rule:
        return Rule(
            partial.head | (fact.head - {b}),
            partial.pos_body - {b},
            partial.neg_body | fact.neg_body,
        )

    for r in p.rules:
        push(r)
    while work:
        tag, r = work.popleft()
        if tag == "fact":
            for a in sorted(r.head):
                for q in list(partials_by_slot.get(a, ())):
                    push(resolve(q, r, a))
        else:
            b = min(r.pos_body)
            for f in list(facts_by_head.get(b, ())):
                push(resolve(r, f, b))
    return frozenset(facts)


def superseded(facts: Iterable[Rule], assumed_false=frozenset()) -> frozenset:
    """The conditional facts that a strictly stronger one s-implies, once
    negative literals on assumed-false atoms are discounted."""
    off = ~atom_mask(assumed_false)
    by_form: dict[tuple, list[Rule]] = defaultdict(list)
    for r in facts:
        by_form[atom_mask(r.head), atom_mask(r.neg_body) & off].append(r)
    forms = list(by_form)
    out = []
    for h1, n1 in forms:
        if any(s_implies(h1, 0, n1, h2, 0, n2) for h2, n2 in forms):
            out.extend(by_form[h1, n1])
    return frozenset(out)


def strong_reduction(n: Iterable[Rule]) -> frozenset:
    """Drop facts that are s-implications of other facts, then delete every
    negative literal whose atom heads no fact of the input."""
    n = _check_facts(n)
    heads = heads_of(n)
    dropped = superseded(n)
    return frozenset(
        Rule(r.head, frozenset(), r.neg_body & heads) for r in n if r not in dropped
    )


def strong_residual(p: Program, cap: int | None = None) -> frozenset:
    """Fixpoint of the strong reduction over the saturation of p."""
    n = lft(p, cap)
    while True:
        nxt = strong_reduction(n)
        if nxt == n:
            return n
        n = nxt


def classic_reduction(n: Iterable[Rule]) -> frozenset:
    """Baseline reduction: drop plain implications of other facts and facts
    negatively blocked by an unconditional fact, then delete dead negative
    literals. Strictly weaker than strong_reduction."""
    n = _check_facts(n)
    heads = heads_of(n)
    plain_facts = [r for r in n if r.is_fact]

    def removable(r: Rule) -> bool:
        if any(
            r2 != r and r2.head <= r.head and r2.neg_body <= r.neg_body
            for r2 in n
        ):
            return True
        return any(f.head <= r.neg_body for f in plain_facts)

    return frozenset(
        Rule(r.head, frozenset(), r.neg_body & heads) for r in n if not removable(r)
    )


def classic_residual(p: Program, cap: int | None = None) -> frozenset:
    n = lft(p, cap)
    while True:
        nxt = classic_reduction(n)
        if nxt == n:
            return n
        n = nxt


def read_off(p: Program, n: Iterable[Rule]) -> ModelState:
    """State read directly from a residual program: unconditional fact heads
    are true, atoms outside every head are false."""
    n = frozenset(n)
    pos = canonicalize(r.head for r in n if not r.neg_body)
    return ModelState(pos, p.base - heads_of(n))


def dwfs_star(p: Program, cap: int | None = None) -> ModelState:
    """Transformation-based semantics via the strong residual program."""
    return read_off(p, strong_residual(p, cap))


def dwfs_classic(p: Program, cap: int | None = None) -> ModelState:
    """Baseline semantics via the classic reduction fixpoint."""
    return read_off(p, classic_residual(p, cap))


def reduction_steps(n: Iterable[Rule]) -> list[TransformStep]:
    """Decompose one strong-reduction pass into elementary transformation
    steps: one elimination per dropped fact, then one positive reduction per
    deleted body literal."""
    n = _check_facts(n)
    heads = heads_of(n)
    dropped = superseded(n)
    steps: list[TransformStep] = []
    kept = []
    for r in sorted(n, key=lambda r: (sorted(r.head), sorted(r.neg_body))):
        if r in dropped:
            steps.append(TransformStep(TransformKind.ELIM_S_IMPLICATION, frozenset((r,))))
        else:
            kept.append(r)
    for r in kept:
        cur = r
        for c in sorted(r.neg_body - heads):
            reduced = Rule(cur.head, frozenset(), cur.neg_body - {c})
            steps.append(
                TransformStep(
                    TransformKind.POSITIVE_REDUCTION,
                    frozenset((cur,)),
                    frozenset((reduced,)),
                )
            )
            cur = reduced
    return steps


def residual_trace(p: Program, cap: int | None = None):
    """The reduction iteration: the saturation, per-pass elementary steps
    with the resulting negative program, and the final residual."""
    saturated = lft(p, cap)
    n = saturated
    passes = []
    while True:
        nxt = strong_reduction(n)
        if nxt == n:
            return saturated, passes, n
        passes.append((reduction_steps(n), nxt))
        n = nxt
