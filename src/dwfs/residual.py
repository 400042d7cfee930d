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


def _saturate(p: Program, limit: int, prune: bool) -> tuple[frozenset, int]:
    """The binary-resolution worklist behind lft and saturation: resolve one
    positive body atom at a time, in id order, against stored conditional
    facts. With prune, a new fact that a stored fact subsumes (head and
    negative body both subsets) is not stored, and storing a fact evicts the
    stored facts it subsumes. Returns the stored facts and the peak number
    of stored rules; CapacityError once that number exceeds limit."""
    facts: dict[Rule, tuple[int, int]] = {}  # fact -> (head mask, neg mask)
    facts_by_head: dict[int, set[Rule]] = defaultdict(set)
    partials: set[Rule] = set()
    partials_by_slot: dict[int, set[Rule]] = defaultdict(set)
    work: deque[tuple[str, Rule]] = deque()
    peak = 0

    def subsumed(r: Rule, hm: int, nm: int) -> bool:
        """True if a stored fact subsumes r; else evict those r subsumes."""
        for a in r.head:
            for f in facts_by_head.get(a, ()):
                hf, nf = facts[f]
                if not (hf & ~hm or nf & ~nm):
                    return True
        bucket = min((facts_by_head.get(a, ()) for a in r.head), key=len)
        for f in [f for f in bucket if not (hm & ~facts[f][0] or nm & ~facts[f][1])]:
            del facts[f]
            for a in f.head:
                facts_by_head[a].discard(f)
        return False

    def push(r: Rule):
        nonlocal peak
        if r.pos_body:
            if r not in partials:
                partials.add(r)
                partials_by_slot[min(r.pos_body)].add(r)
                work.append(("partial", r))
        elif r not in facts:
            hm, nm = atom_mask(r.head), atom_mask(r.neg_body)
            if not (prune and subsumed(r, hm, nm)):
                facts[r] = hm, nm
                for a in r.head:
                    facts_by_head[a].add(r)
                work.append(("fact", r))
        stored = len(facts) + len(partials)
        if stored > limit:
            raise CapacityError(f"saturation exceeded {limit} stored rules")
        peak = max(peak, stored)

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
            if r not in facts:  # evicted while waiting
                continue
            for a in sorted(r.head):
                for q in list(partials_by_slot.get(a, ())):
                    push(resolve(q, r, a))
        else:
            b = min(r.pos_body)
            for f in list(facts_by_head.get(b, ())):
                push(resolve(r, f, b))
    return frozenset(facts), peak


def lft(p: Program, cap: int | None = None) -> frozenset:
    """Least fixpoint transformation: all conditional facts derivable by
    resolving away positive body atoms.

    Computed by a binary-resolution worklist (one body atom at a time, in id
    order); this reaches exactly the saturation of tpg_step, which the tests
    cross-check, without materializing whole premise tuples. Nothing is
    pruned, so this is the specification that `saturation` is checked
    against and what `dwfs lft` and `dwfs trace` print; the routes read
    `saturation` instead. CapacityError once more than `cap` rules (else
    DWFS_ORACLE_BOUND, else DEFAULT_LFT_CAP) are stored.
    """
    return _saturate(p, env_bound(cap, DEFAULT_LFT_CAP), prune=False)[0]


def saturation(p: Program, cap: int | None = None) -> frozenset:
    """The subsumption-minimal facts of lft(p): those no other fact of
    lft(p) subsumes with a head and a negative body that are both subsets.

    The same worklist as lft, pruned forward and backward by subsumption as
    facts are stored (Brass and Dix's residual-program computation). Every
    route reads this saturation. It is computed once per Program instance
    and kept on it, with the peak number of rules stored on the way, so a
    later call whose cap lies below that peak still raises CapacityError.
    """
    limit = env_bound(cap, DEFAULT_LFT_CAP)
    if p._saturation is None:
        p._saturation = _saturate(p, limit, prune=True)
    facts, peak = p._saturation
    if peak > limit:
        raise CapacityError(f"saturation exceeded {limit} stored rules")
    return facts


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
    n = saturation(p, cap)
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
    forms = {r: (atom_mask(r.head), atom_mask(r.neg_body)) for r in n}
    fact_heads = [h for h, m in forms.values() if not m]

    def removable(h1: int, n1: int) -> bool:
        return any(
            not (h2 & ~h1 or n2 & ~n1) and (h2, n2) != (h1, n1)
            for h2, n2 in forms.values()
        ) or any(not h & ~n1 for h in fact_heads)

    return frozenset(
        Rule(r.head, frozenset(), r.neg_body & heads)
        for r, form in forms.items()
        if not removable(*form)
    )


def classic_residual(p: Program, cap: int | None = None) -> frozenset:
    n = saturation(p, cap)
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
