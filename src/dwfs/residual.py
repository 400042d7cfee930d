"""Bottom-up computation of the transformation-based semantics: saturation
of a program into conditional facts on fixpoint's semi-naive
hyperresolution rounds (lft unpruned, saturated_program pruned by
subsumption), strong reduction, the strong residual program, its read-off
state, and the classic reduction baseline.

A negative program is a frozenset of Rule values with empty positive bodies
(conditional facts).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from .core import (
    CapacityError,
    ModelState,
    Program,
    Rule,
    atom_mask,
    heads_mask,
    mask_atoms,
    mask_bits,
    minimal_masks,
)
from .fixpoint import _lfp_masks, _Rounds
from .transforms import TransformKind, TransformStep, s_implies

DEFAULT_LFT_CAP = 1_000_000


def _check_facts(n: Iterable[Rule]) -> frozenset:
    facts = frozenset(n)
    for r in facts:
        if r.pos_body:
            raise ValueError("negative program may contain only conditional facts")
    return facts


def _encoded(p: Program) -> list:
    """p's rules as (clause mask, body mask) pairs for fixpoint's kernel: a
    clause carries its head, and its negative body in the bits above the
    atom table."""
    n = len(p.atom_names)
    return [(r.head_mask | r.neg_mask << n, r.pos_mask) for r in p.rules]


def _decoded(p: Program, clauses: Iterable[int]) -> frozenset:
    """The conditional facts that clause masks encode, as in _encoded."""
    n = len(p.atom_names)
    low = ~(-1 << n)
    return frozenset(Rule(mask_atoms(d & low), (), mask_atoms(d >> n)) for d in clauses)


def _saturate(rules: list, limit: int) -> tuple[list, int]:
    """The subset-minimal clauses of the limit of the hyperresolution
    operator, for rules encoded as in _encoded, on fixpoint's semi-naive
    rounds pruned by subsumption. Tautologies are left out: a resolvent of
    one contains the premise it resolved on the shared atom. The input facts
    open the first round, and each round admits only its minimal clauses
    that no held clause subsumes; a clause derived from a subsumed premise
    is subsumed by the subsumer or by what the subsumer derives in its
    place. Held clauses are never evicted. Returns the subset-minimal held
    clauses and the peak number of rules held at once (the input rules with
    a positive body, the admitted clauses and the current round's
    resolvents, fixed by the program alone); CapacityError once that
    exceeds limit.
    """
    base = sum(1 for _, body in rules if body)
    derived = {head for head, body in rules if not body}
    rounds = _Rounds([(h, body) for h, body in rules if body and not h & body])
    held: list[int] = []
    index: dict[int, list[int]] = {}  # held clauses by lowest atom
    peak = 0
    while True:
        peak = max(peak, base + len(held) + len(derived))
        if peak > limit:
            raise CapacityError(f"saturation exceeded {limit} stored rules")
        fresh = minimal_masks(derived, index)
        if not fresh:
            return minimal_masks(held), peak
        held += fresh
        derived = rounds.derive(fresh, limit, base + len(held))


def lft(p: Program, cap: int | None = None) -> frozenset:
    """Least fixpoint transformation: all conditional facts derivable by
    resolving away positive body atoms, nothing pruned: the specification
    that `saturation` is checked against, itself checked against iterating
    harness.tpg_step, and what `dwfs lft` and `dwfs trace` print. Computed by
    the kernel fixpoint._lfp_masks on the encoding of _encoded.
    CapacityError once more than `cap` facts (else DEFAULT_LFT_CAP) are
    derived.
    """
    closure = _lfp_masks(_encoded(p), cap=DEFAULT_LFT_CAP if cap is None else cap)
    return _decoded(p, closure)


def saturated_program(p: Program, cap: int | None = None) -> Program:
    """The saturation of p, as a program over p's atom table: the
    subsumption-minimal facts of lft(p), those no other fact of lft(p)
    subsumes with a head and a negative body that are both subsets.

    Computed by _saturate, on the kernel's rounds pruned by subsumption
    (Brass and Dix's residual-program computation). This is the one
    saturation memo: it is computed once per Program instance and kept on
    it, with the peak number of rules held on the way, so a later call
    whose cap lies below that peak still raises CapacityError. Every route
    reads it, and its live facts per false-atom set (live_in).
    """
    limit = DEFAULT_LFT_CAP if cap is None else cap
    if p._saturated is None:
        facts, peak = _saturate(_encoded(p), limit)
        p._saturated = p.with_rules(_decoded(p, facts)), peak
    q, peak = p._saturated
    if peak > limit:
        raise CapacityError(f"saturation exceeded {limit} stored rules")
    return q


def saturation(p: Program, cap: int | None = None) -> frozenset:
    """The facts of the saturation: saturated_program(p, cap).rules, read
    from its memo, so every call returns the same frozenset."""
    return saturated_program(p, cap).rules


def _by_lowest_head_atom(forms) -> dict[int, list]:
    """(head, negative body) mask pairs under the one-atom mask of their
    lowest head atom."""
    index: dict[int, list] = defaultdict(list)
    for h, n in forms:
        index[h & -h].append((h, n))
    return index


def _candidates(index: dict, scope: int) -> list:
    """The indexed forms whose lowest head atom lies in scope, which
    include every form whose head lies within scope."""
    return [f for a in mask_bits(scope) for f in index.get(a, ())]


def superseded(facts: Iterable[Rule], assumed_false=frozenset()) -> frozenset:
    """The conditional facts that a strictly stronger one s-implies, once
    negative literals on assumed-false atoms are discounted.

    s_implies(h1, 0, n1, h2, 0, n2) needs h2 to lie within h1 | n1 (only
    negated atoms of the weaker fact may cover the stronger one's extra
    head atoms), so only forms whose lowest head atom lies in h1 | n1 are
    tested, read off an index by lowest head atom.
    """
    off = ~atom_mask(assumed_false)
    by_form: dict[tuple, list[Rule]] = defaultdict(list)
    for r in facts:
        by_form[r.head_mask, r.neg_mask & off].append(r)
    index = _by_lowest_head_atom(by_form)
    out = []
    for h1, n1 in by_form:
        if any(s_implies(h1, 0, n1, h2, 0, n2) for h2, n2 in _candidates(index, h1 | n1)):
            out.extend(by_form[h1, n1])
    return frozenset(out)


def live_in(q: Program, false: int = 0) -> frozenset:
    """q's rules, all conditional facts, minus those superseded finds with
    the atoms of the mask false assumed false: the facts that no strictly
    stronger one s-implies once those atoms are discounted, the only ones a
    route reads. Computed once per program and mask and kept on q, in a
    table keyed by the mask: on saturated_program(p), wfds sweeps it in every
    admissibility round, uwfs reads it in every W step and dwfs_star in its
    first reduction pass."""
    table = q._live
    got = table.get(false)
    if got is None:
        got = table[false] = q.rules - superseded(q.rules, mask_atoms(false))
    return got


def _reduce_negation(r: Rule, heads: int) -> Rule:
    """r without the negative literals on atoms outside the head mask heads."""
    if r.neg_mask & ~heads:
        return Rule(r.head, frozenset(), mask_atoms(r.neg_mask & heads))
    return r


def strong_reduction(n: Iterable[Rule]) -> frozenset:
    """Drop facts that are s-implications of other facts, then delete every
    negative literal whose atom heads no fact of the input."""
    n = _check_facts(n)
    return _strong_reduce(n, n - superseded(n))


def _strong_reduce(n: frozenset, live: frozenset) -> frozenset:
    """strong_reduction(n) given the facts of n it keeps, live."""
    heads = heads_mask(n)
    return frozenset(_reduce_negation(r, heads) for r in live)


def strong_residual(p: Program, cap: int | None = None) -> frozenset:
    """Fixpoint of the strong reduction over the saturation of p. The first
    pass keeps the saturation's live facts (live_in), the later ones go
    through strong_reduction."""
    q = saturated_program(p, cap)
    n, nxt = q.rules, _strong_reduce(q.rules, live_in(q))
    while nxt != n:
        n, nxt = nxt, strong_reduction(nxt)
    return n


def classic_reduction(n: Iterable[Rule]) -> frozenset:
    """Baseline reduction: drop plain implications of other facts and facts
    negatively blocked by an unconditional fact, then delete dead negative
    literals. Strictly weaker than strong_reduction."""
    n = _check_facts(n)
    heads = heads_mask(n)
    index = _by_lowest_head_atom({(r.head_mask, r.neg_mask) for r in n})

    def removable(h1: int, n1: int) -> bool:
        # A plain implication's head lies within h1, a blocking fact's head
        # within n1.
        return any(
            not (h2 & ~h1 or n2 & ~n1) and (h2, n2) != (h1, n1)
            for h2, n2 in _candidates(index, h1)
        ) or any(not n2 and not h2 & ~n1 for h2, n2 in _candidates(index, n1))

    return frozenset(
        _reduce_negation(r, heads) for r in n if not removable(r.head_mask, r.neg_mask)
    )


def classic_residual(p: Program, cap: int | None = None) -> frozenset:
    """Fixpoint of the classic reduction over the saturation of p."""
    n = saturation(p, cap)
    while (nxt := classic_reduction(n)) != n:
        n = nxt
    return n


def read_off(p: Program, n: Iterable[Rule]) -> ModelState:
    """State read directly from a residual program: unconditional fact heads
    are true, atoms outside every head are false."""
    n = frozenset(n)
    pos = [r.head for r in n if not r.neg_body]
    return ModelState(pos, p.base - mask_atoms(heads_mask(n)))


def dwfs_star(p: Program) -> ModelState:
    """Transformation-based semantics via the strong residual program."""
    return read_off(p, strong_residual(p))


def dwfs_classic(p: Program) -> ModelState:
    """Baseline semantics via the classic reduction fixpoint."""
    return read_off(p, classic_residual(p))


def reduction_pass(n: Iterable[Rule]) -> tuple[list[TransformStep], frozenset]:
    """One strong-reduction pass, decomposed into elementary transformation
    steps (one elimination per dropped fact, then one positive reduction per
    deleted body literal), with the program it yields: strong_reduction(n)."""
    n = _check_facts(n)
    heads = heads_mask(n)
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
        for c in sorted(mask_atoms(r.neg_mask & ~heads)):
            reduced = Rule(cur.head, frozenset(), cur.neg_body - {c})
            steps.append(
                TransformStep(
                    TransformKind.POSITIVE_REDUCTION,
                    frozenset((cur,)),
                    frozenset((reduced,)),
                )
            )
            cur = reduced
    return steps, _strong_reduce(n, n - dropped)


def residual_trace(p: Program, cap: int | None = None):
    """The reduction iteration: the saturation, per-pass elementary steps
    with the resulting negative program, and the final residual."""
    saturated = lft(p, cap)
    n = saturated
    passes = []
    while True:
        steps, nxt = reduction_pass(n)
        if nxt == n:
            return saturated, passes, n
        passes.append((steps, nxt))
        n = nxt
