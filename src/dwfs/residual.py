"""Bottom-up computation of the transformation-based semantics: saturation
of a program into conditional facts on fixpoint's semi-naive
hyperresolution rounds (lft unpruned, saturated_program pruned by
subsumption), strong reduction, the strong residual program, its read-off
state, and the classic reduction baseline.

A negative program is a frozenset of Rule values with empty positive bodies
(conditional facts). The saturation, its live tables and the reduction loops
keep such facts as (head mask, negative body mask) pairs, the fact store,
and decode them to Rules only at the API edge.
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
    decode_facts,
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
    if any(r.pos_mask for r in facts):
        raise ValueError("negative program may contain only conditional facts")
    return facts


def _encoded(p: Program) -> list:
    """p's rules as (clause mask, body mask) pairs for fixpoint's kernel: a
    clause carries its head, and its negative body in the bits above the
    atom table."""
    n = len(p.atom_names)
    return [(r.head_mask | r.neg_mask << n, r.pos_mask) for r in p.rules]


def _split(p: Program, clauses: Iterable[int]) -> frozenset:
    """The (head mask, negative body mask) pairs of clauses as in _encoded."""
    n = len(p.atom_names)
    low = ~(-1 << n)
    return frozenset((d & low, d >> n) for d in clauses)


def _pairs(facts: Iterable[Rule]) -> frozenset:
    """The (head mask, negative body mask) pairs of conditional facts."""
    return frozenset((r.head_mask, r.neg_mask) for r in facts)

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
    return decode_facts(_split(p, closure))


def saturated_program(p: Program, cap: int | None = None) -> Program:
    """The saturation of p, as a program over p's atom table: the
    subsumption-minimal facts of lft(p), those no other fact of lft(p)
    subsumes with a head and a negative body that are both subsets.

    Computed by _saturate, on the kernel's rounds pruned by subsumption
    (Brass and Dix's residual-program computation). This is the one
    saturation memo: it is computed once per Program instance and kept on
    it, with the peak number of rules held on the way, so a later call
    whose cap lies below that peak still raises CapacityError. Every route
    reads its fact pairs (fact_masks) and their live tables (live_in); its
    rules are decoded from the pairs once, on first read (saturation).
    """
    limit = DEFAULT_LFT_CAP if cap is None else cap
    if p._saturated is None:
        facts, peak = _saturate(_encoded(p), limit)
        q = Program((), p.atom_names)
        q._rules, q._facts = None, _split(p, facts)
        p._saturated = q, peak
    q, peak = p._saturated
    if peak > limit:
        raise CapacityError(f"saturation exceeded {limit} stored rules")
    return q


def saturation(p: Program, cap: int | None = None) -> frozenset:
    """The facts of the saturation: saturated_program(p, cap).rules, decoded
    from its memo once, so every call returns the same frozenset."""
    return saturated_program(p, cap).rules


def fact_masks(q: Program) -> frozenset:
    """q's facts as (head mask, negative body mask) pairs: a saturation's fact
    store, else q's conditional facts (ValueError otherwise), encoded once."""
    if q._facts is None:
        q._facts = _pairs(_check_facts(q.rules))
    return q._facts


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


def _superseded_masks(facts: Iterable[tuple[int, int]], false: int = 0) -> frozenset:
    """The (head mask, negative body mask) fact pairs that a strictly
    stronger one s-implies once the atoms of the mask false are discounted.

    s_implies(h1, 0, n1, h2, 0, n2) needs h2 to lie within h1 | n1 (only
    negated atoms of the weaker fact may cover the stronger one's extra
    head atoms), so only forms whose lowest head atom lies in h1 | n1 are
    tested, read off an index by lowest head atom.
    """
    off = ~false
    by_form: dict[tuple, list] = defaultdict(list)
    for h, n in facts:
        by_form[h, n & off].append((h, n))
    index = _by_lowest_head_atom(by_form)
    out = []
    for h1, n1 in by_form:
        if any(s_implies(h1, 0, n1, h2, 0, n2) for h2, n2 in _candidates(index, h1 | n1)):
            out.extend(by_form[h1, n1])
    return frozenset(out)


def superseded(facts: Iterable[Rule], assumed_false=frozenset()) -> frozenset:
    """The facts that a strictly stronger one s-implies, once negative
    literals on assumed-false atoms are discounted (_superseded_masks)."""
    facts = frozenset(facts)
    gone = _superseded_masks(_pairs(facts), atom_mask(assumed_false))
    return frozenset(r for r in facts if (r.head_mask, r.neg_mask) in gone)


def live_in(q: Program, false: int = 0) -> frozenset:
    """q's fact pairs (fact_masks) that no strictly stronger one s-implies
    once the atoms of the mask false are discounted, the only ones a route
    reads. Computed once per program and mask and kept on q: on
    saturated_program(p), wfds sweeps it in every admissibility round, uwfs
    reads it in every W step and dwfs_star in its first reduction pass."""
    table = q._live
    got = table.get(false)
    if got is None:
        facts = fact_masks(q)
        got = table[false] = facts - _superseded_masks(facts, false)
    return got


def _strong_reduce(facts: frozenset, live: frozenset | None = None) -> frozenset:
    """strong_reduction over fact pairs, given the ones it keeps if known."""
    if live is None:
        live = facts - _superseded_masks(facts)
    heads = heads_mask(h for h, _ in facts)
    return frozenset((h, n & heads) for h, n in live)


def strong_reduction(n: Iterable[Rule]) -> frozenset:
    """Drop facts that are s-implications of other facts, then delete every
    negative literal whose atom heads no fact of the input."""
    return decode_facts(_strong_reduce(_pairs(_check_facts(n))))


def _strong_fixpoint(p: Program, cap: int | None) -> frozenset:
    """The strong residual program of p as fact pairs. The first pass keeps
    the saturation's live facts (live_in)."""
    q = saturated_program(p, cap)
    n = fact_masks(q)
    nxt = _strong_reduce(n, live_in(q))
    while nxt != n:
        n, nxt = nxt, _strong_reduce(nxt)
    return n


def strong_residual(p: Program, cap: int | None = None) -> frozenset:
    """Fixpoint of the strong reduction over the saturation of p."""
    return decode_facts(_strong_fixpoint(p, cap))


def _classic_reduce(facts: frozenset) -> frozenset:
    """classic_reduction over fact pairs."""
    heads = heads_mask(h for h, _ in facts)
    index = _by_lowest_head_atom(facts)

    def removable(h1: int, n1: int) -> bool:
        # A plain implication's head lies within h1, a blocking fact's head
        # within n1.
        return any(
            not (h2 & ~h1 or n2 & ~n1) and (h2, n2) != (h1, n1)
            for h2, n2 in _candidates(index, h1)
        ) or any(not n2 and not h2 & ~n1 for h2, n2 in _candidates(index, n1))

    return frozenset((h, n & heads) for h, n in facts if not removable(h, n))


def classic_reduction(n: Iterable[Rule]) -> frozenset:
    """Baseline reduction: drop plain implications of other facts and facts
    negatively blocked by an unconditional fact, then delete dead negative
    literals. Strictly weaker than strong_reduction."""
    return decode_facts(_classic_reduce(_pairs(_check_facts(n))))


def _classic_fixpoint(p: Program, cap: int | None) -> frozenset:
    """The classic residual program of p as fact pairs."""
    n = fact_masks(saturated_program(p, cap))
    while (nxt := _classic_reduce(n)) != n:
        n = nxt
    return n


def classic_residual(p: Program, cap: int | None = None) -> frozenset:
    """Fixpoint of the classic reduction over the saturation of p."""
    return decode_facts(_classic_fixpoint(p, cap))


def _read_off(p: Program, facts: frozenset) -> ModelState:
    """State read directly from a residual program of fact pairs: heads of
    unconditional facts are true, atoms outside every head are false."""
    unheaded = ((1 << len(p.atom_names)) - 1) & ~heads_mask(h for h, _ in facts)
    return ModelState._of_masks([h for h, n in facts if not n], unheaded)


def dwfs_star(p: Program) -> ModelState:
    """Transformation-based semantics via the strong residual program."""
    return _read_off(p, _strong_fixpoint(p, None))


def dwfs_classic(p: Program) -> ModelState:
    """Baseline semantics via the classic reduction fixpoint."""
    return _read_off(p, _classic_fixpoint(p, None))


def reduction_pass(n: Iterable[Rule]) -> tuple[list[TransformStep], frozenset]:
    """One strong-reduction pass, decomposed into elementary transformation
    steps (one elimination per dropped fact, then one positive reduction per
    deleted body literal), with the program it yields: strong_reduction(n)."""
    n = _check_facts(n)
    facts = _pairs(n)
    heads = heads_mask(h for h, _ in facts)
    dropped = _superseded_masks(facts)
    steps: list[TransformStep] = []
    kept = []
    for r in sorted(n, key=lambda r: (sorted(r.head), sorted(r.neg_body))):
        if (r.head_mask, r.neg_mask) in dropped:
            steps.append(TransformStep(TransformKind.ELIM_S_IMPLICATION, frozenset((r,))))
        else:
            kept.append(r)
    for r in kept:
        cur = r
        for c in sorted(mask_atoms(r.neg_mask & ~heads)):
            reduced = Rule(cur.head, frozenset(), cur.neg_body - {c})
            removed, added = frozenset((cur,)), frozenset((reduced,))
            steps.append(TransformStep(TransformKind.POSITIVE_REDUCTION, removed, added))
            cur = reduced
    return steps, decode_facts(_strong_reduce(facts, facts - dropped))


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
