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
    heads_mask,
    mask_atoms,
    mask_bits,
)
from .transforms import TransformKind, TransformStep, s_implies

DEFAULT_LFT_CAP = 1_000_000


def _check_facts(n: Iterable[Rule]) -> frozenset:
    facts = frozenset(n)
    for r in facts:
        if r.pos_body:
            raise ValueError("negative program may contain only conditional facts")
    return facts


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
    positive body atom at a time, lowest atom first, against stored
    conditional facts. With prune, a new fact that a stored fact subsumes
    (head and negative body both subsets) is not stored, and storing a fact
    evicts the stored facts it subsumes. Also with prune, a partial rule
    that is a tautology (its head meets its remaining positive body) is
    stored but never resolved: resolving the shared atom against a fact
    gives a superset of that fact in head and negative body, and every
    later resolvent stays one, so it adds no subsumption-minimal fact. This
    covers input tautologies and partials that become tautologies after a
    resolution. Returns the stored facts and the peak number of stored
    rules; CapacityError once that number exceeds limit.

    Works on atom masks: a fact is its (head, negative body) pair, a partial
    rule its (head, positive body, negative body) triple, and the indexes
    are keyed by one-atom masks. Rule values are built only for the result.
    """
    facts: set[tuple[int, int]] = set()
    facts_by_head: dict[int, set] = defaultdict(set)  # head atom -> facts
    partials: set[tuple[int, int, int]] = set()
    partials_by_slot: dict[int, set] = defaultdict(set)  # lowest body atom
    work: deque[tuple] = deque()
    peak = 0

    def subsumed(h: int, n: int) -> bool:
        """True if a stored fact subsumes (h, n); else evict those it subsumes."""
        for a in mask_bits(h):
            for hf, nf in facts_by_head.get(a, ()):
                if not (hf & ~h or nf & ~n):
                    return True
        bucket = min((facts_by_head.get(a, ()) for a in mask_bits(h)), key=len)
        for f in [f for f in bucket if not (h & ~f[0] or n & ~f[1])]:
            facts.discard(f)
            for a in mask_bits(f[0]):
                facts_by_head[a].discard(f)
        return False

    def push(h: int, pm: int, n: int):
        nonlocal peak
        if pm:
            r = (h, pm, n)
            if r not in partials:
                partials.add(r)
                if not (prune and h & pm):  # h & pm is Rule.is_tautology on masks
                    partials_by_slot[pm & -pm].add(r)
                    work.append(r)
        elif (h, n) not in facts and not (prune and subsumed(h, n)):
            f = (h, n)
            facts.add(f)
            for a in mask_bits(h):
                facts_by_head[a].add(f)
            work.append(f)
        stored = len(facts) + len(partials)
        if stored > limit:
            raise CapacityError(f"saturation exceeded {limit} stored rules")
        peak = max(peak, stored)

    for r in p.rules:
        push(r.head_mask, r.pos_mask, r.neg_mask)
    while work:
        item = work.popleft()
        if len(item) == 2:
            if item not in facts:  # evicted while waiting
                continue
            hf, nf = item
            for a in mask_bits(hf):
                for h, pm, n in list(partials_by_slot.get(a, ())):
                    push(h | (hf & ~a), pm & ~a, n | nf)
        else:
            h, pm, n = item
            b = pm & -pm
            for hf, nf in list(facts_by_head.get(b, ())):
                push(h | (hf & ~b), pm & ~b, n | nf)
    out = frozenset(Rule(mask_atoms(h), frozenset(), mask_atoms(n)) for h, n in facts)
    return out, peak


def lft(p: Program, cap: int | None = None) -> frozenset:
    """Least fixpoint transformation: all conditional facts derivable by
    resolving away positive body atoms.

    Computed by a binary-resolution worklist (one body atom at a time, in id
    order); this reaches exactly the saturation of tpg_step, which the tests
    cross-check, without materializing whole premise tuples. Nothing is
    pruned, so this is the specification that `saturation` is checked
    against and what `dwfs lft` and `dwfs trace` print; the routes read
    `saturation` instead. CapacityError once more than `cap` rules (else
    DEFAULT_LFT_CAP) are stored.
    """
    return _saturate(p, DEFAULT_LFT_CAP if cap is None else cap, prune=False)[0]


def saturated_program(p: Program, cap: int | None = None) -> Program:
    """The saturation of p, as a program over p's atom table: the
    subsumption-minimal facts of lft(p), those no other fact of lft(p)
    subsumes with a head and a negative body that are both subsets.

    The same worklist as lft, pruned forward and backward by subsumption as
    facts are stored (Brass and Dix's residual-program computation), and
    never resolving a tautology, which yields only subsumed facts. This is
    the one saturation memo: it is computed once per Program instance and
    kept on it, with the peak number of rules stored on the way, so a later
    call whose cap lies below that peak still raises CapacityError. Every
    route reads it, and its live facts per false-atom set (live_in).
    """
    limit = DEFAULT_LFT_CAP if cap is None else cap
    if p._saturated is None:
        facts, peak = _saturate(p, limit, prune=True)
        p._saturated = p.with_rules(facts), peak
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
    """q's conditional facts minus those superseded finds with the atoms of
    the mask false assumed false: the facts that no strictly stronger one
    s-implies once those atoms are discounted, the only ones a route reads.
    Computed once per program and mask and kept on q, in a table keyed by
    the mask: on saturated_program(p), wfds sweeps it in every admissibility
    round, uwfs reads it in every W step and dwfs_star in its first
    reduction pass."""
    table = q._live
    got = table.get(false)
    if got is None:
        facts = frozenset(r for r in q.rules if r.is_conditional_fact)
        got = table[false] = facts - superseded(facts, mask_atoms(false))
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
    pos = canonicalize(r.head for r in n if not r.neg_body)
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
