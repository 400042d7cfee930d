"""Bottom-up computation of the transformation-based semantics: saturation
of a program into conditional facts on fixpoint's semi-naive
hyperresolution rounds (lft unpruned, saturated_program pruned by
subsumption, route_program pruned and reduced by unit facts while
saturating), strong reduction, the strong residual program, its read-off
state, and the classic reduction baseline. Both residual programs come
from one loop (_residual): a reduction pass (_reduce) drops the facts
_weaker_forms finds and deletes dead negative literals, until nothing
changes; the classic pass differs only in the blocking flag.

A saturation is one record, a Saturation, which is not a Program: the
program's atom table, its conditional facts held once, as (head mask,
negative body mask) pairs, the peak number of rules held while saturating,
the mask of its unit atoms and its live table. A Program keeps one of them
as a memo: route_program, the one every route reads, which drops on the way
each fact whose negative body holds a unit atom a (one with the fact
"a."), which that fact s-implies under any false atoms that leave a out:
Brass, Dix, Freitag and Zukowski's reduction while unfolding.
saturated_program builds a saturation on demand and keeps it nowhere:
unreduced by default (the subset-minimal facts of lft, the specification
the tests check, which saturation decodes), or dropping only the facts on
unit atoms outside a given mask (keep), which one-shot argumentation calls
about a unit atom read. Every saturation reads the program's mask triples
(Program.masks), never its Rules; fact_masks reads the facts of a
Saturation or of a Program of conditional facts alike.

A negative program is a frozenset of Rule values with empty positive bodies
(conditional facts). The saturation, its live tables and the reduction loops
keep such facts as (head mask, negative body mask) pairs and decode them to
Rules only at the API edge; the Rule-level entry points encode their input
through one checked encoder (_encode). Only the route memo's Saturation
keeps a live table (live_in), one per set of false atoms within its
negative bodies.

On such facts a different fact (h2, n2) s-implies (h1, n1) exactly when h2
and n2 lie within h1 and n1, or n2 is empty and h2 lies within h1 | n1
(transforms.s_implies); supersession and the classic reduction test both
cases in one kernel, _weaker_forms.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable

from .core import (
    CapacityError,
    ModelState,
    Program,
    Rule,
    atom_mask,
    decode_facts,
    heads_mask,
    mask_atoms,
    minimal_masks,
    _covers,
)
from .fixpoint import _lfp_masks, _Rounds
from .transforms import TransformKind, TransformStep

DEFAULT_LFT_CAP = 1_000_000


_NOT_FACTS = "negative program may contain only conditional facts"


def _encode(n: Iterable[Rule]) -> tuple[frozenset, frozenset]:
    """The conditional facts n as a frozenset, with their (head mask,
    negative body mask) pairs: the encoder of every Rule-level entry point.
    ValueError on a rule with a positive body."""
    facts = frozenset(n)
    if any(r.pos_mask for r in facts):
        raise ValueError(_NOT_FACTS)
    return facts, frozenset((r.head_mask, r.neg_mask) for r in facts)


def _encoded(p: Program) -> list:
    """p's rules (its mask triples) as (clause mask, body mask) pairs for
    fixpoint's kernel: a clause carries its head, and its negative body in
    the bits above the atom table."""
    n = len(p.atom_names)
    return [(h | neg << n, pos) for h, pos, neg in p.masks]


def _split(p: Program, clauses: Iterable[int]) -> frozenset:
    """The (head mask, negative body mask) pairs of clauses as in _encoded."""
    n = len(p.atom_names)
    low = ~(-1 << n)
    return frozenset((d & low, d >> n) for d in clauses)


def _saturate(rules: list, width: int, limit: int, keep: int) -> tuple[list, int, int]:
    """The subset-minimal clauses of the limit of the hyperresolution
    operator, for rules encoded as in _encoded over an atom table of width
    atoms, on fixpoint's semi-naive rounds pruned by subsumption.
    Tautologies are left out: a resolvent of one contains the premise it
    resolved on the shared atom. The input facts open the first round, and
    each round admits only its minimal clauses that no held clause
    subsumes; a clause derived from a subsumed premise is subsumed by the
    subsumer or by what the subsumer derives in its place. Held clauses are
    never evicted.

    Negative reduction by the unit atoms outside the atom mask keep runs
    while saturating: the unit atoms (a with the fact "a." admitted) are
    collected as clauses are admitted, a derived clause whose negative body
    meets those outside keep is dropped before admission, and the held
    clauses are filtered once at the end. A resolvent's negative body holds
    its premises' ones, so no clause that is kept is derived from, or
    subsumed by, a dropped one; the result is the unreduced one (keep -1)
    less the clauses whose negative body meets the unit atoms outside keep.

    Returns the kept clauses, the peak number of rules held at once (the
    input rules with a positive body, the admitted clauses and the current
    round's resolvents before any is dropped, fixed by the program alone),
    and the mask of unit atoms; CapacityError once that peak exceeds limit.
    """
    base = sum(1 for _, body in rules if body)
    derived = {head for head, body in rules if not body}
    rounds = _Rounds()
    rounds.add([(h, body) for h, body in rules if body and not h & body], ())
    held: list[int] = []
    index: dict[int, list[int]] = {}  # held clauses by lowest atom
    units = 0
    drop = 0  # the unit atoms outside keep, shifted to the negative-body bits
    peak = 0
    while True:
        peak = max(peak, base + len(held) + len(derived))
        if peak > limit:
            raise CapacityError(f"saturation exceeded {limit} stored rules")
        if drop:
            derived = [d for d in derived if not d & drop]
        fresh = minimal_masks(derived, index)
        if not fresh:
            if drop:
                held = [d for d in held if not d & drop]
            return minimal_masks(held), peak, units
        held += fresh
        for d in fresh:
            if not d & (d - 1):  # one atom, a head atom: a unit fact
                units |= d
                drop |= (d & ~keep) << width
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


class Saturation:
    """A saturation of a program, as one record, not a Program:

    - atom_names, the program's atom table;
    - facts, its conditional facts as (head mask, negative body mask) pairs,
      which the routes read (fact_masks);
    - peak, the most rules held at once while saturating (_saturate), which
      a later cap is checked against;
    - units, the mask of its unit atoms (a with the fact "a.");
    - negs, the union of its facts' negative bodies, the only atoms whose
      falsity changes its live facts (live_in);
    - live, its table of live facts per false-atom mask within negs
      (live_in): a dict on the route memo (route_program), None on every
      other saturation.
    """

    __slots__ = ("atom_names", "facts", "peak", "units", "negs", "live")

    def __init__(self, atom_names: tuple, facts: frozenset, peak: int, units: int):
        self.atom_names = atom_names
        self.facts = facts
        self.peak = peak
        self.units = units
        self.negs = heads_mask(n for _, n in facts)
        self.live: dict | None = None


def saturated_program(p: Program, cap: int | None = None, keep: int = -1) -> Saturation:
    """The saturation of p, as a program over p's atom table, built on
    demand and kept nowhere: the subsumption-minimal facts of lft(p), those
    no other fact of lft(p) subsumes with a head and a negative body that
    are both subsets, less those whose negative body meets a unit atom
    outside the atom mask keep: with keep -1 none is dropped, with keep 0
    every fact on a unit atom.

    Computed by _saturate, on the kernel's rounds pruned by subsumption
    (Brass and Dix's residual-program computation), with negative reduction
    by the unit atoms outside keep while saturating. CapacityError once
    more than cap (else DEFAULT_LFT_CAP) rules are held at once. The
    unreduced saturation (keep -1) is the specification that saturation
    and the tests read; no route builds it. Under false atoms L whose unit
    atoms lie within keep, the result has the unreduced saturation's live
    table (live_in), by route_program's argument restricted to the atoms
    outside keep: the one-shot cons, derives, attacks and admissible read it
    for a hypothesis that assumes a unit atom false.
    """
    limit = DEFAULT_LFT_CAP if cap is None else cap
    facts, peak, units = _saturate(_encoded(p), len(p.atom_names), limit, keep)
    return Saturation(p.atom_names, _split(p, facts), peak, units)


def route_program(p: Program, cap: int | None = None) -> Saturation:
    """The saturation every route reads, the one memo on p:
    saturated_program(p, keep=0), the unreduced saturation's facts less
    those whose negative body meets the unit atoms (units, the atoms a with
    the fact "a." in it), so that the dropped facts never join. Computed
    once per Program instance and kept with its peak, so a later call whose
    cap lies below that peak still raises CapacityError; the one saturation
    given a live table (live_in). A saturation that raises CapacityError is
    remembered too, by the cap it exceeded: a later call with a cap at or
    below it raises at once, and one with a larger cap saturates again.

    Under false atoms L that miss the unit atoms, it has the unreduced
    saturation's live table (live_in): a dropped fact keeps a unit atom a
    in its discounted negative body, so the fact "a." s-implies it, and it
    can s-imply only facts whose negative body also holds a, which are
    dropped too. No route's false atoms meet the unit atoms, which are true.
    """
    limit = DEFAULT_LFT_CAP if cap is None else cap
    q = p._reduced
    if q is None:
        if limit <= p._exceeded:
            raise CapacityError(f"saturation exceeded {limit} stored rules")
        try:
            q = saturated_program(p, limit, 0)
        except CapacityError:
            p._exceeded = limit
            raise
        p._reduced = q
        q.live = {}
    elif q.peak > limit:
        raise CapacityError(f"saturation exceeded {limit} stored rules")
    return q


def saturation(p: Program, cap: int | None = None) -> frozenset:
    """The facts of the unreduced saturation (saturated_program(p, cap)),
    built and decoded afresh on each call."""
    return decode_facts(saturated_program(p, cap).facts)


def fact_masks(q: Saturation | Program) -> frozenset:
    """q's facts as (head mask, negative body mask) pairs: a Saturation's
    facts, else the conditional facts of the Program q (ValueError on a rule
    with a positive body), derived from its mask triples on each call and
    kept nowhere. The one reader that accepts either kind."""
    if isinstance(q, Saturation):
        return q.facts
    if any(pos for _, pos, _ in q.masks):
        raise ValueError(_NOT_FACTS)
    return frozenset((h, n) for h, _, n in q.masks)


def _weaker_forms(forms: Collection[tuple[int, int]], blocking: bool) -> set:
    """The distinct (head mask, negative body mask) forms made redundant by
    another: one whose head and negative body lie within theirs (their
    combined mask h | n << width is then not minimal), or an unconditional
    one whose head lies within their head and negative body, or, when
    blocking, their negative body (a probe of the minimal unconditional
    heads, the minimal combined masks below bit width, in the one
    minimal_masks pass's index by lowest atom, by the _covers test that
    pass runs on each mask).
    """
    width = heads_mask(h for h, _ in forms).bit_length()
    below = (1 << width) - 1
    combined = {h | n << width: (h, n) for h, n in forms}
    index: dict[int, list] = {}
    minimal = minimal_masks(combined, index)
    out = {combined[c] for c in combined.keys() - minimal}
    get = index.get
    for c in minimal:
        n = c >> width
        # An indexed mask within scope is an unconditional head, not c.
        if n and _covers((n if blocking else c | n) & below, get):
            out.add(combined[c])
    return out


def _superseded_masks(facts: Collection[tuple[int, int]], false: int = 0) -> frozenset:
    """The (head mask, negative body mask) fact pairs that a strictly
    stronger one s-implies once the atoms of the mask false are discounted:
    _weaker_forms over the distinct discounted forms, which with no false
    atom are the facts themselves."""
    if not false:
        return frozenset(_weaker_forms(facts, False))
    off = ~false
    gone = _weaker_forms({(h, n & off) for h, n in facts}, False)
    return frozenset((h, n) for h, n in facts if (h, n & off) in gone)


def superseded(facts: Iterable[Rule], assumed_false=frozenset()) -> frozenset:
    """The facts that a strictly stronger one s-implies, once negative
    literals on assumed-false atoms are discounted (_superseded_masks)."""
    facts, pairs = _encode(facts)
    gone = _superseded_masks(pairs, atom_mask(assumed_false))
    return frozenset(r for r in facts if (r.head_mask, r.neg_mask) in gone)


def live_in(q: Saturation | Program, false: int = 0) -> frozenset:
    """q's fact pairs (fact_masks) that no strictly stronger one s-implies
    once the atoms of the mask false are discounted, the only ones a route
    reads. Kept in q's table when q is a Saturation that has one, and only
    the route memo has (route_program): there wfds sweeps it in every
    admissibility round, uwfs reads it in every W step and dwfs_star in its
    first reduction pass. On any other program it is built afresh.

    The table is keyed by false & q.negs, the false atoms that lie in some
    fact's negative body: discounting reads only n & ~false, which is
    n & ~(false & negs) for each negative body n within negs, so both masks
    give the same live facts. A false set that meets no negative body reads
    the table of no false atom."""
    table = q.live if isinstance(q, Saturation) else None
    if table is None:
        return _live_facts(q, false)
    false &= q.negs
    got = table.get(false)
    if got is None:
        got = table[false] = _live_facts(q, false)
    return got


def _live_facts(q: Saturation | Program, false: int) -> frozenset:
    """live_in(q, false) built afresh and not kept on q."""
    facts = fact_masks(q)
    return facts - _superseded_masks(facts, false)


def _reduce(facts: frozenset, blocking: bool, live: frozenset | None = None) -> frozenset:
    """One reduction pass over fact pairs: drop the facts _weaker_forms
    finds (s-implications of another fact; with blocking, the classic
    plain implications and facts blocked by an unconditional one), then
    delete every negative literal whose atom heads no fact of the input.
    live, when given, is the facts the pass keeps."""
    if live is None:
        live = facts.difference(_weaker_forms(facts, blocking))
    heads = heads_mask(h for h, _ in facts)
    return frozenset((h, n & heads) for h, n in live)


def _residual(p: Program, cap: int | None, blocking: bool) -> frozenset:
    """The fixpoint of _reduce over the route memo (route_program) as fact
    pairs: the strong residual program of p, or with blocking the classic
    one. The strong first pass keeps the memo's live facts (live_in)."""
    q = route_program(p, cap)
    n = q.facts
    nxt = _reduce(n, blocking, None if blocking else live_in(q))
    while nxt != n:
        n, nxt = nxt, _reduce(nxt, blocking)
    return n


def strong_reduction(n: Iterable[Rule]) -> frozenset:
    """Drop facts that are s-implications of other facts, then delete every
    negative literal whose atom heads no fact of the input."""
    return decode_facts(_reduce(_encode(n)[1], False))


def classic_reduction(n: Iterable[Rule]) -> frozenset:
    """Baseline reduction: drop plain implications of other facts and facts
    negatively blocked by an unconditional fact, then delete dead negative
    literals. Strictly weaker than strong_reduction."""
    return decode_facts(_reduce(_encode(n)[1], True))


def strong_residual(p: Program, cap: int | None = None) -> frozenset:
    """Fixpoint of the strong reduction over the saturation of p."""
    return decode_facts(_residual(p, cap, False))


def classic_residual(p: Program, cap: int | None = None) -> frozenset:
    """Fixpoint of the classic reduction over the saturation of p."""
    return decode_facts(_residual(p, cap, True))


def _read_off(p: Program, facts: frozenset) -> ModelState:
    """State read directly from a residual program of fact pairs: heads of
    unconditional facts are true, atoms outside every head are false."""
    unheaded = ((1 << len(p.atom_names)) - 1) & ~heads_mask(h for h, _ in facts)
    return ModelState._of_masks([h for h, n in facts if not n], unheaded)


def dwfs_star(p: Program) -> ModelState:
    """Transformation-based semantics via the strong residual program."""
    return _read_off(p, _residual(p, None, False))


def dwfs_classic(p: Program) -> ModelState:
    """Baseline semantics via the classic reduction fixpoint."""
    return _read_off(p, _residual(p, None, True))


def reduction_pass(n: Iterable[Rule]) -> tuple[list[TransformStep], frozenset]:
    """One strong-reduction pass, decomposed into elementary transformation
    steps (one elimination per dropped fact, then one positive reduction per
    deleted body literal), with the program it yields: strong_reduction(n)."""
    n, facts = _encode(n)
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
    return steps, decode_facts(_reduce(facts, False, facts - dropped))


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
