"""Random program generation, independent oracles (classical entailment and
minimal models by truth table, the normal well-founded model, lft's round
tpg_step, the body status the unfounded rows are checked against), and
cross-semantics equivalence checking."""

from __future__ import annotations

import enum
import random
from collections.abc import Callable, Iterable, Iterator

from .argumentation import Engine, wfds
from .core import (
    CapacityError,
    ModelState,
    Program,
    RouteError,
    Rule,
    _Record,
    atom_mask,
    mask_atoms,
    satisfies_positive,
)
from .fixpoint import _require_positive
from .parser import render_program, state_json
from .residual import _encode, dwfs_classic, dwfs_star
from .unfounded import uwfs

DEFAULT_ORACLE_BOUND = 20


class GeneratorConfig(_Record):
    _fields = ("seed", "num_atoms", "num_rules", "max_head", "max_pos_body", "max_neg_body",
               "neg_probability")

    def __init__(
        self,
        seed: int = 0,
        num_atoms: int = 6,
        num_rules: int = 8,
        max_head: int = 3,
        max_pos_body: int = 3,
        max_neg_body: int = 3,
        neg_probability: float = 0.5,
    ):
        if num_atoms < 1:
            raise ValueError("num_atoms must be positive")
        if num_rules < 0:
            raise ValueError("num_rules cannot be negative")
        if max_head < 1:
            raise ValueError("max_head must be at least 1")
        if min(max_pos_body, max_neg_body) < 0:
            raise ValueError("body bounds cannot be negative")
        for bound in (max_head, max_pos_body, max_neg_body):
            if bound > num_atoms:
                raise ValueError("size bounds cannot exceed the atom count")
        # Written so that NaN fails too.
        if not 0 <= neg_probability <= 1:
            raise ValueError("neg_probability must lie in [0, 1]")
        self._set(seed, num_atoms, num_rules, max_head, max_pos_body, max_neg_body,
                  neg_probability)


def atom_names(n: int) -> list[str]:
    """a, b, ..., z, aa, ab, ... spreadsheet-style names, skipping the
    parser's reserved word not (which would be atom 9,873)."""
    names = []
    i = 0
    while len(names) < n:
        name = ""
        k = i
        while True:
            name = chr(ord("a") + k % 26) + name
            k = k // 26 - 1
            if k < 0:
                break
        if name != "not":
            names.append(name)
        i += 1
    return names


def random_program(cfg: GeneratorConfig) -> Program:
    """Deterministic function of the config: same seed, same program."""
    rnd = random.Random(cfg.seed)
    atoms = list(range(cfg.num_atoms))
    rules = set()
    for _ in range(cfg.num_rules):
        head = frozenset(rnd.sample(atoms, rnd.randint(1, cfg.max_head)))
        pos = frozenset(rnd.sample(atoms, rnd.randint(0, cfg.max_pos_body)))
        if rnd.random() < cfg.neg_probability:
            neg = frozenset(rnd.sample(atoms, rnd.randint(0, cfg.max_neg_body)))
        else:
            neg = frozenset()
        rules.add(Rule(head, pos, neg))
    return Program(rules, atom_names(cfg.num_atoms))


def degenerate_programs(num_atoms: int = 4) -> list[Program]:
    """Boundary cases injected into every fuzz run."""
    names = atom_names(num_atoms)
    empty = Program((), names)
    facts = Program((Rule(frozenset((a,))) for a in range(num_atoms)), names)
    return [empty, facts]


def _classical_models(p: Program, bound: int, oracle: str) -> Iterator[int]:
    """The atom masks of the assignments over the base of the positive
    program p that satisfy every rule as a material implication, by
    exhaustive enumeration: desk-scale only, CapacityError beyond `bound`
    atoms."""
    _require_positive(p)
    n = len(p.atom_names)
    if n > bound:
        raise CapacityError(f"{oracle} oracle limited to {bound} atoms, got {n}")
    rules = [(r.pos_mask, r.head_mask) for r in p.rules]
    return (
        bits
        for bits in range(1 << n)
        if not any(bits & pm == pm and not bits & hm for pm, hm in rules)
    )


def entails_classical(p: Program, d, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Truth-table oracle: every classical model of the positive program p
    satisfies the positive disjunction d."""
    models = _classical_models(p, bound, "entailment")
    dmask = atom_mask(d)
    return all(bits & dmask for bits in models)


def minimal_models(p: Program, bound: int = DEFAULT_ORACLE_BOUND) -> frozenset:
    """All subset-minimal classical models of a positive program, by
    exhaustive assignment enumeration."""
    models = []
    for bits in sorted(_classical_models(p, bound, "minimal-model"), key=int.bit_count):
        if not any(m & bits == m for m in models):
            models.append(bits)
    return frozenset(mask_atoms(m) for m in models)


def gcwa_negatives(p: Program, bound: int = DEFAULT_ORACLE_BOUND) -> frozenset:
    """Atoms false in every minimal model of a positive program."""
    covered = set()
    for m in minimal_models(p, bound):
        covered |= m
    return p.base - covered


def normal_wfs(p: Program) -> ModelState:
    """Well-founded model of a normal program via the alternating fixpoint
    of the negation-reduct operator; shares nothing with the argumentation
    route beyond the core types."""
    if any(len(r.head) != 1 for r in p.rules):
        raise ValueError("well-founded oracle requires a normal program")
    rules = [(next(iter(r.head)), r.pos_body, r.neg_body) for r in p.rules]

    def least_model(assumed_true: frozenset) -> frozenset:
        active = [(h, pos) for h, pos, neg in rules if not (neg & assumed_true)]
        derived: set[int] = set()
        changed = True
        while changed:
            changed = False
            for h, pos in active:
                if h not in derived and pos <= derived:
                    derived.add(h)
                    changed = True
        return frozenset(derived)

    true_set: frozenset = frozenset()
    while True:
        possible = least_model(true_set)
        nxt = least_model(possible)
        if nxt == true_set:
            break
        true_set = nxt
    return ModelState(
        frozenset(frozenset((a,)) for a in true_set),
        p.base - least_model(true_set),
    )


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"


def body_status(s: ModelState, r: Rule) -> Truth:
    """Three-valued status of a rule body against a model state."""
    if all(frozenset((b,)) in s.pos for b in r.pos_body) and r.neg_body <= s.false_atoms:
        return Truth.TRUE
    if any(b in s.false_atoms for b in r.pos_body):
        return Truth.FALSE
    if any(frozenset((c,)) in s.pos for c in r.neg_body):
        return Truth.FALSE
    if any(a <= r.neg_body for a in s.pos):
        return Truth.FALSE
    return Truth.UNDEFINED


def tpg_step(p: Program, j: Iterable[Rule]) -> frozenset:
    """One saturation round: resolve every rule's positive body atoms against
    conditional facts from j whose heads contain them, delaying negation.
    Iterated from the empty set it reaches residual.lft, one whole round at a
    time; a rule's premise tuples are joined body atom by body atom, and
    equal partial joins merge."""
    j = _encode(j)[0]
    by_head: dict[int, list[Rule]] = {}
    for f in j:
        for a in f.head:
            by_head.setdefault(a, []).append(f)
    out = set()
    for r in p.rules:
        # The (head, negative body) pairs of the premise tuples joined so far.
        joined = {(r.head, r.neg_body)}
        for b in r.pos_body:
            cands = by_head.get(b, ())
            joined = {
                (h | (f.head - {b}), n | f.neg_body) for h, n in joined for f in cands
            }
        out.update(Rule(h, frozenset(), n) for h, n in joined)
    return frozenset(out)


# Every route by name, in the order `dwfs semantics --method` lists them.
# Each entry looks its route up by this module's global name when called, so
# a wrapper installed on that name (bench/tracer.py's spans) sees the call.
ROUTES = {
    "wfds": lambda p: wfds(p, Engine.CANONICAL),
    "wfds-raw": lambda p: wfds(p, Engine.RAW),
    "dwfs-star": lambda p: dwfs_star(p),
    "dwfs-classic": lambda p: dwfs_classic(p),
    "uwfs": lambda p: uwfs(p),
}
# The routes check_equivalence compares: all but the baseline dwfs-classic.
SEMANTICS_NAMES = tuple(name for name in ROUTES if name != "dwfs-classic")


def compute_semantics(p: Program, name: str) -> ModelState:
    """The state one route computes: a name in ROUTES."""
    route = ROUTES.get(name)
    if route is None:
        raise ValueError(f"unknown semantics {name!r}")
    return route(p)


def states_agree(a: ModelState, b: ModelState) -> bool:
    """Agreement on every pure disjunction; canonical cores make this a
    structural comparison, of the states' masks."""
    return a == b


def find_divergence(a: ModelState, b: ModelState):
    """A pure disjunction satisfied by exactly one state: ('pos'|'neg', atoms)."""
    for d in sorted(a.pos | b.pos, key=sorted):
        if satisfies_positive(a, d) != satisfies_positive(b, d):
            return ("pos", d)
    # An atom false in exactly one state is a negative disjunction only that
    # state satisfies.
    negative = a.false_atoms ^ b.false_atoms
    return ("neg", frozenset((min(negative),))) if negative else None


class EquivalenceReport(_Record):
    """The states and errors of every semantics on program, and whether
    they agree. Mutable, so unhashable."""

    _fields = ("program", "states", "errors", "equal", "first_divergence")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        program: Program,
        states: dict | None = None,
        errors: dict | None = None,
        equal: bool = True,
        first_divergence: tuple | None = None,
    ):
        # errors: name -> CapacityError or RouteError
        self._set(program, {} if states is None else states, {} if errors is None else errors,
                  equal, first_divergence)

    @property
    def route_errors(self) -> dict:
        """The recorded errors that are route failures, not capacity limits."""
        return {n: e for n, e in self.errors.items() if isinstance(e, RouteError)}

    @property
    def capacity_errors(self) -> dict:
        """The recorded errors that are capacity limits."""
        return {n: e for n, e in self.errors.items() if isinstance(e, CapacityError)}


def check_equivalence(p: Program) -> EquivalenceReport:
    """Compute every semantics on p and compare them pairwise; capacity
    limits and route failures are recorded per semantics and equality
    judged on the rest."""
    report = EquivalenceReport(p)
    for name in SEMANTICS_NAMES:
        try:
            report.states[name] = compute_semantics(p, name)
        except (CapacityError, RouteError) as exc:
            report.errors[name] = exc
    names = [n for n in SEMANTICS_NAMES if n in report.states]
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            if not states_agree(report.states[n1], report.states[n2]):
                witness = find_divergence(report.states[n1], report.states[n2])
                report.equal = False
                report.first_divergence = ((n1, n2), witness)
                return report
    return report


def remove_atom(p: Program, aid: int) -> Program:
    """Drop one atom everywhere, discarding rules whose head empties."""
    names = [nm for i, nm in enumerate(p.atom_names) if i != aid]
    remap = {old: new for new, old in enumerate(i for i in range(len(p.atom_names)) if i != aid)}
    rules = []
    for r in p.rules:
        head = frozenset(remap[a] for a in r.head if a != aid)
        if not head:
            continue
        rules.append(
            Rule(
                head,
                frozenset(remap[a] for a in r.pos_body if a != aid),
                frozenset(remap[a] for a in r.neg_body if a != aid),
            )
        )
    return Program(rules, names)


def shrink_divergence(p: Program, still_divergent: Callable[[Program], bool]) -> Program:
    """Greedily remove rules, then atoms, while still_divergent holds of the
    smaller program (a divergence, or a route failure, persists)."""
    changed = True
    while changed:
        changed = False
        for r in p.rules:
            candidate = p.with_rules(p.rules - {r})
            if still_divergent(candidate):
                p = candidate
                changed = True
                break
        if changed:
            continue
        for aid in sorted(p.base):
            candidate = remove_atom(p, aid)
            if still_divergent(candidate):
                p = candidate
                changed = True
                break
    return p


def fuzz_reports(
    count: int,
    cfg: GeneratorConfig,
    shrink: bool = True,
) -> Iterator[EquivalenceReport]:
    """Degenerate programs first, then seeded random ones; divergent reports,
    and reports with a route failure, are re-run on a shrunk program when
    shrinking is enabled."""
    programs = degenerate_programs(min(cfg.num_atoms, 4))
    for i in range(count):
        programs.append(random_program(GeneratorConfig(**{**vars(cfg), "seed": cfg.seed + i})))
    for prog in programs:
        report = check_equivalence(prog)
        if not report.equal and shrink:
            small = shrink_divergence(prog, lambda q: not check_equivalence(q).equal)
            report = check_equivalence(small)
        elif report.route_errors and shrink:
            small = shrink_divergence(prog, lambda q: bool(check_equivalence(q).route_errors))
            report = check_equivalence(small)
        yield report


def report_json(report: EquivalenceReport) -> dict:
    """JSON-line form of a report: program text plus machine-form states."""
    names = report.program.atom_names
    doc = {
        "program": render_program(report.program),
        "states": {
            name: state_json(state, names) for name, state in report.states.items()
        },
        "equal": report.equal,
        "first_divergence": None,
    }
    if report.errors:
        doc["errors"] = {name: str(exc) for name, exc in sorted(report.errors.items())}
    if report.first_divergence is not None:
        (n1, n2), witness = report.first_divergence
        sign, atoms = witness
        doc["first_divergence"] = {
            "pair": [n1, n2],
            "witness": {"sign": sign, "atoms": sorted(names[a] for a in atoms)},
        }
    return doc
