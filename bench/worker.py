"""One benchmark workload, run in a fresh single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --setup-probe

The process is a closed loop: it generates the next program's text, hands
it to the library, waits for the answer, checks it, and only then moves on.
The timed region of a program is parsing plus the workload's operation;
generation and the correctness gate run outside it. The last line of stdout
is a JSON object with the run's metrics (see run.py, which prints the
benchmark's result).

Times are reported at reference speed (see `Speed`): the machine is shared,
and its speed drifts by a factor of up to two over tens of seconds, so each
wall time is rescaled by how fast a fixed reference task ran around it.

A route that runs past its budget is stopped by an interval timer that
raises `BudgetExceeded`, a BaseException the library does not catch; the
program then counts as undecided and its time so far, at most the budget,
counts towards every timing.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

SETUP_START = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import programs  # noqa: E402  (the benchmark's own generator, beside this file)

ROUTES = ("wfds", "wfds-raw", "dwfs-star", "dwfs-classic", "uwfs")

# Budgets at reference speed, in seconds; NOTES.md says how they were chosen.
# On fuzz-small and dense-tail the budget covers parsing plus
# check_equivalence, and then dwfs_classic on its own; on sparse-ladder it
# covers each route call on its own.
FUZZ_BUDGET_S = 0.1
DENSE_BUDGET_S = 0.02
SPARSE_BUDGET_S = 0.02
# Every size keeps more than 14 atoms once parsed, so greatest_unfounded
# takes its elimination path.
SPARSE_SIZES = (18, 21, 24)

# Program i of a run with seed s uses generator seed s * SEED_STRIDE + i, so
# seed 0 starts with generator seed 0 (on dense-tail, the blow-up program).
SEED_STRIDE = 100_000

# The reference task's typical time on the machine NOTES.md describes. It
# sets the scale of every reported time; changing it changes every figure.
REFERENCE_S = 0.005
PROBE_EVERY_S = 0.25
PROBE_WINDOW = 9

WARMUP_TEXT = """\
a | b :- not c.
c :- d, not a.
d | e.
b :- e, not d.
f :- a, b.
"""


def reference_task() -> int:
    """Fixed pure-Python work of the kind the library does: frozenset
    algebra, subset tests and dict churn. It does not use dwfs, so no change
    to the library changes its time."""
    rnd = random.Random(7)
    sets = [frozenset(rnd.sample(range(24), rnd.randint(1, 6))) for _ in range(300)]
    seen = {}
    acc = 0
    for i, a in enumerate(sets):
        for b in sets[i % 37 :: 41]:
            u = a | b
            if u not in seen:
                seen[u] = (a, b)
            acc += len(a & b) + (a <= u)
    return acc


class Speed:
    """How fast the machine runs now, against the reference machine.

    Between programs, at most every PROBE_EVERY_S, the reference task is
    timed; `factor` is REFERENCE_S over the median of the last PROBE_WINDOW
    timings. A wall time times the factor is the time at reference speed,
    and a budget at reference speed over the factor is the wall budget."""

    def __init__(self):
        self.samples: deque[float] = deque(maxlen=PROBE_WINDOW)
        self.last = float("-inf")
        for _ in range(3):
            self.probe()

    def probe(self):
        start = time.perf_counter()
        reference_task()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def factor(self) -> float:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()
        return REFERENCE_S / statistics.median(self.samples)


class BudgetExceeded(BaseException):
    """Raised by the interval timer when a call runs past its budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@contextmanager
def budget(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Outcome:
    family: str
    latency_s: float = 0.0
    route_s: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)
    timed_out: bool = False
    errors: list = field(default_factory=list)  # exception type names
    wrong: list = field(default_factory=list)  # correctness-gate failures
    program: object = None  # the parsed Program, for the oracles

    @property
    def decided(self) -> bool:
        return not self.timed_out and not self.errors

    def rescale(self, factor: float):
        self.latency_s *= factor
        self.route_s = {k: v * factor for k, v in self.route_s.items()}


class Library:
    """The library's modules, with every call looked up at call time so that
    the tracer's hooks see it."""

    def __init__(self):
        import dwfs.argumentation
        import dwfs.harness
        import dwfs.parser
        import dwfs.residual
        import dwfs.unfounded

        self.argumentation = dwfs.argumentation
        self.harness = dwfs.harness
        self.parser = dwfs.parser
        self.residual = dwfs.residual
        self.unfounded = dwfs.unfounded
        self._current = None
        self._time_routes_in_check_equivalence()

    def _time_routes_in_check_equivalence(self):
        """check_equivalence calls each route through compute_semantics; a
        thin wrapper records each route's time and state for the program in
        hand. It costs two clock reads per route call."""
        inner = self.harness.compute_semantics
        clock = time.perf_counter

        def compute_semantics(p, name):
            out = self._current
            start = clock()
            try:
                state = inner(p, name)
                out.states[name] = state
                return state
            finally:
                out.route_s[name] = out.route_s.get(name, 0.0) + clock() - start

        self.harness.compute_semantics = compute_semantics

    def route(self, name: str, p):
        a, r = self.argumentation, self.residual
        if name == "wfds":
            return a.wfds(p, a.Engine.CANONICAL)
        if name == "wfds-raw":
            return a.wfds(p, a.Engine.RAW)
        if name == "dwfs-star":
            return r.dwfs_star(p)
        if name == "dwfs-classic":
            return r.dwfs_classic(p)
        if name == "uwfs":
            return self.unfounded.uwfs(p)
        raise ValueError(name)

    def _check_text(self, text: str):
        p = self.parser.parse_program(text)
        return p, self.harness.check_equivalence(p)

    def equivalence(self, family: str, text: str, limit: float) -> Outcome:
        """Parse plus check_equivalence under one budget; then dwfs_classic,
        timed on its own under the same budget, for the inclusion check."""
        out = self._current = Outcome(family)
        clock = time.perf_counter
        start = clock()
        done = attempt(out, limit, self._check_text, text)
        out.latency_s = clock() - start
        if done is None:
            return out
        out.program, report = done
        out.errors.extend("CapacityError" for _ in report.errors)
        if not report.equal:
            out.wrong.append(f"check_equivalence reports divergence {report.first_divergence}")
        if out.errors:
            return out
        start = clock()
        state = attempt(out, limit, self.residual.dwfs_classic, out.program)
        out.route_s["dwfs-classic"] = clock() - start
        if state is not None:
            out.states["dwfs-classic"] = state
        return out

    def each_route(self, family: str, text: str, limit: float) -> Outcome:
        """Parse, then call each public route singly, each under the budget."""
        out = Outcome(family)
        clock = time.perf_counter
        start = clock()
        p = out.program = self.parser.parse_program(text)
        for name in ROUTES:
            route_start = clock()
            state = attempt(out, limit, self.route, name, p)
            out.route_s[name] = clock() - route_start
            if state is not None:
                out.states[name] = state
        out.latency_s = clock() - start
        return out


def attempt(out: Outcome, limit: float, fn, *args):
    """fn(*args) under the budget. A timeout or a raised error is recorded
    on the outcome, and the result is then None."""
    try:
        with budget(limit):
            return fn(*args)
    except BudgetExceeded:
        out.timed_out = True
    except Exception as exc:  # a typed failure of the library
        out.errors.append(type(exc).__name__)
    return None


def _includes(strong, weak) -> bool:
    """Everything the weak state makes true or false, the strong one does."""
    return all(any(a <= d for a in strong.pos) for d in weak.pos) and (
        weak.false_atoms <= strong.false_atoms
    )


def gate(lib: Library, out: Outcome):
    """Check every answer the routes gave; record each wrong one."""
    states = out.states
    names = [n for n in ROUTES if n in states and n != "dwfs-classic"]
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            s1, s2 = states[n1], states[n2]
            if s1.pos != s2.pos or s1.false_atoms != s2.false_atoms:
                out.wrong.append(f"{n1} and {n2} disagree")
    if "dwfs-classic" in states and "dwfs-star" in states:
        if not _includes(states["dwfs-star"], states["dwfs-classic"]):
            out.wrong.append("dwfs-classic is not included in dwfs-star")
    p = out.program
    if out.family == programs.CRITERION_3_NORMAL.name and p is not None:
        want = lib.harness.normal_wfs(p)
        for n in names:
            if states[n].pos != want.pos or states[n].false_atoms != want.false_atoms:
                out.wrong.append(f"{n} differs from normal_wfs")
    if out.family == programs.CRITERION_3_POSITIVE.name and p is not None:
        want = lib.harness.gcwa_negatives(p)
        for n in names:
            if states[n].false_atoms != want:
                out.wrong.append(f"{n} false atoms differ from gcwa_negatives")


class Workload:
    """A named program mix, the budget at reference speed, and the
    operation: parse plus check_equivalence unless a workload says else."""

    name = ""
    budget_s = 0.0
    families: tuple = ()

    def __init__(self, lib: Library):
        self.lib = lib

    def family(self, i: int) -> programs.Family:
        return self.families[i % len(self.families)]

    def program(self, seed: int, i: int) -> tuple[str, str]:
        fam = self.family(i)
        return fam.name, programs.program_text(fam, seed * SEED_STRIDE + i)

    def run_one(self, family: str, text: str, limit: float) -> Outcome:
        return self.lib.equivalence(family, text, limit)


class FuzzSmall(Workload):
    """The acceptance-suite fuzz families in turn, through check_equivalence.

    One program in ten is of the criterion-2 family, whose times spread
    over three orders of magnitude; the budget cuts off its slowest eighth.
    With more of them, or no budget, the run's figures rest on a few dozen
    slow programs and move by up to a quarter from seed to seed (NOTES.md)."""

    name = "fuzz-small"
    budget_s = FUZZ_BUDGET_S
    families = (programs.CRITERION_2,) + (
        programs.CRITERION_3_NORMAL,
        programs.CRITERION_3_POSITIVE,
    ) * 4 + (programs.CRITERION_3_NORMAL,)


class DenseTail(Workload):
    """The blow-up family through check_equivalence under a budget."""

    name = "dense-tail"
    budget_s = DENSE_BUDGET_S
    families = (programs.DENSE,)


class SparseLadder(Workload):
    """The sparse family, sizes in turn, each public route called singly."""

    name = "sparse-ladder"
    budget_s = SPARSE_BUDGET_S
    families = tuple(programs.sparse(n) for n in SPARSE_SIZES)

    def run_one(self, family, text, limit):
        return self.lib.each_route(family, text, limit)


WORKLOADS = {w.name: w for w in (FuzzSmall, SparseLadder, DenseTail)}


@dataclass
class Tally:
    """What a run keeps of its programs: their figures, not their answers,
    so that memory does not grow with the number of programs."""

    latency_s: array = field(default_factory=lambda: array("d"))
    route_s: Counter = field(default_factory=Counter)
    decided: int = 0
    failed: int = 0  # programs on which the library raised
    errors_by_type: Counter = field(default_factory=Counter)
    families: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)  # (program, family, why)

    def add(self, i: int, out: Outcome):
        self.latency_s.append(out.latency_s)
        self.route_s.update(out.route_s)
        self.decided += out.decided
        self.failed += bool(out.errors)
        self.errors_by_type.update(out.errors)
        self.families[out.family] += 1
        self.wrong.extend((i, out.family, why) for why in out.wrong)


def checked(workload: Workload, speed: Speed, family: str, text: str) -> Outcome:
    """One program under the workload's budget, its times at reference
    speed, its answers checked."""
    factor = speed.factor()
    out = workload.run_one(family, text, workload.budget_s / factor)
    out.rescale(factor)
    gate(workload.lib, out)
    return out


def run_loop(workload: Workload, speed: Speed, seed: int, seconds: float, tracer=None):
    """Programs in order until the run has lasted `seconds`, and at least
    one. With a tracer, each program runs untraced and then traced, so that
    the two passes see the same programs under the same conditions."""
    untraced, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while not untraced.latency_s or time.perf_counter() < deadline:
        family, text = workload.program(seed, i)
        untraced.add(i, checked(workload, speed, family, text))
        if tracer is not None:
            tracer.install(i)
            try:
                traced.add(i, checked(workload, speed, family, text))
            finally:
                tracer.uninstall()
        i += 1
    return untraced, traced


def end_to_end(t: Tally) -> dict:
    lat = t.latency_s
    n = len(lat)
    return {
        "programs_per_s": (n / sum(lat), "1/s"),
        "latency_ms.p50": (1e3 * statistics.median(lat), "ms"),
        "latency_ms.p90": (1e3 * (statistics.quantiles(lat, n=10)[8] if n > 1 else lat[0]), "ms"),
        "decided_share": (t.decided / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def route_ms(t: Tally) -> dict:
    """Mean time per attempted program spent in each route; a route a
    program did not reach, after a timeout, adds nothing."""
    n = len(t.latency_s)
    return {f"route_ms.{r}": (1e3 * t.route_s[r] / n, "ms") for r in ROUTES}


def per_layer(tracer, traced: Tally, overhead: float) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    n = len(traced.latency_s)
    sup_calls = calls["residual.superseded"]
    metrics = {
        "parser.parse_program.self_s": (self_s["parser.parse_program"], "s"),
        "parser.rules": (counts["parser.rules"], "count"),
        "residual.lft.calls": (calls["residual.lft"], "count"),
        "residual.lft.self_s": (self_s["residual.lft"], "s"),
        "residual.lft.facts_out": (counts["residual.lft.facts_out"], "count"),
        "residual.lft.calls_per_program": (calls["residual.lft"] / n, "calls/program"),
        "residual.superseded.calls": (sup_calls, "count"),
        "residual.superseded.self_s": (self_s["residual.superseded"], "s"),
        "residual.superseded.true_share": (
            counts["residual.superseded.true"] / sup_calls if sup_calls else 0.0,
            "ratio",
        ),
        "residual.strong_reduction.calls": (calls["residual.strong_reduction"], "count"),
        "residual.strong_reduction.self_s": (self_s["residual.strong_reduction"], "s"),
        "residual.strong_reduction.facts_in": (
            counts["residual.strong_reduction.facts_in"],
            "count",
        ),
        "residual.classic_reduction.calls": (calls["residual.classic_reduction"], "count"),
        "residual.classic_reduction.self_s": (self_s["residual.classic_reduction"], "s"),
        "transforms.is_s_implication.calls": (calls["transforms.is_s_implication"], "count"),
        "unfounded.greatest_unfounded.calls": (calls["unfounded.greatest_unfounded"], "count"),
        "unfounded.greatest_unfounded.self_s": (self_s["unfounded.greatest_unfounded"], "s"),
        "unfounded.greatest_unfounded.total_s": (
            tracer.total_s["unfounded.greatest_unfounded"],
            "s",
        ),
        "unfounded.is_unfounded.calls": (calls["unfounded.is_unfounded"], "count"),
        "unfounded.w_operator.calls": (calls["unfounded.w_operator"], "count"),
        "unfounded.uwfs.self_s": (self_s["unfounded.uwfs"], "s"),
        "fixpoint.tps_lfp.calls": (calls["fixpoint.tps_lfp"], "count"),
        "fixpoint.tps_lfp.self_s": (self_s["fixpoint.tps_lfp"], "s"),
        "fixpoint.tps_step.calls": (calls["fixpoint.tps_step"], "count"),
        "argumentation.wfds.calls": (calls["argumentation.wfds"], "count"),
        "argumentation.wfds.self_s": (self_s["argumentation.wfds"], "s"),
        "trace.overhead": (overhead, "ratio"),
        "trace.programs": (n, "count"),
    }
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    lib = Library()
    workload = WORKLOADS[args.workload](lib)
    warm = workload.run_one(workload.family(0).name, WARMUP_TEXT, 10.0)
    gate(lib, warm)
    setup_wall_s = time.perf_counter() - SETUP_START
    if warm.wrong or not warm.decided:
        print(f"warm-up program failed: {warm.wrong or warm.errors}", file=sys.stderr)
        return 1
    speed = Speed()
    setup_s = setup_wall_s * speed.factor()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    untraced, traced = run_loop(workload, speed, args.seed, args.seconds, tracer)
    notes = {}
    if tracer is not None:
        overhead = sum(traced.latency_s) / sum(untraced.latency_s) - 1
        metrics = per_layer(tracer, traced, overhead)
        metrics.update(route_ms(untraced))
        spans = tracer.write(ROOT / ".bench_out", f"{args.workload}-seed{args.seed}")
        notes = {"spans_file": str(spans), "missing_hooks": tracer.missing}
    else:
        metrics = end_to_end(untraced)

    wrong = untraced.wrong + traced.wrong
    n = len(untraced.latency_s)
    result = {
        "setup_s": setup_s,
        "attempted": n,
        "failed": untraced.failed,
        "undecided": n - untraced.decided,
        "errors_by_type": untraced.errors_by_type + traced.errors_by_type,
        "families": untraced.families,
        "speed_factor": statistics.median(REFERENCE_S / s for s in speed.samples),
        "correct": not wrong,
        "wrong": wrong[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **notes,
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
