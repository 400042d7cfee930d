"""Spans around calls into the library's layers, taken from outside.

A hook replaces a module attribute with a wrapper, so it sees exactly the
calls that look the function up in that module. Each call becomes a span
(program, name, parent, start, end) kept in memory. Self time is a span's
duration minus the durations of its children, which nest because the
benchmark is single-threaded. Hooks in `COUNT_ONLY` only count calls: they
are cheap and very frequent, and their time stays in the caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict

# (span name, [(module, attribute), ...]): every binding a caller looks up.
SPANNED = [
    ("parser.parse_program", [("dwfs.parser", "parse_program")]),
    ("harness.check_equivalence", [("dwfs.harness", "check_equivalence")]),
    ("harness.compute_semantics", [("dwfs.harness", "compute_semantics")]),
    ("argumentation.wfds", [("dwfs.argumentation", "wfds"), ("dwfs.harness", "wfds")]),
    ("fixpoint.tps_lfp", [("dwfs.argumentation", "tps_lfp")]),
    ("fixpoint.tps_step", [("dwfs.fixpoint", "tps_step")]),
    ("residual.dwfs_star", [("dwfs.residual", "dwfs_star"), ("dwfs.harness", "dwfs_star")]),
    ("residual.dwfs_classic", [("dwfs.residual", "dwfs_classic")]),
    ("residual.lft", [("dwfs.residual", "lft")]),
    ("residual.strong_reduction", [("dwfs.residual", "strong_reduction")]),
    ("residual.classic_reduction", [("dwfs.residual", "classic_reduction")]),
    ("residual.superseded", [("dwfs.residual", "superseded")]),
    ("unfounded.uwfs", [("dwfs.unfounded", "uwfs"), ("dwfs.harness", "uwfs")]),
    ("unfounded.w_operator", [("dwfs.unfounded", "w_operator")]),
    ("unfounded.greatest_unfounded", [("dwfs.unfounded", "greatest_unfounded")]),
]
COUNT_ONLY = [
    ("transforms.is_s_implication", [("dwfs.residual", "is_s_implication")]),
    ("unfounded.is_unfounded", [("dwfs.unfounded", "is_unfounded")]),
]
MAX_KEPT_SPANS = 1_000_000  # about 28 MB; later spans are only aggregated


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Kept spans, column-wise to keep memory small.
        self.span_program = array("I")
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)  # children included
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._program = 0

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _spanned(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "harness.compute_semantics":
                span_name = f"{name}.{args[1]}"
            parent = stack[-1][0] if stack else -1
            if len(self.span_start) < MAX_KEPT_SPANS:
                idx = len(self.span_start)
                self.span_program.append(self._program)
                self.span_name.append(self._name_id(span_name))
                self.span_parent.append(parent)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if idx >= 0:
                    self.span_start[idx] = frame[1]
                    self.span_end[idx] = end
                if stack:
                    stack[-1][2] += dur
                self.calls[span_name] += 1
                self.self_s[span_name] += dur - frame[2]
                self.total_s[span_name] += dur
                self._count_result(name, args, result)

        return wrapper

    def _count_result(self, name, args, result):
        if name == "parser.parse_program" and result is not None:
            self.counts["parser.rules"] += len(result.rules)
        elif name == "residual.lft":
            self.counts["residual.lft.facts_out"] += _size(result)
        elif name == "residual.strong_reduction":
            self.counts["residual.strong_reduction.facts_in"] += _size(args[0])
        elif name == "residual.superseded" and result:
            self.counts["residual.superseded.true"] += 1

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, program: int):
        """Hook every layer; spans recorded until uninstall() belong to the
        given program."""
        self._program = program
        for hooks, make in ((SPANNED, self._spanned), (COUNT_ONLY, self._counted)):
            for name, targets in hooks:
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, make(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, directory, stem: str):
        """Write <stem>.counts.json (calls, self and total seconds, counts)
        and <stem>.spans.tsv.gz, one span a line: index, program, parent,
        name, start, end (perf_counter seconds). Returns the spans path."""
        directory.mkdir(parents=True, exist_ok=True)
        totals = {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": self.counts,
        }
        (directory / f"{stem}.counts.json").write_text(json.dumps(totals, indent=1))
        path = directory / f"{stem}.spans.tsv.gz"
        with gzip.open(path, "wt") as out:
            out.write(f"# dropped {self.dropped}; missing hooks {self.missing}\n")
            out.write("index\tprogram\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_program[i]}\t{self.span_parent[i]}"
                    f"\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
        return path
