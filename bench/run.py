"""The dwfs benchmark: one workload per call, from the root of a checkout.

    python3 bench/run.py --workload fuzz-small --seed 0 --seconds 40 --trace 0

Workloads (BENCHMARK.json says why each was chosen):
  fuzz-small     the acceptance-suite fuzz families through check_equivalence
  sparse-ladder  sparse programs of 18-24 atoms, each public route called singly
  dense-tail     the blow-up family through check_equivalence under a budget

The workload runs in a fresh single-threaded process (worker.py) that feeds
generated program text to the library for `--seconds` seconds and checks
every answer. With `--trace 0` it reports the end-to-end metrics, plus
`setup_s`: the median, over several fresh processes, of the time to import
dwfs and run one warm-up program. With `--trace 1` it runs each program
twice, untraced and then with a span on every call into a layer, and
reports the per-layer metrics; the spans are written to .bench_out/.
Times are at reference speed: wall times rescaled by how fast a fixed task
runs on the shared machine at the moment (worker.Speed, NOTES.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every answer
passed the correctness gate.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("fuzz-small", "sparse-ladder", "dense-tail")
SETUP_PROBES = 8
# Every run ends within this many seconds, whatever the library does.
WALL_LIMIT_S = 170


def _worker(args: list[str], timeout: float) -> tuple[int, dict | None, str]:
    """Run worker.py; return its exit code, its JSON last line and stderr."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else None
    return proc.returncode, doc, proc.stderr


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")

    if not (ROOT / "src" / "dwfs" / "__init__.py").is_file():
        print(f"no dwfs sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # Byte-compile once, so that no timed import pays for compilation.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 2

    def left() -> float:
        return WALL_LIMIT_S - (time.monotonic() - started)

    def probe() -> float:
        code, doc, err = _worker(["--setup-probe", "--workload", args.workload], timeout=left())
        if code != 0 or doc is None:
            raise RuntimeError(f"set-up probe failed:\n{err}")
        return doc["setup_s"]

    run_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Half the set-up probes run before the workload and half after it, so
    # that a slow spell of the machine does not meet all of them.
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [probe() for _ in range(probes)]
        code, doc, err = _worker(run_args, timeout=left())
        setups += [probe() for _ in range(probes)]
    except subprocess.TimeoutExpired:
        print(f"the run did not end within {WALL_LIMIT_S} s", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    sys.stderr.write(err)
    if doc is None:
        print(f"the workload process printed no result (exit {code})", file=sys.stderr)
        return 1

    metrics = doc["metrics"]
    if not args.trace:
        setups.append(doc["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(
        f"# {args.workload} seed {args.seed}: {doc['attempted']} programs "
        f"({doc['families']}), {doc['undecided']} undecided, "
        f"typed failures {doc['errors_by_type']}"
    )
    if not args.trace:
        print(
            f"# latency samples: {doc['attempted']}; set-up samples: {len(setups)}; "
            f"speed factor at the end: {doc['speed_factor']:.3f}"
        )
    else:
        print(f"# spans: {doc['spans_file']}; hooks not found: {doc['missing_hooks']}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for i, family, why in doc["wrong"]:
        print(f"# WRONG program {i} ({family}): {why}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": doc["correct"],
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if doc["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
