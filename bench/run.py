"""glab benchmark: one workload per run, or all four with --all.

    python3 bench/run.py --workload fuzz-equiv --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

A run is a closed loop: one process, one operation at a time.  It repeats
the seeded corpus in whole passes until --seconds have passed and at least
MIN_OPS operations were attempted, checks every answer, and prints one JSON
object as its last line.  Full results, with the machine and the git
revision, go to .bench_out/ in the repository root.

With --trace 0 the metrics are the end-to-end ones:
  wall_s         median over passes of the summed time of the calls
  op_p50_ms      median of all call times; op_p90_ms their 90th percentile
  ok_frac        1 - fail_frac: operations that neither raised nor answered
                 wrongly, over operations attempted
  complete_frac  1 - exhausted_frac: operations whose result was not cut
                 short by a budget cap, over operations attempted
  peak_rss_mb    peak RSS of this process (of the glab children for
                 cli-fixtures)
  setup_s        median over fresh interpreters of import, fixture parsing
                 and corpus generation
The answer checks run after each call's clock stops.

With --trace 1 every call into glab is a span, and the metrics are the
per-layer ones: self time per pass and calls in the first pass of each
layer, and counters of the first pass.

The program under test is the glab package in src/ of the same checkout.
The benchmark uses only names in glab.__all__, glab.cli.main and
`python -m glab`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import CAPS, LAYERS, OWN_LAYERS, Api, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = ROOT / ".bench_out"
CLI_SCRATCH = OUT / f"cli-{os.getpid()}"  # working directories of CLI commands

WORKLOADS = ("fuzz-equiv", "deep-stack", "reference-sweep", "cli-fixtures")
MIN_OPS = 100
SETUP_REPEATS = 7
IMPORT_REPEATS = 5

# per-layer metrics: self seconds per pass and calls per pass of every
# layer, and counters of the first pass
TIMED_LAYERS = tuple(dict.fromkeys(LAYERS.values())) + OWN_LAYERS
COUNTS = (
    "indexed.words_found", "unification.words_found", "indexed.witness_nodes",
    "unification.witness_nodes", "transform.rules_out", "unification.cstructures",
    "unification.cstructures_solved", "unification.cstructures_consistent",
) + tuple(f"{module}.exhausted.{cap}" for module, caps in CAPS.items() for cap in caps + ("other",))


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import glab from this checkout's src/, never from anywhere else."""
    if not (SRC / "glab" / "__init__.py").is_file() or not FIXTURES.is_dir():
        fail(f"no glab sources under {SRC} or no fixtures under {FIXTURES}")
    sys.path.insert(0, str(SRC))
    import glab

    if Path(glab.__file__).resolve().parent != (SRC / "glab").resolve():
        fail(f"imported glab from {glab.__file__}, not from {SRC}")


def build(workload: str, seed: int):
    import workloads

    if workload == "cli-fixtures":
        return workloads.cli_fixtures(seed, FIXTURES, CLI_SCRATCH, SRC)
    return {
        "fuzz-equiv": workloads.fuzz_equiv,
        "deep-stack": workloads.deep_stack,
        "reference-sweep": workloads.reference_sweep,
    }[workload](seed, FIXTURES)


def setup(workload: str, seed: int):
    """Import, fixture parsing and corpus generation; (workload, seconds)."""
    t0 = time.perf_counter()
    load_program()
    w = build(workload, seed)
    return w, time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of SETUP_REPEATS fresh interpreters."""
    walls = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, check=True,
        ).stdout
        walls.append(float(out.split()[-1]))
    return statistics.median(walls)


def machine() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def quantile(values: list[float], q: float) -> float:
    """The q-quantile, by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100, method="exclusive")[round(q * 100) - 1]


def measure(w, seconds: float, tracer) -> dict:
    """Whole passes over the corpus until the time is used up."""
    from workloads import Outcome

    api = Api(tracer)
    latencies: list[float] = []
    pass_walls: list[float] = []
    attempted = failed = exhausted = 0
    notes: dict[str, int] = {}
    first_failures: list[str] = []
    children_rss_kb = 0
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds or attempted < MIN_OPS:
        api.counting = tracer is not None and passes == 0
        wall = 0.0
        for i, op in enumerate(w.ops):
            if tracer is not None:
                tracer.op, tracer.pass_no = passes * len(w.ops) + i, passes
            t0 = time.perf_counter()
            try:
                result, error = op.call(api), None
            except Exception as e:  # an operation that raises is a failed one
                result, error = None, e
            t1 = time.perf_counter()
            try:
                if error is not None:
                    raise error
                outcome = op.check(api, result)
            except Exception as e:
                outcome = Outcome(False, False, f"{type(e).__name__}: {e}")
            latencies.append(t1 - t0)
            wall += t1 - t0
            attempted += 1
            if w.children_rss and result is not None:
                children_rss_kb = max(children_rss_kb, result.maxrss_kb)
            if not outcome.ok:
                failed += 1
                if len(first_failures) < 5:
                    first_failures.append(f"{op.label}: {outcome.note}")
            elif outcome.note:
                notes[outcome.note] = notes.get(outcome.note, 0) + 1
            exhausted += outcome.exhausted
        pass_walls.append(wall)
        passes += 1
    rss_kb = children_rss_kb if w.children_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "passes": passes,
        "ops_per_pass": len(w.ops),
        "attempted": attempted,
        "failed": failed,
        "exhausted": exhausted,
        "notes": notes,
        "first_failures": first_failures,
        "pass_walls": pass_walls,
        "wall_s": statistics.median(pass_walls),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * quantile(latencies, 0.90),
        "peak_rss_mb": rss_kb / 1024,
    }


def end_to_end(m: dict, setup_s: float) -> dict:
    return {
        "wall_s": {"value": m["wall_s"], "unit": "s"},
        "op_p50_ms": {"value": m["op_p50_ms"], "unit": "ms"},
        "op_p90_ms": {"value": m["op_p90_ms"], "unit": "ms"},
        "ok_frac": {"value": 1 - m["failed"] / m["attempted"], "unit": "1"},
        "complete_frac": {"value": 1 - m["exhausted"] / m["attempted"], "unit": "1"},
        "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(m: dict, tracer, workload: str) -> dict:
    from workloads import cli_import_seconds

    seconds, calls = tracer.self_times(passes=m["passes"])
    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = {"value": seconds.get(layer, 0.0), "unit": "s"}
        out[f"{layer}_calls"] = {"value": calls.get(layer, 0), "unit": "count"}
    for key in COUNTS:
        out[key] = {"value": tracer.counts.get(key, 0), "unit": "count"}
    solved = tracer.counts.get("unification.cstructures_solved", 0)
    consistent = tracer.counts.get("unification.cstructures_consistent", 0)
    out["unification.cstructures_consistent_frac"] = {
        "value": consistent / solved if solved else 0.0, "unit": "1"}
    bare, with_cli = cli_import_seconds(SRC, IMPORT_REPEATS) if workload == "cli-fixtures" else (0.0, 0.0)
    out["cli.import_s"] = {"value": with_cli - bare, "unit": "s"}
    out["trace.wall_s"] = {"value": m["wall_s"], "unit": "s"}
    return out


def run_one(args) -> int:
    w, _ = setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        m = measure(w, args.seconds, tracer)
    finally:
        shutil.rmtree(CLI_SCRATCH, ignore_errors=True)
    if tracer:
        metrics = per_layer(m, tracer, args.workload)
    else:
        metrics = end_to_end(m, setup_seconds(args.workload, args.seed))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "git_revision": git_revision(), **m, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.first_pass()) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  revision {record['git_revision']}  "
          f"machine {record['machine']}")
    print(f"operations {m['attempted']} ({m['passes']} passes of {m['ops_per_pass']})  "
          f"fail_frac {m['failed'] / m['attempted']:.4f}  exhausted_frac {m['exhausted'] / m['attempted']:.4f}  "
          f"notes {m['notes']}")
    for f in m["first_failures"]:
        print(f"FAILED {f}")
    for name, v in metrics.items():
        print(f"  {name:48} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, each in its own process."""
    rows = {}
    for wl in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            rows[wl, trace] = json.loads(proc.stdout.splitlines()[-1])
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:2]))
    for wl in WORKLOADS:
        e2e, layers = rows[wl, 0]["metrics"], rows[wl, 1]["metrics"]
        print(f"== {wl}: attempted {rows[wl, 0]['attempted']}, failed {rows[wl, 0]['failed']}")
        for name, v in e2e.items():
            print(f"  {name:48} {v['value']:.6g} {v['unit']}")
        overhead = layers["trace.wall_s"]["value"] - e2e["wall_s"]["value"]
        print(f"  {'tracing overhead (traced - untraced wall_s)':48} {overhead:.6g} s")
        for name, v in layers.items():
            if v["value"]:
                print(f"  {name:48} {v['value']:.6g} {v['unit']}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed)
        print(f"{seconds!r}")
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
