"""End-to-end benchmark of the risolve command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload damage2d --seed 1 --seconds 10 --trace 0

One client in one process runs the workload's operations one after another
(a closed loop) through ``risolve.cli.main``, with one BLAS/OpenMP thread.
A round is the workload's full list of operations; rounds repeat until
``--seconds`` have passed, and every run finishes the round it is in.  Each
output is checked against closed forms (checks.py) outside the timed
region.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced rounds and reports the per-layer metrics of layertrace.py, including
the tracing overhead.  See README.md for the metrics and the closed forms.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import layertrace
import speed
import workloads

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
KINDS = ("solve", "verify", "jumpcost", "sweep")
SETUP_RUNS = 5
# what every CLI call pays: a fresh interpreter imports risolve.cli and loads
# the config.  Wall time, not rescaled: the speed samples of a fresh
# interpreter are slow while it warms up, and rescaling made the spread of
# twelve set-ups worse (9% against 4%).  The child ends itself after 120 s;
# the parent waits without a timeout, which would poll in steps of up to
# 50 ms and round the time to them.
SETUP_CODE = (
    "import signal; signal.alarm(120); "
    "import sys; sys.path.insert(0, 'src'); "
    "from risolve.cli import load_config; load_config(sys.argv[1])"
)


def measure_setup(config: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_round(workload, cli_main, tracer=None) -> tuple[dict, dict, list]:
    """One pass over the workload's operations: per-kind seconds at the
    reference speed, per-kind wall seconds and, per operation, the problems
    its check found."""
    seconds, wall = defaultdict(float), defaultdict(float)
    outputs: dict[str, str] = {}
    results = []
    for op in workload.ops:
        if tracer is not None:
            tracer.begin_op(op.kind)
        out, err = io.StringIO(), io.StringIO()
        sampler = speed.SpeedSampler()
        start = time.perf_counter()
        try:
            with sampler, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(op.argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc, problems = -1, [("exception", repr(exc))]
        else:
            problems = None
        elapsed = time.perf_counter() - start
        seconds[op.kind] += sampler.reference(elapsed)
        wall[op.kind] += elapsed
        stdout = out.getvalue()
        outputs.setdefault(op.kind, stdout)
        if problems is None:
            try:
                problems = op.check(stdout, rc, outputs)
            except (OSError, ValueError, KeyError) as exc:
                problems = [("unreadable", repr(exc))]
        results.append((op, problems))
        if problems:
            print(f"{op.kind} failed: {problems} {err.getvalue().strip()}", file=sys.stderr)
    return seconds, wall, results


def tally(results) -> tuple[int, int, bool]:
    """attempted, failed, and whether every failure is the known fault."""
    failed = [p for _, p in results if p]
    known = all(code == checks.KNOWN_SPURIOUS_JUMP for p in failed for code, _ in p)
    return len(results), len(failed), known


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "risolve" / "cli.py").is_file():
        print(f"error: no risolve sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from risolve.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out)

    results = []
    start = time.perf_counter()
    if args.trace == 0:
        setup = [measure_setup(wl.config) for _ in range(SETUP_RUNS)]
        rounds, walls = [], []
        while True:
            seconds, wall, res = run_round(wl, cli_main)
            rounds.append(seconds)
            walls.append(wall)
            results += res
            if time.perf_counter() - start >= args.seconds:
                break
        metrics = {f"{k}_s": (statistics.median(r[k] for r in rounds), "s") for k in KINDS}
        metrics["setup_s"] = (statistics.median(setup), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        print("wall seconds: " + json.dumps({"setup": setup, "rounds": [dict(w) for w in walls]}),
              file=sys.stderr)
    else:
        tracer = layertrace.Tracer()
        layers, overhead = [], []
        while True:
            plain, _, res = run_round(wl, cli_main)
            results += res
            tracer.reset()
            tracer.install()
            try:
                traced, traced_wall, res = run_round(wl, cli_main, tracer)
            finally:
                tracer.uninstall()
            results += res
            # layer times in seconds at the reference speed, like the round's
            scale = sum(traced.values()) / sum(traced_wall.values())
            layers.append({k: v * scale if k.endswith("_s") else v
                           for k, v in tracer.metrics().items()})
            overhead.append(100.0 * (sum(traced.values()) / sum(plain.values()) - 1.0))
            if time.perf_counter() - start >= args.seconds:
                break
        metrics = {name: (statistics.median(m[name] for m in layers),
                          "s" if name.endswith("_s") else "count") for name in layers[0]}
        metrics["trace.overhead_pct"] = (statistics.median(overhead), "%")
        with open(out / "trace.json", "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "absent": tracer.absent,
                       "columns": ["id", "parent", "op", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
        if tracer.absent:
            print(f"absent from the program, reported as 0: {tracer.absent}", file=sys.stderr)

    attempted, failed, known = tally(results)
    print(json.dumps({
        "correct": known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
