"""Self-test of the benchmark's output checks.

Runs every operation of each workload once on seed 0, requires its check to
pass (the sliding1d sweep to fail only with the known spurious jump), then
perturbs each output and requires the check to reject it.  Run from the root
of a source checkout; damage2d takes about a minute:

    python3 perfbench/selftest.py [workload ...]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import math
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks as ck  # noqa: E402
import workloads  # noqa: E402
from risolve.cli import main as cli_main  # noqa: E402


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def edit_csv(text: str, row: int, col: str, fn) -> str:
    """Apply ``fn`` to one cell of a risolve CSV; row counts data rows, and a
    negative row counts from the end."""
    lines = text.splitlines()
    header = lines[1].split(",")
    data = lines[2:]
    cells = data[row].split(",")
    j = header.index(col)
    cells[j] = _fmt(fn(float(cells[j])))
    data[row] = ",".join(cells)
    return "\n".join(lines[:2] + data) + "\n"


def edit_kv(text: str, key: str, value: str) -> str:
    return "\n".join(f"{key} = {value}" if ln.split("=")[0].strip() == key else ln
                     for ln in text.splitlines()) + "\n"


def jump_row(text: str) -> int:
    header, rows = ck.parse_csv(text)
    flags = [r[header.index("jump_flag")] for r in rows]
    return flags.index(1) if 1 in flags else len(rows) // 2


def mutations(wl, op):
    """(name, mutate) pairs; mutate maps (stdout, file text) to new ones."""
    tau = wl.params["tau"]
    if op.kind == "solve":
        z_col = "z_1"
        if wl.name == "sliding1d":
            # 0.1 tau is twice the play-operator tolerance at tau = 1e-3
            shift = lambda out, f: (out, edit_csv(f, len(f.splitlines()) // 2, z_col,
                                                  lambda z: z + 0.1 * tau))
        else:
            # the state at the jump node reverts to the pre-jump state
            shift = lambda out, f: (out, edit_csv(f, jump_row(f), z_col, lambda z: 1.0))
        return [
            ("state off the closed form", shift),
            ("energy off the closed form", lambda out, f: (out, edit_csv(
                f, -1, "energy", lambda e: e + 1e-6))),
            ("certificate not passed", lambda out, f: (edit_kv(out, "passed", "false"), f)),
            ("jump count", lambda out, f: (edit_kv(
                out, "jump_count", str(int(ck.parse_kv(out)["jump_count"]) + 1)), f)),
            ("one node fewer", lambda out, f: (out, "\n".join(f.splitlines()[:-1]) + "\n")),
        ]
    if op.kind == "verify":
        return [
            ("certificate differs from solve", lambda out, f: (edit_kv(
                out, "balance_residual", "0.5"), f)),
        ]
    if op.kind == "jumpcost":
        d, direct = op.expect["d"], op.expect["direct"]
        upper_plus = lambda out: _fmt(float(ck.parse_kv(out)["upper"]) + 1e-6)
        return [
            ("lower above upper", lambda out, f: (edit_kv(out, "lower", upper_plus(out)), f)),
            ("upper above the direct chain", lambda out, f: (edit_kv(
                out, "upper", _fmt(direct + 1e-6)), f)),
            ("lower below d", lambda out, f: (edit_kv(out, "lower", _fmt(d - 1e-6)), f)),
            ("infeasible", lambda out, f: (edit_kv(out, "feasible", "false"), f)),
        ]
    if op.kind == "sweep":
        col = lambda name, fn: (lambda out, f: (out, edit_csv(f, -1, name, fn)))
        return [
            ("jump time", col("jump_time", lambda t: (t if not math.isnan(t) else 1.0) + tau)),
            ("final state", col("final_z_norm", lambda z: z + 1e-4)),
            ("balance residual", col("balance_residual", lambda b: 1.0)),
            ("distance to the previous run", col("sup_dist_prev", lambda d: d + 0.5)),
        ]
    return []


def run_op(op) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(op.argv)
    return out.getvalue(), rc


def selftest(name: str, out: Path) -> list[str]:
    wl = workloads.WORKLOADS[name](0, out)
    failures = []
    seen: dict[str, str] = {}
    for op in wl.ops:
        stdout, rc = run_op(op)
        seen.setdefault(op.kind, stdout)
        problems = op.check(stdout, rc, seen)
        known = [p for p in problems if p[0] == ck.KNOWN_SPURIOUS_JUMP]
        expect_known = name == "sliding1d" and op.kind == "sweep"
        if problems != known or bool(known) != expect_known:
            failures.append(f"{name} {op.kind}: unexpected check result {problems}")
            continue
        original = text = op.output.read_text() if op.output else ""
        if expect_known:
            # the same output without the spurious jumps passes, and is the
            # base the perturbations below start from
            for i in range(len(text.splitlines()) - 2):
                text = edit_csv(text, i, "jump_time", lambda t: math.nan)
            op.output.write_text(text)
            if op.check(stdout, rc, seen):
                failures.append(f"{name} sweep: output without the spurious jump rejected")
        for label, mutate in mutations(wl, op):
            new_out, new_text = mutate(stdout, text)
            if op.output:
                op.output.write_text(new_text)
            local = dict(seen)
            if op.kind == "solve":
                local["solve"] = new_out
            try:
                problems = op.check(new_out, rc, local)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [("unreadable", repr(exc))]
            if not problems:
                failures.append(f"{name} {op.kind}: perturbation '{label}' not rejected")
            else:
                print(f"ok   {name:9s} {op.kind:8s} rejects: {label}")
        if op.output:
            op.output.write_text(original)
    return failures


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    root = ROOT / ".perfbench-out" / "selftest"
    failures = []
    for name in names:
        out = root / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        failures += selftest(name, out)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
