"""Command-line front end: solve, sweep, jumpcost, verify.

Configs are INI documents with sections [model], [scheme], [verify] and
[output]; unknown sections or keys are rejected with a diagnostic.  The
keys of [model], [scheme] and [verify] are the fields of the model's spec
dataclass, of ``SchemeConfig`` and of ``TolConfig``, each parsed by its
declared type; a key left out takes the dataclass default.  All
floating-point output uses 17 significant digits so CSV round-trips are
lossless, and identical configs produce byte-identical files.

Exit codes: 0 verification PASS, 1 usage/parse/IO error, 2 verification FAIL.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    INF,
    CorrectionSpec,
    PowerLq,
    QuadraticMu,
    RisProblem,
    Trajectory,
    TrivialH,
    sup_distance,
)
from .jump import jump_cost
from .models import (
    Damage1dSpec,
    Delamination0dSpec,
    Plasticity0dSpec,
    Toy1dSpec,
    make_damage1d,
    make_delamination0d,
    make_plasticity0d,
    make_toy1d,
)
from .reduced import require_search
from .scheme import (
    DiscreteTrajectory,
    SchemeConfig,
    interpolate,
    jump_records,
    scheme_problem,
    solve_incremental,
    solve_lockstep,
)
from .stability import ResidualMemo, use_memo
from .verify import Certificate, TolConfig, balance_residual, verify_E, verify_VE

__all__ = ["main", "load_config", "RunConfig"]

CSV_VERSION = "# risolve-csv v1"

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


class ConfigError(ValueError):
    """Raised for malformed configs; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config parsing


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _number(text: str | float, key: str, cast=float):
    """``cast(text)``, the value of ``key``; a ConfigError naming the key
    when it is not a number."""
    try:
        return cast(text)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ConfigError(f"{key!r} must be {what}, got {text!r}") from None


def _floats(text: str, key: str) -> list[float]:
    return [_number(p, key) for p in text.replace(",", " ").split()]


def _bool(text: str, key: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r} must be boolean, got {text!r}")


def parse_correction(text: str) -> Optional[CorrectionSpec]:
    """Parse a correction descriptor.

    Grammar: ``none`` | ``quadratic:MU[:euclidean|dissipation]`` |
    ``power:Q:GAMMA`` | ``trivial:P:COEFF`` (the last meaning
    delta = COEFF * d(z, z')**P).
    """
    parts = [p.strip() for p in text.strip().split(":")]
    kind = parts[0].lower()
    try:
        if kind == "none":
            return None
        if kind == "quadratic":
            dist = parts[2] if len(parts) > 2 else "euclidean"
            return QuadraticMu(mu=float(parts[1]), dist=dist)
        if kind == "power":
            return PowerLq(q=float(parts[1]), gamma=float(parts[2]))
        if kind == "trivial":
            p, c = float(parts[1]), float(parts[2])
            if not (1 < p < INF and 0 < c < INF):
                raise ConfigError(
                    "trivial correction needs a finite exponent > 1 and "
                    "a finite coefficient > 0"
                )
            return TrivialH(h=lambda r, _p=p, _c=c: _c * r**_p)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad correction descriptor {text!r}: {exc}") from exc
    raise ConfigError(f"unknown correction kind {kind!r}")


_MODELS = {
    "toy1d": (Toy1dSpec, make_toy1d),
    "plasticity0d": (Plasticity0dSpec, make_plasticity0d),
    "damage1d": (Damage1dSpec, make_damage1d),
    "delamination0d": (Delamination0dSpec, make_delamination0d),
}
_OUTPUT_KEYS = {"out_dir", "prefix"}
# the declared types of a class's fields or a function's parameters, read
# once a process: a command that loads a config per operation pays once
_type_hints = cache(get_type_hints)


@dataclass(frozen=True)
class RunConfig:
    """Parsed config: model spec/problem factory plus scheme and tolerances."""

    model_kind: str
    model_spec: object
    problem: RisProblem
    scheme: SchemeConfig
    tol: TolConfig
    out_dir: str
    prefix: str


def _check_keys(section: str, present, allowed) -> None:
    extra = set(present) - set(allowed)
    if extra:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(extra))}"
        )


def _value(hint, text: str, key: str):
    """``text``, the value of ``key``, parsed as its declared type ``hint``:
    a str, bool, int or correction, one finite number, two (a
    ``tuple[float, float]``) or any count (one number gives a float for
    ``Union[float, tuple]``)."""
    if get_origin(hint) is Union and type(None) in get_args(hint):
        (hint,) = set(get_args(hint)) - {type(None)}  # Optional[X] parses as X
    if hint is str:
        return text
    if hint is bool:
        return _bool(text, key)
    if hint is CorrectionSpec:
        return parse_correction(text)
    scalar = hint in (int, float)
    vals = [_number(text, key, hint)] if scalar else _floats(text, key)
    if not all(-INF < v < INF for v in vals):  # also false for a nan
        raise ConfigError(f"{key!r} must be finite, got {text!r}")
    if hint == tuple[float, float] and len(vals) != 2:
        raise ConfigError(f"key {key!r} needs exactly two numbers, got {text!r}")
    if scalar or (hint == Union[float, tuple] and len(vals) == 1):
        return vals[0]
    return tuple(vals)


def _parse(section: str, sec, hints: dict) -> dict:
    """The keys of ``sec`` parsed by the types ``hints`` declares for them;
    a ConfigError names a key ``hints`` lacks or a value not of its type."""
    _check_keys(section, sec.keys(), hints)
    return {key: _value(hints[key], text, key) for key, text in sec.items()}


def _build_model(sec) -> tuple[str, object, RisProblem]:
    """The [model] keys are the fields of the kind's spec dataclass and the
    keyword options of its maker (brittle and k of the delamination)."""
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("[model] section needs a 'kind' key")
    if kind not in _MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    cls, make = _MODELS[kind]
    fields = _type_hints(cls)
    options = {k: v for k, v in _type_hints(make).items() if k not in ("spec", "return")}
    kw = _parse("model", sec, {"kind": str, **fields, **options})
    del kw["kind"]
    try:
        spec = cls(**{key: kw.pop(key) for key in fields if key in kw})
        return kind, spec, make(spec, **kw)
    except ValueError as exc:
        raise ConfigError(f"bad [model] values: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate an INI run config."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (N, E0, C, w_D, ...)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    known = {"model", "scheme", "verify", "output"}
    extra = set(cp.sections()) - known
    if extra:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(extra))}")
    if "model" not in cp:
        raise ConfigError("config needs a [model] section")

    kind, spec, problem = _build_model(cp["model"])

    kw = _parse("scheme", cp["scheme"] if "scheme" in cp else {}, _type_hints(SchemeConfig))
    kw.setdefault("initial_z", (0.0,) * problem.n_z)
    if len(kw["initial_z"]) != problem.n_z:
        raise ConfigError(f"'initial_z' needs n_z = {problem.n_z} numbers, got {kw['initial_z']}")
    try:
        scheme = SchemeConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"bad [scheme] values: {exc}") from exc

    tols = _parse("verify", cp["verify"] if "verify" in cp else {}, _type_hints(TolConfig))
    try:
        tol = TolConfig(**tols)
    except ValueError as exc:
        raise ConfigError(f"bad [verify] values: {exc}") from exc

    osec = cp["output"] if "output" in cp else {}
    _check_keys("output", osec.keys(), _OUTPUT_KEYS)
    out_dir = osec.get("out_dir", "out")
    prefix = osec.get("prefix", kind)
    return RunConfig(kind, spec, problem, scheme, tol, out_dir, prefix)


# ---------------------------------------------------------------------------
# CSV and report emission


def _csv_columns(problem: RisProblem) -> list[str]:
    cols = ["t"]
    cols += [f"z_{i + 1}" for i in range(problem.n_z)]
    cols += [f"u_{i + 1}" for i in range(problem.n_u)]
    cols += [
        "energy",
        "power",
        "step_dissipation",
        "cum_var_d",
        "residual_stability",
        "jump_flag",
    ]
    return cols


def write_trajectory_csv(
    path: Path, disc: DiscreteTrajectory, memo: Optional[ResidualMemo] = None
) -> None:
    """Write the node table; ``memo`` keeps the node residuals for reuse.

    The residuals the memo lacks are computed together, in batches, and
    the energies and powers of all nodes in one call each."""
    prob = disc.problem
    memo = use_memo(memo, prob)
    flags = disc.flags
    cum = np.concatenate([[0.0], np.cumsum(disc.step_diss)])
    times, Z, U = disc.times, disc.Z, disc.U
    resids = memo.fill(times, Z)
    energies = prob.energy(times, U, Z).tolist()
    powers = prob.power(times, U, Z).tolist()
    lines = [CSV_VERSION, ",".join(_csv_columns(prob))]
    for n, t in enumerate(times.tolist()):
        row = [t, *Z[n].tolist(), *U[n].tolist(), energies[n], powers[n],
               float(disc.step_diss[n - 1]) if n > 0 else 0.0,
               float(cum[n]), resids[n]]
        lines.append(",".join(_fmt(x) for x in row) + f",{int(flags[n])}")
    path.write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path: Path, problem: RisProblem) -> Trajectory:
    """Rebuild a trajectory (with jump records from the flag column)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ConfigError(f"trajectory file {path} is empty or truncated")
    if lines[0].strip() != CSV_VERSION:
        raise ConfigError(
            f"unknown CSV version header {lines[0]!r}; expected {CSV_VERSION!r}"
        )
    cols = [c.strip() for c in lines[1].split(",")]
    expected = _csv_columns(problem)
    if cols != expected:
        raise ConfigError(
            f"CSV schema mismatch: got {cols}, expected {expected}"
        )
    try:
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    except ValueError:  # a field that is not a number, or rows of unequal width
        data = np.empty((0, 0))
        for n, row in enumerate(ln.split(",") for ln in lines[2:]):
            for col, x in zip(cols, row):
                try:
                    float(x)
                except ValueError:
                    raise ConfigError(
                        f"trajectory file {path}: {col} is not a number, got {x!r}, "
                        f"in the row of t = {row[0].strip()} (node {n})"
                    ) from None
    if data.shape[1] != len(cols):
        raise ConfigError("CSV row width does not match the header")
    nz, nu = problem.n_z, problem.n_u
    times = data[:, 0]
    bad = np.argwhere(~np.isfinite(data[:, : 1 + nz + nu]))
    if len(bad):
        n, j = bad[0]
        raise ConfigError(
            f"trajectory file {path}: {cols[j]} is not finite in the row of "
            f"t = {float(times[n])!r} (node {n})"
        )
    Z, U = data[:, 1 : 1 + nz], data[:, 1 + nz : 1 + nz + nu]
    records = jump_records(problem, times, Z, data[:, -1].astype(int))
    return Trajectory(times=times, Z=Z, U=U, jump_records=records)


def certificate_lines(cert: Certificate) -> list[str]:
    lines = [
        f"minimality_residual = {_fmt(cert.minimality_residual)}",
        f"stability_residual = {_fmt(cert.stability_residual)}",
        f"balance_residual = {_fmt(cert.balance_residual)}",
        f"jump_count = {len(cert.jump_checks)}",
    ]
    for i, jc in enumerate(cert.jump_checks, start=1):
        lines.append(f"jump_{i}_t = {_fmt(jc.t)}")
        lines.append(f"jump_{i}_worst = {_fmt(jc.worst)}")
        lines.append(f"jump_{i}_cost_gap = {_fmt(jc.cost_gap)}")
    for key in sorted(cert.verdict):
        lines.append(f"verdict_{key} = {'true' if cert.verdict[key] else 'false'}")
    lines.append(f"passed = {'true' if cert.passed else 'false'}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _certify(
    run: RunConfig,
    problem: RisProblem,
    traj: Trajectory,
    memo: Optional[ResidualMemo] = None,
) -> Certificate:
    """Certify ``traj`` against ``problem``, the model with the scheme's
    correction installed (none for the E scheme)."""
    if run.scheme.scheme == "E":
        return verify_E(problem, traj, run.tol, memo)
    return verify_VE(problem, traj, run.tol, memo)


def cmd_solve(args) -> int:
    run = load_config(args.config)
    out = Path(args.out_dir or run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    disc = solve_incremental(run.problem, run.scheme)
    # the certificate's node probes are the CSV's residuals, and a node the
    # scheme stayed at already has its residual: the step's gain
    memo = ResidualMemo(disc.problem)
    memo.seed_from(disc)
    write_trajectory_csv(out / f"{run.prefix}_trajectory.csv", disc, memo)
    cert = _certify(run, disc.problem, interpolate(disc), memo)
    text = "\n".join(certificate_lines(cert)) + "\n"
    (out / f"{run.prefix}_certificate.txt").write_text(text)
    sys.stdout.write(text)
    return EXIT_PASS if cert.passed else EXIT_FAIL


def _sweep_run(run: RunConfig, axis: str, value: float) -> tuple[RisProblem, SchemeConfig]:
    """The problem and scheme of one sweep value."""
    scheme = run.scheme
    problem = run.problem
    if axis == "tau":
        scheme = replace(scheme, tau=value)
    elif axis == "epsilon":
        scheme = replace(scheme, scheme="BV", epsilon=value)
    elif axis == "mu":
        problem = problem.with_correction(QuadraticMu(mu=value))
        scheme = replace(scheme, scheme="VE")
    elif axis == "k":
        problem = make_delamination0d(run.model_spec, brittle=False, k=value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return problem, scheme


def cmd_sweep(args) -> int:
    run = load_config(args.config)
    values = _floats(args.values, "--values")
    if len(values) < 2:
        raise ConfigError("sweep needs at least two values")
    if args.axis == "k" and run.model_kind != "delamination0d":
        raise ConfigError("axis 'k' applies to the delamination model only")
    require_search(run.problem.n_z)  # fails as solve does, before any run
    out = Path(args.out_dir or run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs: list = []
    for v in values:
        try:
            runs.append(_sweep_run(run, args.axis, v))
        except Exception as exc:  # partial report on any failure
            runs.append(exc)
    # the runs step in lockstep; each equals its solo run to the bit
    solved = iter(solve_lockstep([r for r in runs if not isinstance(r, Exception)]))
    results: list = []
    errors: list[str] = []
    for v, r in zip(values, runs):
        try:
            disc = r if isinstance(r, Exception) else next(solved)
            if isinstance(disc, Exception):
                raise disc
            traj = interpolate(disc)
            jt = traj.jump_records[0].t if traj.jump_records else float("nan")
            results.append((disc, traj, jt, balance_residual(disc)))
        except Exception as exc:
            results.append(None)
            errors.append(f"{args.axis}={v}: {exc}")

    probe = None
    lines = [CSV_VERSION,
             f"{args.axis},jump_time,final_z_norm,balance_residual,sup_dist_prev"]
    prev_traj = None
    for v, res in zip(values, results):
        if res is None:
            continue
        disc, traj, jt, bal = res
        if probe is None:
            probe = np.linspace(float(traj.times[0]), float(traj.times[-1]), 129)
        sup = sup_distance(traj, prev_traj, probe) if prev_traj is not None else float("nan")
        zfin = float(np.linalg.norm(traj.Z[-1]))
        lines.append(",".join(_fmt(x) for x in (v, jt, zfin, bal, sup)))
        prev_traj = traj
    (out / f"{run.prefix}_sweep_{args.axis}.csv").write_text("\n".join(lines) + "\n")
    for msg in errors:
        sys.stderr.write(f"sweep run failed: {msg}\n")
    return EXIT_FAIL if errors else EXIT_PASS


def cmd_jumpcost(args) -> int:
    run = load_config(args.config)
    problem = run.problem
    # not (0 <= t <= T) is also true for a nan
    if not 0.0 <= args.t <= problem.horizon:
        raise ConfigError(f"--t must lie in [0, {problem.horizon:g}], got {args.t!r}")
    z_minus = np.asarray(_floats(args.z_minus, "--z-minus"))
    z_plus = np.asarray(_floats(args.z_plus, "--z-plus"))
    if z_minus.shape != (problem.n_z,) or z_plus.shape != (problem.n_z,):
        raise ConfigError(f"endpoints must have dimension {problem.n_z}")
    for name, z in (("--z-minus", z_minus), ("--z-plus", z_plus)):
        if not np.isfinite(z).all():
            raise ConfigError(f"{name} must have finite entries, got {z.tolist()}")
        if not problem.in_box(z):
            box = [list(b) for b in problem.z_box]
            raise ConfigError(f"{name} must lie in the box {box}, got {z.tolist()}")
    out = Path(args.out_dir or run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bound = jump_cost(problem, args.t, z_minus, z_plus)
    feasible = np.isfinite(bound.upper)
    lines = [
        f"lower = {_fmt(bound.lower)}",
        f"upper = {_fmt(bound.upper)}" if feasible else "upper = inf",
        f"gap = {_fmt(bound.gap)}" if feasible else "gap = inf",
        f"feasible = {'true' if feasible else 'false'}",
    ]
    text = "\n".join(lines) + "\n"
    (out / f"{run.prefix}_jumpcost.txt").write_text(text)
    sys.stdout.write(text)
    if bound.witness is not None:
        ch = bound.witness
        rows = [CSV_VERSION,
                ",".join([f"z_{i+1}" for i in range(problem.n_z)]
                         + ["kind", "point_residual", "link_diss", "link_gap"])]
        for i, p in enumerate(ch.points):
            resid = ch.point_residual[i] if i < len(ch.point_residual) else 0.0
            ld = ch.link_diss[i] if i < len(ch.link_diss) else 0.0
            lg = ch.link_gap[i] if i < len(ch.link_gap) else 0.0
            rows.append(",".join([_fmt(x) for x in p] + [ch.kinds[i]]
                                 + [_fmt(resid), _fmt(ld), _fmt(lg)]))
        (out / f"{run.prefix}_jumpcost_chain.csv").write_text("\n".join(rows) + "\n")
    return EXIT_PASS if feasible else EXIT_FAIL


def cmd_verify(args) -> int:
    run = load_config(args.config)
    traj = read_trajectory_csv(Path(args.trajectory), run.problem)
    problem = scheme_problem(run.problem, run.scheme)  # as solve_incremental solved it
    cert = _certify(run, problem, traj)
    text = "\n".join(certificate_lines(cert)) + "\n"
    sys.stdout.write(text)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{run.prefix}_verify_certificate.txt").write_text(text)
    return EXIT_PASS if cert.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="risolve",
        description="Incremental solvers and certificates for rate-independent systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI run config")
        p.add_argument("--out-dir", default=None, help="output directory override")

    p = sub.add_parser("solve", help="run the incremental scheme and certify")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="re-run over an axis of parameter values, the runs in lockstep")
    common(p)
    p.add_argument("--axis", required=True, choices=["tau", "mu", "epsilon", "k"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("jumpcost", help="bound the jump cost between two states")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--z-minus", required=True, help="comma-separated left state")
    p.add_argument("--z-plus", required=True, help="comma-separated right state")
    p.set_defaults(func=cmd_jumpcost)

    p = sub.add_parser("verify", help="certify an existing trajectory CSV")
    common(p)
    p.add_argument("trajectory", help="trajectory CSV as emitted by solve")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
