"""Seeded inputs of the three workloads and the checks of their outputs.

A workload is a list of CLI operations on INI configs that ``build`` writes
from a seed.  The seed draws load rates, material constants and jump-cost
queries; it never changes the number of steps, probes, queries or sweep
values, so every seed asks for the same amount of work.  Draws that would
put a grid time within a margin of a jump threshold are redrawn, so the
closed forms in checks.py decide every step without ties.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks as ck

DRAWS = 1000  # redraw budget; a draw is redrawn when a threshold is too close


@dataclass
class Op:
    kind: str  # solve | verify | jumpcost | sweep
    argv: list[str]
    # check(stdout, rc, outputs_of_this_round) -> problems
    check: Callable[[str, int, dict], list]
    output: Path | None = None  # the file the check reads, if any
    expect: dict = field(default_factory=dict)  # closed-form values the check uses


@dataclass
class Workload:
    name: str
    config: Path  # the config that setup_s loads
    ops: list[Op] = field(default_factory=list)
    params: dict = field(default_factory=dict)


def _grid(tau: float, horizon: float) -> list[float]:
    return [n * tau for n in range(round(horizon / tau) + 1)]


def _clear_jump(gap: Callable[[float], float], tau: float, horizon: float,
                margin: float) -> bool:
    """True when the first grid time with gap > 0 has gap >= margin and the
    grid time before it has gap <= -margin (gap = energy drop - jump cost)."""
    times = _grid(tau, horizon)
    for a, b in zip(times, times[1:]):
        if gap(b) > 0:
            return gap(b) >= margin and gap(a) <= -margin
    return False


def _draw(rng: random.Random, draw: Callable, accept: Callable):
    for _ in range(DRAWS):
        value = draw(rng)
        if accept(value):
            return value
    raise RuntimeError("no admissible draw")


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _solve_verify_ops(cfg: Path, out: Path, prefix: str, csv_check, cert_check) -> list[Op]:
    csv_path = out / f"{prefix}_trajectory.csv"

    def check_solve(stdout, rc, seen):
        if rc != 0:
            return [("exit", f"solve exited {rc}")]
        return cert_check(stdout) + csv_check(csv_path.read_text())

    def check_verify(stdout, rc, seen):
        if rc != 0:
            return [("exit", f"verify exited {rc}")]
        return ck.check_verify_matches(stdout, seen["solve"])

    base = ["--config", str(cfg), "--out-dir", str(out)]
    return [
        Op("solve", ["solve", *base], check_solve, csv_path),
        Op("verify", ["verify", *base, str(csv_path)], check_verify),
    ]


def _jumpcost_op(cfg: Path, out: Path, t: float, zm, zp, d, drop, h_of_d) -> Op:
    def check(stdout, rc, seen):
        if rc != 0:
            return [("exit", f"jumpcost exited {rc}")]
        return ck.check_jumpcost(stdout, d, drop, h_of_d)

    fmt = lambda z: ",".join(repr(float(x)) for x in z)
    argv = ["jumpcost", "--config", str(cfg), "--out-dir", str(out),
            "--t", repr(t), "--z-minus", fmt(zm), "--z-plus", fmt(zp)]
    return Op("jumpcost", argv, check, expect={"d": d, "direct": max(drop, d + h_of_d)})


def _sweep_op(cfg: Path, out: Path, prefix: str, axis: str, values: list[float], **expect) -> Op:
    path = out / f"{prefix}_sweep_{axis}.csv"

    def check(stdout, rc, seen):
        if rc != 0:
            return [("exit", f"sweep exited {rc}")]
        return ck.check_sweep_jumps(path.read_text(), axis, values, **expect)

    argv = ["sweep", "--config", str(cfg), "--out-dir", str(out),
            "--axis", axis, "--values", ",".join(repr(v) for v in values)]
    return Op("sweep", argv, check, path)


# ---------------------------------------------------------------------------
# damage2d: N=2 damage bar of configs/damage1d.ini, one jump (1,1) -> (0,0)

DAMAGE_TAU = 5e-2
DAMAGE_SWEEP_TAUS = [1e-1, 5e-2, 2.5e-2]
DAMAGE_INI = """\
[model]
kind = damage1d
N = 2
E0 = 1.0
eta = 0.25
r = 2.0
grad_weight = 4.0
kappa = 1.0
w_D = 0.0, {rate!r}
horizon = 1.0
correction = trivial:4:1e-4

[scheme]
scheme = VE
tau = {tau!r}
initial_z = 1.0, 1.0

[verify]
stability_tol = 1e-6
balance_tol = 5e-2
jump_tol = 5e-2
probe_count = 16

[output]
prefix = damage2d
"""


def damage2d(seed: int, out: Path) -> Workload:
    rng = random.Random(f"damage2d:{seed}")
    kappa, h = 1.0, (lambda r: 1e-4 * r**4)
    d_jump = 2 * kappa
    # Symmetric states (a, a) have I = (1/4 + 3a/4) rate^2 t^2 / 2, so the
    # drop from (1,1) to (0,0) is 3/8 rate^2 t^2 and d = 2.  The draw puts
    # the threshold t0 (drop = d) 0.002 to 0.006 before the grid time 0.6,
    # as configs/damage1d.ini has it (t0 = 0.5774 before 0.58): at 0.6 the
    # energy gap drop - d lies in [0.013, 0.041].  Above 4.8e-3 the full
    # jump beats a partial step to (a, a); below jump_tol = 0.05 the
    # certificate accepts the first chain search without refining it.
    # Steps before the jump cost more than after it, so the jump node is
    # the same on every seed.
    t_zero = 0.6 - rng.uniform(0.002, 0.006)
    rate = math.sqrt(d_jump / 0.375) / t_zero
    drop = lambda t: 0.375 * rate**2 * t * t
    gap = lambda t: drop(t) - d_jump - h(d_jump)
    if not all(_clear_jump(gap, tau, 1.0, 0.01) for tau in [DAMAGE_TAU, *DAMAGE_SWEEP_TAUS]):
        raise RuntimeError("damage2d draw too close to a jump threshold")
    t_q = rng.uniform(0.65, 0.75)  # after t0: (0,0) is the best competitor of (1,1)
    energy = lambda t, z: 0.5 * (0.25 + 0.75 * z[0]) * (rate * t) ** 2
    jump_t = {tau: ck.first_time_after(_grid(tau, 1.0), lambda t: gap(t) > 0)
              for tau in [DAMAGE_TAU, *DAMAGE_SWEEP_TAUS]}
    p = {"rate": rate, "tau": DAMAGE_TAU, "horizon": 1.0, "jump_t": jump_t[DAMAGE_TAU]}
    cfg = _write(out / "damage2d.ini", DAMAGE_INI.format(rate=rate, tau=DAMAGE_TAU))
    ops = _solve_verify_ops(
        cfg, out, "damage2d",
        lambda text: ck.check_two_state_csv(text, p, (1.0, 1.0), (0.0, 0.0), energy),
        lambda text: ck.check_certificate(text, [p["jump_t"]], DAMAGE_TAU),
    )
    ops.append(_jumpcost_op(cfg, out, t_q, (1.0, 1.0), (0.0, 0.0),
                            d_jump, drop(t_q), h(d_jump)))
    taus = DAMAGE_SWEEP_TAUS
    jumps = [jump_t[tau] for tau in taus]
    dist = lambda i: (lambda v: (v, v))(ck.step_profile_distance(
        _grid(taus[i - 1], 1.0), jumps[i - 1], _grid(taus[i], 1.0), jumps[i], math.sqrt(2.0)))
    ops.append(_sweep_op(cfg, out, "damage2d", "tau", taus, expected_jumps=jumps,
                         final_norm=0.0, final_tol=ck.FLOAT_TOL, balance_tol=5e-2,
                         expected_dist=dist))
    return Workload("damage2d", cfg, ops, p)


# ---------------------------------------------------------------------------
# sliding1d: perfect plasticity of configs/plasticity0d.ini, continuous flow

SLIDING_TAU = 1e-3
SLIDING_HORIZON = 2.0
SLIDING_INI = """\
[model]
kind = plasticity0d
C = {C!r}
sigma_y = {sigma_y!r}
eps = 0.0, {rate!r}
horizon = {horizon!r}
z_box = -5.0, 5.0
correction = trivial:4:1.0

[scheme]
scheme = VE
tau = {tau!r}
initial_z = 0.0

[verify]
stability_tol = 1e-6
balance_tol = 5e-2
jump_tol = 5e-2
probe_count = 64

[output]
prefix = {prefix}
"""
# The sweep keeps fixed inputs: yield at t = 1 of a horizon of 1.6, so fewer
# than half of the steps flow.  The median-based jump detector then reports
# the onset of flow as a jump for every tau; the sweep counts as failed until
# the detector is replaced.
SLIDING_SWEEP = {"C": 1.0, "sigma_y": 1.0, "rate": 1.0, "horizon": 1.6}
SLIDING_SWEEP_TAUS = [4e-3, 2e-3, 1e-3]


def sliding1d(seed: int, out: Path) -> Workload:
    rng = random.Random(f"sliding1d:{seed}")
    # yield at t_y in [0.78, 0.82] puts 59-61% of the steps in plastic
    # flow: more than half, and about as many on every seed, since a
    # flowing step costs more than an elastic one
    C, rate, t_y = rng.uniform(0.9, 1.1), rng.uniform(1.3, 1.5), rng.uniform(0.78, 0.82)
    sy = C * rate * t_y
    queries = [(rng.uniform(1.4, 1.6), rng.uniform(0.2, 0.3)) for _ in range(3)]
    p = {"C": C, "sigma_y": sy, "rate": rate, "tau": SLIDING_TAU, "horizon": SLIDING_HORIZON}
    cfg = _write(out / "sliding1d.ini", SLIDING_INI.format(
        C=C, sigma_y=sy, rate=rate, horizon=SLIDING_HORIZON, tau=SLIDING_TAU, prefix="sliding1d"))
    ops = _solve_verify_ops(
        cfg, out, "sliding1d",
        lambda text: ck.check_plasticity_csv(text, p),
        lambda text: ck.check_certificate(text, [], SLIDING_TAU),
    )
    for t_q, jump in queries:
        p_minus = rate * t_q - sy / C  # on the yield surface: stable
        p_plus = p_minus + jump
        d = sy * jump
        eps = rate * t_q
        drop = 0.5 * C * ((eps - p_minus) ** 2 - (eps - p_plus) ** 2)
        ops.append(_jumpcost_op(cfg, out, t_q, (p_minus,), (p_plus,), d, drop, d**4))

    s = SLIDING_SWEEP
    sweep_cfg = _write(out / "sliding1d_sweep.ini", SLIDING_INI.format(
        tau=SLIDING_SWEEP_TAUS[0], prefix="sliding1d", **s))
    taus = SLIDING_SWEEP_TAUS
    final = s["rate"] * s["horizon"] - s["sigma_y"] / s["C"]
    # two piecewise-constant samplings of a path of slope rate differ by at
    # most rate * (coarser tau)
    dist = lambda i: (0.0, s["rate"] * max(taus[i - 1], taus[i]))
    ops.append(_sweep_op(sweep_cfg, out, "sliding1d", "tau", taus,
                         expected_jumps=[math.nan] * len(taus), final_norm=final,
                         final_tol=ck.play_tolerance(s["C"], s["sigma_y"], s["rate"], max(taus)),
                         balance_tol=5e-2,
                         expected_dist=dist))
    return Workload("sliding1d", cfg, ops, p)


# ---------------------------------------------------------------------------
# debond1d: brittle delamination of configs/delamination0d.ini, one jump

DEBOND_TAU = 5e-3
DEBOND_KS = [5.0, 10.0, 20.0, 30.0, 60.0, 100.0, 200.0, 300.0, 600.0, 1000.0, 3000.0, 10000.0]
DEBOND_INI = """\
[model]
kind = delamination0d
k_minus = 4.0
k_plus = 4.0
a0 = 1.0
kappa = 0.5
ell = 0.0, {rate!r}
horizon = 1.0
brittle = true
correction = trivial:2:1.0

[scheme]
scheme = VE
tau = {tau!r}
initial_z = 1.0

[verify]
stability_tol = 1e-6
balance_tol = 5e-2
jump_tol = 5e-2
probe_count = 256

[output]
prefix = debond1d
"""


def debond1d(seed: int, out: Path) -> Workload:
    rng = random.Random(f"debond1d:{seed}")
    km = kp = 4.0
    a0, kappa = 1.0, 0.5
    h = lambda r: r * r
    cost = kappa + h(kappa)  # full debonding from z = 1
    k_brittle = km * kp / (km + kp)
    k_series = lambda k: 1.0 / (1.0 / km + 1.0 / k + 1.0 / kp)
    stiff = [k_brittle] + [k_series(k) for k in DEBOND_KS]
    gap_of = lambda rate, k: (lambda t: 0.5 * k * (rate * t) ** 2 - a0 - cost)
    # steps before the jump cost more than after it: a narrow rate keeps the
    # jump node, and the work, about the same on every seed
    rate = _draw(rng, lambda r: r.uniform(1.9, 2.1), lambda rate: all(
        _clear_jump(gap_of(rate, k), DEBOND_TAU, 1.0, 1e-3) for k in stiff))
    grid = _grid(DEBOND_TAU, 1.0)
    jumps = [ck.first_time_after(grid, lambda t, g=gap_of(rate, k): g(t) > 0) for k in stiff]
    t_star = math.sqrt(2 * (a0 + cost) / k_brittle) / rate  # brittle threshold
    p = {"rate": rate, "tau": DEBOND_TAU, "horizon": 1.0, "jump_t": jumps[0]}
    bonded = lambda t, z: 0.5 * k_brittle * (rate * t) ** 2 - a0 * z if z > 0 else 0.0
    energy = lambda t, z: bonded(t, z[0])
    cfg = _write(out / "debond1d.ini", DEBOND_INI.format(rate=rate, tau=DEBOND_TAU))
    ops = _solve_verify_ops(
        cfg, out, "debond1d",
        lambda text: ck.check_two_state_csv(text, p, (1.0,), (0.0,), energy),
        lambda text: ck.check_certificate(text, [p["jump_t"]], DEBOND_TAU),
    )
    # z_minus = 1 is stable before t_star and has z = 0 as best competitor
    # after it, so the direct chain bounds every query from above
    # times stay within 0.15 of t_star: the DP chain gets longer, and the
    # query dearer, the further t is from the jump
    queries = [
        (rng.uniform(t_star - 0.15, t_star - 0.05), 0.0),
        (rng.uniform(t_star - 0.15, t_star - 0.05), rng.uniform(0.4, 0.7)),
        (rng.uniform(t_star + 0.03, t_star + 0.15), 0.0),
        (rng.uniform(t_star + 0.03, t_star + 0.15), 0.0),
    ]
    for t_q, z_plus in queries:
        d = kappa * (1.0 - z_plus)
        drop = bonded(t_q, 1.0) - bonded(t_q, z_plus)
        ops.append(_jumpcost_op(cfg, out, t_q, (1.0,), (z_plus,), d, drop, h(d)))
    adhesive = jumps[1:]
    dist = lambda i: (lambda v: (v, v))(ck.step_profile_distance(
        grid, adhesive[i - 1], grid, adhesive[i], 1.0))
    ops.append(_sweep_op(cfg, out, "debond1d", "k", DEBOND_KS, expected_jumps=adhesive,
                         final_norm=0.0, final_tol=ck.FLOAT_TOL, balance_tol=5e-2,
                         expected_dist=dist))
    return Workload("debond1d", cfg, ops, p)


WORKLOADS = {"damage2d": damage2d, "sliding1d": sliding1d, "debond1d": debond1d}
