"""Output checks made apart from the program.

Every expected value here comes from a closed form or a property derived in
README.md ("Closed forms"), computed with plain Python floats.  Nothing is
imported from risolve and no saved output is compared against.

Each check returns a list of problems; an empty list means the output passed.
A problem is a pair (code, message); the code ``KNOWN_SPURIOUS_JUMP`` marks
the one fault the benchmark keeps as a counted failure.
"""

from __future__ import annotations

import math

KNOWN_SPURIOUS_JUMP = "known-spurious-jump"

CSV_VERSION = "# risolve-csv v1"
FLOAT_TOL = 1e-9
TIE_BAND = 1e-9  # MinimizerConfig.near_optimal_band


def play_tolerance(C: float, sigma_y: float, rate: float, tau: float) -> float:
    """How far a VE node of the plasticity model may sit from the play operator.

    A flowing step stops where C (eps - p) = sigma_y + 4 sigma_y^4 dp^3
    (correction h(r) = r^4, dp = rate tau), a lag of 4 sigma_y^4 (rate tau)^3 / C.
    Step candidates within TIE_BAND of the best value tie, and ties go to
    the candidate nearest the previous state; the step objective grows like
    C x^2 / 2 around its minimizer, so a node may also stop sqrt(2 TIE_BAND / C)
    short.  The sum is below 0.05 tau for the drawn constants and tau = 1e-3.
    """
    return 4 * sigma_y**4 * (rate * tau) ** 3 / C + math.sqrt(2 * TIE_BAND / C) + FLOAT_TOL


# ---------------------------------------------------------------------------
# parsing


def parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_VERSION:
        raise ValueError("missing CSV version header")
    header = [c.strip() for c in lines[1].split(",")]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[2:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("CSV row width differs from the header")
    return header, rows


def _num(kv: dict, key: str) -> float:
    return float(kv[key])


# ---------------------------------------------------------------------------
# closed forms


def first_time_after(times, pred) -> float:
    """First node time at which ``pred`` holds, or nan when it never does."""
    for t in times:
        if pred(t):
            return t
    return math.nan


def step_profile_distance(grid_a, jump_a: float, grid_b, jump_b: float, size: float) -> float:
    """Sup over 129 uniform probes of the distance between two left-continuous
    piecewise-constant profiles that switch by ``size`` at node times
    ``jump_a`` (on node grid ``grid_a``) and ``jump_b`` (on ``grid_b``).

    On (t_{n-1}, t_n] an interpolant takes the node-n value, so a probe t
    sees the switched value once the first node at or after t is past the
    switch.
    """
    t0, t1 = grid_a[0], grid_a[-1]
    probes = [t0 + (t1 - t0) * i / 128 for i in range(129)]

    def switched(t, grid, tj):
        node = next((s for s in grid if s >= t), grid[-1])
        return t > t0 and node >= tj - 1e-12

    return max(
        size if switched(t, grid_a, jump_a) != switched(t, grid_b, jump_b) else 0.0
        for t in probes
    )


# ---------------------------------------------------------------------------
# shared checks


def check_certificate(text: str, jump_times: list[float], tau: float) -> list:
    """``passed = true`` with exactly the expected jumps, each at its node time."""
    kv = parse_kv(text)
    errs = []
    if kv.get("passed") != "true":
        errs.append(("certificate", f"certificate not passed: {kv}"))
    if int(kv.get("jump_count", "-1")) != len(jump_times):
        errs.append(("certificate", f"jump_count {kv.get('jump_count')} != {len(jump_times)}"))
        return errs
    for i, tj in enumerate(jump_times, start=1):
        got = _num(kv, f"jump_{i}_t")
        if abs(got - tj) > 1e-6 * tau:
            errs.append(("certificate", f"jump_{i}_t {got} != {tj}"))
    return errs


def check_verify_matches(verify_text: str, solve_text: str) -> list:
    if verify_text != solve_text:
        return [("verify", "verify certificate differs from the solve certificate")]
    if parse_kv(verify_text).get("passed") != "true":
        return [("verify", "verify certificate not passed")]
    return []


def check_uniform_grid(times, tau: float, horizon: float) -> list:
    n = len(times) - 1
    if n != round(horizon / tau):
        return [("grid", f"{n} steps, expected {round(horizon / tau)}")]
    worst = max(abs(t - i * tau) for i, t in enumerate(times))
    if worst > 1e-9:
        return [("grid", f"node times off the uniform grid by {worst}")]
    return []


def check_jumpcost(text: str, d: float, drop: float, h_of_d: float) -> list:
    """d <= lower <= upper <= max(drop, d + h(d)).

    The right end is the cost of the direct two-point chain when z_minus is
    stable or z_plus is its best competitor, which is how queries are drawn.
    """
    kv = parse_kv(text)
    if kv.get("feasible") != "true":
        return [("jumpcost", f"query not feasible: {kv}")]
    lower, upper = _num(kv, "lower"), _num(kv, "upper")
    direct = max(drop, d + h_of_d)
    errs = []
    if not (d - FLOAT_TOL <= lower <= upper + FLOAT_TOL):
        errs.append(("jumpcost", f"not d <= lower <= upper: {d}, {lower}, {upper}"))
    if upper > direct + FLOAT_TOL:
        errs.append(("jumpcost", f"upper {upper} above the direct chain cost {direct}"))
    return errs


def _sweep_rows(text: str, axis: str) -> list[dict]:
    header, rows = parse_csv(text)
    expected = [axis, "jump_time", "final_z_norm", "balance_residual", "sup_dist_prev"]
    if header != expected:
        raise ValueError(f"sweep header {header} != {expected}")
    return [dict(zip(header, r)) for r in rows]


def check_sweep_jumps(
    text: str,
    axis: str,
    values: list[float],
    expected_jumps: list[float],
    final_norm: float,
    final_tol: float,
    balance_tol: float,
    expected_dist,
) -> list:
    """Per sweep value: the jump time (nan when none is expected), the final
    state norm, the balance residual, and the interpolant distance to the
    previous value's run; ``expected_dist(i)`` gives (low, high) bounds on
    row i's distance."""
    rows = _sweep_rows(text, axis)
    if [r[axis] for r in rows] != values:
        return [("sweep", f"sweep values {[r[axis] for r in rows]} != {values}")]
    errs = []
    for i, (row, tj) in enumerate(zip(rows, expected_jumps)):
        got = row["jump_time"]
        if math.isnan(tj):
            if not math.isnan(got):
                errs.append((KNOWN_SPURIOUS_JUMP,
                             f"{axis}={row[axis]}: jump reported at t={got} on a continuous evolution"))
        elif math.isnan(got) or abs(got - tj) > 1e-9:
            errs.append(("sweep", f"{axis}={row[axis]}: jump at {got}, expected {tj}"))
        if abs(row["final_z_norm"] - final_norm) > final_tol:
            errs.append(("sweep", f"{axis}={row[axis]}: final |z| {row['final_z_norm']} != {final_norm}"))
        if not (0.0 <= row["balance_residual"] <= balance_tol):
            errs.append(("sweep", f"{axis}={row[axis]}: balance residual {row['balance_residual']}"))
        if i == 0:
            if not math.isnan(row["sup_dist_prev"]):
                errs.append(("sweep", "first sweep row has a previous-run distance"))
        else:
            low, high = expected_dist(i)
            if not (low - FLOAT_TOL <= row["sup_dist_prev"] <= high + FLOAT_TOL):
                errs.append(("sweep", f"{axis}={row[axis]}: sup distance {row['sup_dist_prev']} "
                                      f"outside [{low}, {high}]"))
    return errs


# ---------------------------------------------------------------------------
# per-model trajectory checks


def check_plasticity_csv(text: str, p: dict) -> list:
    """Play operator p(t) = max(0, eps' t - sigma_y / C) and |sigma| <= sigma_y,
    both up to ``play_tolerance``; E = C (eps' t - p)^2 / 2; no jump flags."""
    header, rows = parse_csv(text)
    if header[:3] != ["t", "z_1", "energy"]:
        return [("csv", f"unexpected columns {header}")]
    C, sy, rate, tau = p["C"], p["sigma_y"], p["rate"], p["tau"]
    tol = play_tolerance(C, sy, rate, tau)
    times = [r[0] for r in rows]
    errs = check_uniform_grid(times, tau, p["horizon"])
    worst_play = worst_sigma = worst_energy = 0.0
    for r in rows:
        t, z, energy, flag = r[0], r[1], r[2], r[-1]
        eps = rate * t
        worst_play = max(worst_play, abs(z - max(0.0, eps - sy / C)))
        worst_sigma = max(worst_sigma, abs(C * (eps - z)) - sy)
        worst_energy = max(worst_energy, abs(energy - 0.5 * C * (eps - z) ** 2))
        if flag != 0:
            errs.append(("csv", f"jump flag at t={t}"))
            break
    if worst_play > tol:
        errs.append(("csv", f"play-operator error {worst_play} > {tol}"))
    if worst_sigma > C * tol:
        errs.append(("csv", f"|sigma| exceeds sigma_y by {worst_sigma}"))
    if worst_energy > FLOAT_TOL:
        errs.append(("csv", f"energy off the closed form by {worst_energy}"))
    return errs


def check_two_state_csv(text: str, p: dict, z_before, z_after, energy_of) -> list:
    """z = z_before at nodes before the jump time and z_after from it on;
    z never increases; the energy column matches the closed form."""
    header, rows = parse_csv(text)
    nz = len(z_before)
    if header[: 1 + nz] != ["t"] + [f"z_{i + 1}" for i in range(nz)]:
        return [("csv", f"unexpected columns {header}")]
    e_col = header.index("energy")
    times = [r[0] for r in rows]
    errs = check_uniform_grid(times, p["tau"], p["horizon"])
    tj = p["jump_t"]
    prev = None
    for r in rows:
        t, z = r[0], r[1 : 1 + nz]
        want = z_after if t >= tj - 1e-12 else z_before
        if max(abs(a - b) for a, b in zip(z, want)) > FLOAT_TOL:
            errs.append(("csv", f"z({t}) = {z}, expected {want}"))
            break
        if prev is not None and any(a > b + 1e-12 for a, b in zip(z, prev)):
            errs.append(("csv", f"z increased at t={t}"))
            break
        if abs(r[e_col] - energy_of(t, want)) > FLOAT_TOL:
            errs.append(("csv", f"energy({t}) = {r[e_col]}, expected {energy_of(t, want)}"))
            break
        prev = z
    return errs
