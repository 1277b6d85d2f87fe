"""End-to-end CLI behaviour: configs, CSV round trips, exit codes."""

import ctypes
import os
import platform
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from risolve import (
    SchemeConfig,
    TolConfig,
    cli,
    jump,
    reduced,
    scheme,
    solve_incremental,
    stability,
    verify,
    verify_VE,
)
from risolve.cli import (
    ConfigError,
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    certificate_lines,
    load_config,
    main,
    parse_correction,
    read_trajectory_csv,
    write_trajectory_csv,
)
from risolve.core import PowerLq, QuadraticMu, TrivialH
from risolve.models import Damage1dSpec, Delamination0dSpec, Plasticity0dSpec, Toy1dSpec
from risolve.reduced import step_terms

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


TOY_CONFIG = """\
[model]
kind = toy1d
well = convex
ell = 0, 2
correction = none

[scheme]
scheme = E
tau = 0.02
initial_z = 0.0

[output]
prefix = toy
"""

DELAM_CONFIG = """\
[model]
kind = delamination0d
correction = trivial:2:1.0

[scheme]
scheme = VE
tau = 0.01
initial_z = 1.0

[output]
prefix = delam
"""


# the convex toy under the viscosity-penalized scheme; solve and verify must
# both certify against the QuadraticMu(epsilon / tau) problem it solves
TOY_BV_CONFIG = (
    (CONFIG_DIR / "toy_convex.ini").read_text()
    .replace("scheme = VE", "scheme = BV\nepsilon = 2e-2")
    .replace("tau = 5e-4", "tau = 1e-3")
)

# the double well under a strong correction: the jump is smeared over the
# nodes of t in 0.63-0.64
DOUBLEWELL_CONFIG = """\
[model]
kind = toy1d
well = doublewell
b = 1.0
w = 1.0
kappa = 1.0
ell = 0, 3
z_box = -3, 3
correction = quadratic:1.0

[scheme]
scheme = VE
tau = 1e-2
initial_z = -1.0

[output]
prefix = dw
"""


def _edit_rows(text: str, edits: dict) -> str:
    """A trajectory CSV with ``edits[col](t, value)`` written to column col
    of every row, t the row's time."""
    lines = text.splitlines()
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        t = float(cells[0])
        for col, fn in edits.items():
            j = header.index(col)
            value = fn(t, float(cells[j]))
            cells[j] = f"{int(value)}" if col == "jump_flag" else f"{value:.17g}"
        rows.append(",".join(cells))
    return "\n".join(lines[:2] + rows) + "\n"


@pytest.fixture
def toy_cfg(tmp_path):
    p = tmp_path / "toy.ini"
    p.write_text(TOY_CONFIG)
    return p


@pytest.fixture
def delam_cfg(tmp_path):
    p = tmp_path / "delam.ini"
    p.write_text(DELAM_CONFIG)
    return p


class TestParseCorrection:
    def test_grammar(self):
        assert parse_correction("none") is None
        q = parse_correction("quadratic:2.5")
        assert isinstance(q, QuadraticMu) and q.mu == 2.5
        p = parse_correction("power:2:3")
        assert isinstance(p, PowerLq) and p.q == 2.0 and p.gamma == 3.0
        t = parse_correction("trivial:4:0.5")
        assert isinstance(t, TrivialH) and (t.p, t.c) == (4.0, 0.5)
        assert t.h(2.0) == pytest.approx(0.5 * 16.0)

    def test_rejects_garbage(self):
        from risolve.cli import ConfigError

        for bad in ("quartic:1", "quadratic", "trivial:1:1", "trivial:2:-1", "power:2"):
            with pytest.raises(ConfigError):
                parse_correction(bad)
        # a non-finite parameter is refused with the descriptor named
        for bad in (
            "power:2:inf", "trivial:inf:1", "trivial:nan:1e-4",
            "quadratic:nan", "quadratic:inf", "power:nan:2",
        ):
            with pytest.raises(ConfigError, match=f"'{bad}'"):
                parse_correction(bad)


class TestLoadConfig:
    def test_toy_roundtrip(self, toy_cfg):
        run = load_config(toy_cfg)
        assert run.model_kind == "toy1d"
        assert run.scheme.tau == 0.02
        assert run.prefix == "toy"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        for text in (
            TOY_CONFIG + "\n[verify]\nstrictness = 11\n",
            TOY_CONFIG.replace("[scheme]\n", "[scheme]\ngrid_resolution = 65\n"),
        ):
            assert text != TOY_CONFIG
            p.write_text(text)
            assert main(["solve", "--config", str(p)]) == EXIT_ERROR

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(TOY_CONFIG + "\n[plotting]\nstyle = dark\n")
        assert main(["solve", "--config", str(p)]) == EXIT_ERROR

    def test_negative_tau_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        for tau in ("-1", "nan", "inf"):
            p.write_text(TOY_CONFIG.replace("tau = 0.02", f"tau = {tau}"))
            assert main(["solve", "--config", str(p)]) == EXIT_ERROR
            # a negative tau fails SchemeConfig, a non-finite one the parser
            err = capsys.readouterr().err
            assert "tau must be finite and positive" in err or "'tau' must be finite" in err

    def test_negative_probe_count_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(TOY_CONFIG + "\n[verify]\nprobe_count = -5\n")
        assert main(["solve", "--config", str(p)]) == EXIT_ERROR
        assert "'probe_count'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, text",
        [
            ("tau", TOY_CONFIG.replace("tau = 0.02", "tau = small")),
            ("probe_count", TOY_CONFIG + "\n[verify]\nprobe_count = many\n"),
            ("C", (CONFIG_DIR / "plasticity0d.ini").read_text().replace("C = 1.0", "C = big")),
            ("stability_tol", TOY_CONFIG + "\n[verify]\nstability_tol = nan\n"),
            ("balance_tol", TOY_CONFIG + "\n[verify]\nbalance_tol = -0.1\n"),
        ],
        ids=["tau-small", "probe_count-many", "C-big", "stability_tol-nan", "balance_tol-negative"],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, key, text):
        # a config error before any run, naming the key
        assert key in text
        p = tmp_path / "bad.ini"
        p.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out-dir", str(out)]) == EXIT_ERROR
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_tau_not_dividing_the_span_fails_loudly(self, tmp_path, capsys):
        # 0.3 steps end at t = 0.9 of [0, 1]: no CSV, no certificate of [0, 0.9]
        p = tmp_path / "bad.ini"
        p.write_text(TOY_CONFIG.replace("tau = 0.02", "tau = 0.3"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out-dir", str(out)]) == EXIT_ERROR
        assert "does not divide" in capsys.readouterr().err
        assert not (out / "toy_trajectory.csv").exists()

    @pytest.mark.parametrize("span", ["0, 3", "1, 0", "0.5, 0.5"])
    def test_t_span_outside_the_horizon_fails_loudly(self, tmp_path, capsys, span):
        # toy_convex.ini has horizon 1: no certificate of [0, 3], and an
        # empty or reversed span names t_span, not tau
        p = tmp_path / "bad.ini"
        text = (CONFIG_DIR / "toy_convex.ini").read_text()
        p.write_text(text.replace("[scheme]\n", f"[scheme]\nt_span = {span}\n"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out-dir", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "t_span" in err and "does not divide" not in err
        assert not (out / "toy_convex_trajectory.csv").exists()

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == EXIT_ERROR

    def test_runtime_loads_no_scipy(self):
        # a fresh interpreter, so modules the tests import do not count
        code = (
            "import sys\n"
            "from risolve.cli import load_config\n"
            "load_config('configs/delamination0d.ini')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_commands_load_no_numpy_ma(self, tmp_path):
        # np.median and np.unique import numpy.ma on their first call
        csv = tmp_path / "delamination0d_trajectory.csv"
        code = (
            "import sys\n"
            "from risolve.cli import main\n"
            f"base = ['--config', 'configs/delamination0d.ini', '--out-dir', {str(tmp_path)!r}]\n"
            "assert main(['solve', *base]) == 0\n"
            f"assert main(['verify', *base, {str(csv)!r}]) == 0\n"
            "assert main(['jumpcost', *base, '--t', '0.7', '--z-minus', '1', '--z-plus', '0']) == 0\n"
            "assert main(['sweep', *base, '--axis', 'tau', '--values', '0.01,0.005']) == 0\n"
            "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        err = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, check=True,
        ).stderr
        assert err.strip() == "False"

    def test_damage_bar_of_three_cells_fails_loudly(self, tmp_path, capsys):
        # no certified step search exists for n_z > 2
        p = tmp_path / "damage3.ini"
        text = (CONFIG_DIR / "damage1d.ini").read_text()
        p.write_text(text.replace("N = 2", "N = 3").replace("1.0, 1.0", "1.0, 1.0, 1.0"))
        assert main(["solve", "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_ERROR
        assert "no certified step search" in capsys.readouterr().err

    def test_damage_bar_of_three_cells_sweep_fails_like_solve(self, tmp_path, capsys):
        p = tmp_path / "damage3.ini"
        text = (CONFIG_DIR / "damage1d.ini").read_text()
        p.write_text(text.replace("N = 2", "N = 3").replace("1.0, 1.0", "1.0, 1.0, 1.0"))
        assert main(["solve", "--config", str(p), "--out-dir", str(tmp_path / "solve")]) == EXIT_ERROR
        solve_err = capsys.readouterr().err
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--config", str(p), "--out-dir", str(out),
            "--axis", "tau", "--values", "0.02,0.01",
        ])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == solve_err
        assert not out.exists()  # no CSV, not even a header


# every key of each kind set to a value other than its default, and the
# objects the parser must build from it
_EVERY_KEY = {
    "toy1d": (
        "well = doublewell\na = 2.0\nb = 0.5\nw = 1.5\nkappa = 0.7\nell = 0.5, 3.0\n"
        "horizon = 2.0\nz_box = -3, 3\ncorrection = quadratic:2.5\n",
        Toy1dSpec(well="doublewell", a=2.0, b=0.5, w=1.5, kappa=0.7, ell=(0.5, 3.0),
                  horizon=2.0, z_box=(-3.0, 3.0), correction=QuadraticMu(mu=2.5)),
        "initial_z = 0.5",
        (0.5,),
    ),
    "plasticity0d": (
        "C = 2.0\nsigma_y = 0.5\neps = 0.1, 2.0\nhorizon = 3.0\nz_box = -4, 4\n"
        "correction = power:2:3\n",
        Plasticity0dSpec(C=2.0, sigma_y=0.5, eps=(0.1, 2.0), horizon=3.0, z_box=(-4.0, 4.0),
                         correction=PowerLq(q=2.0, gamma=3.0)),
        "initial_z = 0.5",
        (0.5,),
    ),
    "damage1d": (
        "N = 3\nE0 = 1.0, 2.0, 3.0\neta = 0.5\nr = 3.0\ngrad_weight = 2.0\n"
        "kappa = 1.0, 2.0, 0.5\nw_D = 0.5, 3.0\nhorizon = 2.0\n"
        "correction = quadratic:0.5:dissipation\n",
        Damage1dSpec(N=3, E0=(1.0, 2.0, 3.0), eta=0.5, r=3.0, grad_weight=2.0,
                     kappa=(1.0, 2.0, 0.5), w_D=(0.5, 3.0), horizon=2.0,
                     correction=QuadraticMu(mu=0.5, dist="dissipation")),
        "initial_z = 1.0, 1.0, 1.0",
        (1.0, 1.0, 1.0),
    ),
    "delamination0d": (
        "k_minus = 3.0\nk_plus = 5.0\na0 = 0.5\nkappa = 0.25\nell = 0.5, 1.5\n"
        "horizon = 2.0\ncorrection = quadratic:1.5\nbrittle = false\nk = 40.0\n",
        Delamination0dSpec(k_minus=3.0, k_plus=5.0, a0=0.5, kappa=0.25, ell=(0.5, 1.5),
                           horizon=2.0, correction=QuadraticMu(mu=1.5)),
        "initial_z = 0.5",
        (0.5,),
    ),
}


class TestConfigKeys:
    """The [model], [scheme] and [verify] keys are the fields of the spec
    dataclasses, ``SchemeConfig`` and ``TolConfig``."""

    @pytest.mark.parametrize("kind", sorted(_EVERY_KEY))
    def test_every_key_parses_to_the_spec_built_directly(self, kind, tmp_path):
        model, spec, initial_z, z0 = _EVERY_KEY[kind]
        p = tmp_path / "all.ini"
        p.write_text(
            f"[model]\nkind = {kind}\n{model}\n"
            f"[scheme]\nscheme = BV\ntau = 1e-3\nepsilon = 0.05\n{initial_z}\n"
            "t_span = 0.1, 0.9\n\n"
            "[verify]\nminimality_tol = 1e-7\nstability_tol = 1e-5\nbalance_tol = 0.1\n"
            "jump_tol = 0.2\nprobe_count = 64\n"
        )
        run = load_config(p)
        scheme_cfg = SchemeConfig(scheme="BV", tau=1e-3, epsilon=0.05, initial_z=z0,
                                  t_span=(0.1, 0.9))
        tol = TolConfig(minimality_tol=1e-7, stability_tol=1e-5, balance_tol=0.1,
                        jump_tol=0.2, probe_count=64)
        assert (run.model_spec, run.scheme, run.tol) == (spec, scheme_cfg, tol)
        # every field of the three differs from its default
        for obj in (spec, scheme_cfg, tol):
            default = type(obj)()
            same = [f.name for f in fields(obj) if getattr(obj, f.name) == getattr(default, f.name)]
            assert same == [], same
        if kind == "delamination0d":
            assert run.problem.name == "delamination0d-adhesive"

    @pytest.mark.parametrize(
        "section, line",
        [("model", "z_tol = 1e-10"), ("scheme", "correction = quadratic:1.0")],
        ids=["model-z_tol", "scheme-correction"],
    )
    def test_key_without_a_field_rejected(self, tmp_path, capsys, section, line):
        config = CONFIG_DIR / ("delamination0d.ini" if section == "model" else "toy_convex.ini")
        p = tmp_path / "bad.ini"
        p.write_text(config.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert main(["solve", "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_ERROR
        key = line.split(" = ")[0]
        assert f"unknown key(s) in [{section}]: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, old, new",
        [
            ("horizon", "horizon = 1.0", "horizon = inf"),
            ("horizon", "horizon = 1.0", "horizon = nan"),
            ("a", "a = 1.0", "a = nan"),
            ("ell", "ell = 0.0, 2.0", "ell = 0, nan"),
            ("kappa", "kappa = 1.0", "kappa = inf"),
        ],
        ids=["horizon-inf", "horizon-nan", "a-nan", "ell-nan", "kappa-inf"],
    )
    def test_non_finite_model_number_names_its_key(self, tmp_path, capsys, key, old, new):
        text = (CONFIG_DIR / "toy_convex.ini").read_text()
        assert old in text
        p = tmp_path / "bad.ini"
        p.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out-dir", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {key!r} must be finite, got {new.split(' = ')[1]!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["sweep", "--axis", "tau", "--values", "1e-3,5e-4"]],
        ids=["solve", "sweep"],
    )
    def test_initial_z_of_another_dimension_names_its_key(self, tmp_path, capsys, argv):
        text = (CONFIG_DIR / "toy_convex.ini").read_text()
        p = tmp_path / "bad.ini"
        p.write_text(text.replace("initial_z = 0.0\n", "initial_z = 0.0, 0.5\n"))
        out = tmp_path / "out"
        rc = main([argv[0], "--config", str(p), "--out-dir", str(out), *argv[1:]])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: 'initial_z' needs n_z = 1 numbers, got (0.0, 0.5)\n"
        )
        assert not out.exists()

    def test_initial_z_left_out_is_zeros_of_the_model(self, tmp_path):
        text = (CONFIG_DIR / "damage1d.ini").read_text()
        p = tmp_path / "no_initial_z.ini"
        p.write_text(text.replace("initial_z = 1.0, 1.0\n", ""))
        run = load_config(p)
        assert run.scheme.initial_z is None
        disc = solve_incremental(run.problem, replace(run.scheme, t_span=(0.0, 0.1)))
        assert disc.Z[0].tolist() == [0.0, 0.0]

    def test_brittle_model_refuses_k(self, tmp_path, capsys):
        text = (CONFIG_DIR / "delamination0d.ini").read_text()
        p = tmp_path / "bad.ini"
        p.write_text(text.replace("brittle = true\n", "brittle = true\nk = 5.0\n"))
        assert main(["solve", "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_ERROR
        assert "'k'" in capsys.readouterr().err
        # left out, brittle defaults to true: k is refused as well
        p.write_text(text.replace("brittle = true\n", "k = 5.0\n"))
        with pytest.raises(ConfigError, match="'k'"):
            load_config(p)
        p.write_text(text.replace("brittle = true\n", "brittle = false\nk = 5.0\n"))
        assert load_config(p).problem.name == "delamination0d-adhesive"


class TestSolveAndVerify:
    @pytest.mark.parametrize(
        "text, prefix, exit_code",
        [
            pytest.param(TOY_CONFIG, "toy", EXIT_PASS, id="E"),
            pytest.param(TOY_BV_CONFIG, "toy_convex", EXIT_FAIL, id="BV"),
            pytest.param(DELAM_CONFIG, "delam", EXIT_PASS, id="VE"),
        ],
    )
    def test_solve_then_verify_agree(self, tmp_path, capsys, text, prefix, exit_code):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == exit_code
        solved = capsys.readouterr().out
        csv = out / f"{prefix}_trajectory.csv"
        cert = out / f"{prefix}_certificate.txt"
        assert csv.is_file() and cert.read_text() == solved
        assert main(["verify", "--config", str(cfg), str(csv)]) == exit_code
        assert capsys.readouterr().out == solved

    def test_csv_jump_records_match_the_run(self, tmp_path):
        cfg = tmp_path / "dw.ini"
        cfg.write_text(DOUBLEWELL_CONFIG)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        run = load_config(cfg)
        expected = solve_incremental(run.problem, run.scheme).jump_records
        got = read_trajectory_csv(out / "dw_trajectory.csv", run.problem).jump_records
        assert len(got) == len(expected) == 1
        assert expected[0].t_end > expected[0].t  # a jump over several steps
        for g, e in zip(got, expected):
            assert (g.t, g.t_end) == (e.t, e.t_end)
            for name in ("z_left", "z_inner", "z_right"):
                assert np.array_equal(getattr(g, name), getattr(e, name))

    def test_csv_gives_the_step_terms_of_the_run(self, tmp_path):
        # the terms are read from the states, which the CSV keeps to the bit
        cfg = tmp_path / "dw.ini"
        cfg.write_text(DOUBLEWELL_CONFIG)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        run = load_config(cfg)
        disc = solve_incremental(run.problem, run.scheme)
        traj = read_trajectory_csv(out / "dw_trajectory.csv", run.problem)
        expected = step_terms(disc.problem, disc.times, disc.Z)
        got = step_terms(disc.problem, traj.times, traj.Z)
        assert expected[2].max() > 0.0  # the jump's steps gain
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_csv_round_trip_is_lossless(self, toy_cfg, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(toy_cfg), "--out-dir", str(out)])
        run = load_config(toy_cfg)
        traj = read_trajectory_csv(out / "toy_trajectory.csv", run.problem)
        assert len(traj.times) == 51
        zs = traj.Z[:, 0]
        exact = np.maximum(2 * traj.times - 1.0, 0.0)
        assert np.max(np.abs(zs - exact)) <= 5 * 0.02

    def test_determinism_byte_identical(self, delam_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["solve", "--config", str(delam_cfg), "--out-dir", str(out)]) == EXIT_PASS
        assert (a / "delam_trajectory.csv").read_bytes() == (b / "delam_trajectory.csv").read_bytes()
        assert (a / "delam_certificate.txt").read_bytes() == (b / "delam_certificate.txt").read_bytes()

    def test_tampered_trajectory_fails_verification(self, delam_cfg, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(delam_cfg), "--out-dir", str(out)])
        csv = out / "delam_trajectory.csv"
        lines = csv.read_text().splitlines()
        # re-bond a late node: z_1 -> 1 with the bonded equilibrium u
        parts = lines[-5].split(",")
        parts[1] = "1"
        parts[2] = parts[3] = "0.5"
        lines[-5] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--config", str(delam_cfg), str(csv)]) == EXIT_FAIL

    def test_bad_version_header_rejected(self, toy_cfg, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(toy_cfg), "--out-dir", str(out)])
        csv = out / "toy_trajectory.csv"
        lines = csv.read_text().splitlines()
        lines[0] = "# risolve-csv v9"
        csv.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--config", str(toy_cfg), str(csv)]) == EXIT_ERROR

    def test_non_finite_state_entry_rejected(self, toy_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["solve", "--config", str(toy_cfg), "--out-dir", str(out)])
        csv = out / "toy_trajectory.csv"
        lines = csv.read_text().splitlines()
        parts = lines[7].split(",")  # node 5, t = 0.1
        parts[1] = "nan"
        lines[7] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", str(toy_cfg), str(csv)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "z_1 is not finite" in err and f"t = {float(parts[0])!r}" in err
        with pytest.raises(ConfigError, match="z_1 is not finite"):
            read_trajectory_csv(csv, load_config(toy_cfg).problem)

    def test_non_numeric_entry_names_its_row_and_column(self, toy_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["solve", "--config", str(toy_cfg), "--out-dir", str(out)])
        csv = out / "toy_trajectory.csv"
        lines = csv.read_text().splitlines()
        parts = lines[7].split(",")  # node 5, t = 0.1
        parts[-3] = "abc"  # cum_var_d
        lines[7] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", str(toy_cfg), str(csv)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "cum_var_d is not a number, got 'abc'" in err
        assert f"t = {parts[0]} (node 5)" in err
        with pytest.raises(ConfigError, match="cum_var_d is not a number"):
            read_trajectory_csv(csv, load_config(toy_cfg).problem)

    def test_empty_trajectory_rejected(self, toy_cfg, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        assert main(["verify", "--config", str(toy_cfg), str(csv)]) == EXIT_ERROR

    def test_declared_window_is_not_trusted(self, tmp_path, capsys):
        # z lowered by 0.005 on 0.5 < t < 0.6 leaves the stable band there;
        # a jump_flag column declaring that stretch a jump does not keep
        # verify from probing it, since the windows come from z
        config = CONFIG_DIR / "toy_convex.ini"
        main(["solve", "--config", str(config), "--out-dir", str(tmp_path)])
        csv = tmp_path / "toy_convex_trajectory.csv"
        csv.write_text(_edit_rows(csv.read_text(), {
            "z_1": lambda t, z: z - 0.005 if 0.5 < t < 0.6 else z,
            "jump_flag": lambda t, f: 1.0 if 0.5 < t <= 0.6 else f,
        }))
        capsys.readouterr()
        assert main(["verify", "--config", str(config), str(csv)]) == EXIT_FAIL
        assert "verdict_stability = false" in capsys.readouterr().out

    @pytest.mark.parametrize("config", ["damage1d.ini", "delamination0d.ini"])
    def test_zeroed_jump_flags_keep_the_certificate(self, config, tmp_path, capsys):
        config = CONFIG_DIR / config
        assert main(["solve", "--config", str(config), "--out-dir", str(tmp_path)]) == EXIT_PASS
        solved = capsys.readouterr().out
        assert "jump_count = 1" in solved
        (csv,) = tmp_path.glob("*_trajectory.csv")
        csv.write_text(_edit_rows(csv.read_text(), {"jump_flag": lambda t, f: 0.0}))
        assert main(["verify", "--config", str(config), str(csv)]) == EXIT_PASS
        assert capsys.readouterr().out == solved

    def test_one_node_trajectory_verifies(self, tmp_path, capsys):
        # a single node has no steps, so the detector finds no jump
        config = CONFIG_DIR / "delamination0d.ini"
        main(["solve", "--config", str(config), "--out-dir", str(tmp_path)])
        csv = tmp_path / "delamination0d_trajectory.csv"
        csv.write_text("\n".join(csv.read_text().splitlines()[:3]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", str(config), str(csv)]) == EXIT_PASS
        assert "jump_count = 0" in capsys.readouterr().out

    def test_constant_load_keeps_state(self, tmp_path):
        p = tmp_path / "const.ini"
        p.write_text(TOY_CONFIG.replace("ell = 0, 2", "ell = 0, 0").replace(
            "initial_z = 0.0", "initial_z = 0.3"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out-dir", str(out)]) == EXIT_PASS
        run = load_config(p)
        traj = read_trajectory_csv(out / "toy_trajectory.csv", run.problem)
        assert traj.Z[:, 0] == pytest.approx(np.full(len(traj.times), 0.3))


class TestSweep:
    def test_tau_sweep_report(self, toy_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", str(toy_cfg), "--out-dir", str(out),
            "--axis", "tau", "--values", "0.04,0.02,0.01",
        ])
        assert rc == EXIT_PASS
        text = (out / "toy_sweep_tau.csv").read_text().splitlines()
        assert len(text) == 5  # version, header, three rows
        balances = [float(ln.split(",")[3]) for ln in text[2:]]
        assert balances[-1] < balances[0]

    def test_tau_not_dividing_the_span_fails_its_run(self, toy_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", str(toy_cfg), "--out-dir", str(out),
            "--axis", "tau", "--values", "0.3,0.02",
        ])
        assert rc == EXIT_FAIL
        assert "tau=0.3: tau = 0.3 does not divide" in capsys.readouterr().err
        rows = (out / "toy_sweep_tau.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[0]) for r in rows] == [0.02]

    def test_needs_two_values(self, toy_cfg, tmp_path):
        rc = main([
            "sweep", "--config", str(toy_cfg), "--out-dir", str(tmp_path),
            "--axis", "tau", "--values", "0.01",
        ])
        assert rc == EXIT_ERROR

    def test_non_finite_k_fails_its_run(self, tmp_path, capsys):
        # each non-finite penalty is refused by the model, naming 'k'; the
        # finite run keeps its row
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", str(CONFIG_DIR / "delamination0d.ini"),
            "--out-dir", str(out), "--axis", "k", "--values", "4,inf,nan",
        ])
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1] for line in err] == [" k=inf", " k=nan"]
        assert all(line.startswith("sweep run failed: ") and "'k'" in line for line in err)
        rows = (out / "delamination0d_sweep_k.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[0]) for r in rows] == [4.0]

    def test_k_axis_requires_delamination(self, toy_cfg, tmp_path):
        rc = main([
            "sweep", "--config", str(toy_cfg), "--out-dir", str(tmp_path),
            "--axis", "k", "--values", "4,16",
        ])
        assert rc == EXIT_ERROR


class TestJumpCost:
    def test_identical_endpoints(self, delam_cfg, tmp_path):
        out = tmp_path / "out"
        for t in ("0.5", "0", "1"):  # [0, horizon], its ends included
            rc = main([
                "jumpcost", "--config", str(delam_cfg), "--out-dir", str(out),
                "--t", t, "--z-minus", "1.0", "--z-plus", "1.0",
            ])
            assert rc == EXIT_PASS
            text = (out / "delam_jumpcost.txt").read_text()
            assert "lower = 0" in text
            assert "upper = 0" in text
            assert "feasible = true" in text

    def test_forbidden_direction_reports_infeasible(self, delam_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "jumpcost", "--config", str(delam_cfg), "--out-dir", str(out),
            "--t", "0.5", "--z-minus", "0.0", "--z-plus", "1.0",
        ])
        assert rc == EXIT_FAIL
        assert "feasible = false" in (out / "delam_jumpcost.txt").read_text()

    def test_witness_chain_written(self, delam_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "jumpcost", "--config", str(delam_cfg), "--out-dir", str(out),
            "--t", "0.9", "--z-minus", "1.0", "--z-plus", "0.0",
        ])
        assert rc == EXIT_PASS
        chain = (out / "delam_jumpcost_chain.csv").read_text().splitlines()
        assert chain[0] == "# risolve-csv v1"
        assert float(chain[2].split(",")[0]) == pytest.approx(1.0)
        assert float(chain[-1].split(",")[0]) == pytest.approx(0.0)

    def test_wrong_dimension_rejected(self, delam_cfg, tmp_path):
        rc = main([
            "jumpcost", "--config", str(delam_cfg), "--out-dir", str(tmp_path),
            "--t", "0.5", "--z-minus", "1.0,0.5", "--z-plus", "0.0,0.0",
        ])
        assert rc == EXIT_ERROR

    @pytest.mark.parametrize(
        "t, z_minus, z_plus, argument",
        [
            ("nan", "1.0", "0.0", "--t"),
            ("inf", "1.0", "0.0", "--t"),
            ("-5", "1.0", "0.0", "--t"),
            ("1.5", "1.0", "0.0", "--t"),
            ("0.5", "nan", "0.0", "--z-minus"),
            ("0.5", "1.0", "inf", "--z-plus"),
            ("0.5", "1.0", "-inf", "--z-plus"),
            ("0.5", "2.0", "0.0", "--z-minus"),  # finite, outside the box [0, 1]
            ("0.5", "1.0", "-0.5", "--z-plus"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # no numpy warning escapes either
    def test_bad_arguments_rejected(self, delam_cfg, tmp_path, capsys, t, z_minus, z_plus,
                                    argument):
        out = tmp_path / "out"
        rc = main([
            "jumpcost", "--config", str(delam_cfg), "--out-dir", str(out),
            f"--t={t}", f"--z-minus={z_minus}", f"--z-plus={z_plus}",
        ])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argument} must")
        assert not (out / "delam_jumpcost.txt").exists()


@pytest.fixture(scope="module")
def counted_delam_solve(tmp_path_factory):
    """One solve of the shipped delamination config, with every residual and
    every jump-cost bound it computes recorded (a residual is a row of
    ``residual_rows``, which ``ResidualMemo.witness`` calls for one row
    through ``ResidualMemo.fill``)."""
    residuals, costs = [], []
    real_residual, real_cost = stability.residual_rows, jump.jump_cost

    def residual(problem, ts, Z):
        Z = np.asarray(Z, float).reshape(len(ts), -1)
        residuals.extend((id(problem), float(t), z.tobytes()) for t, z in zip(ts, Z))
        return real_residual(problem, ts, Z)

    def cost(problem, t, z_minus, z_plus, *args, **kwargs):
        costs.append((id(problem), float(t), z_minus.tobytes(), z_plus.tobytes()))
        return real_cost(problem, t, z_minus, z_plus, *args, **kwargs)

    out = tmp_path_factory.mktemp("delam")
    config = CONFIG_DIR / "delamination0d.ini"
    with pytest.MonkeyPatch.context() as mp:
        for module in (cli, jump, stability, verify):  # every binding
            if hasattr(module, "residual_rows"):
                mp.setattr(module, "residual_rows", residual)
            if hasattr(module, "jump_cost"):
                mp.setattr(module, "jump_cost", cost)
        rc = main(["solve", "--config", str(config), "--out-dir", str(out)])
    return rc, config, out, residuals, costs


class TestOnePricePerCommand:
    def test_each_residual_and_jump_priced_once(self, counted_delam_solve):
        rc, _, out, residuals, costs = counted_delam_solve
        assert rc == EXIT_PASS
        # the CSV's node residuals serve the certificate's node probes; a
        # node the scheme stayed at takes the step's gain and is not priced
        rows = (out / "delamination0d_trajectory.csv").read_text().splitlines()[2:]
        t, z = zip(*((float(r.split(",")[0]), float(r.split(",")[1])) for r in rows))
        stayed = {(t[n], np.array([z[n]]).tobytes())
                  for n in range(1, len(rows)) if z[n] == z[n - 1]}
        assert stayed
        priced = {key[1:] for key in residuals}
        assert len(priced) >= len(rows) - len(stayed)
        assert not priced & stayed
        assert len(residuals) == len(set(residuals))
        # one debonding jump taking one step: a single pair to price
        assert "jump_count = 1" in (out / "delamination0d_certificate.txt").read_text()
        assert len(costs) == 1

    def test_certificate_matches_library(self, counted_delam_solve):
        _, config, out, _, _ = counted_delam_solve
        run = load_config(config)
        disc = solve_incremental(run.problem, run.scheme)
        cert = verify_VE(disc.problem, disc, run.tol)
        expected = "\n".join(certificate_lines(cert)) + "\n"
        assert (out / "delamination0d_certificate.txt").read_text() == expected

    def test_e_solve_computes_each_residual_once(self, toy_cfg, tmp_path, monkeypatch):
        # the E certificate probes the uncorrected problem the CSV was priced on
        calls = []
        real_residual = stability.residual_rows

        def residual(problem, ts, Z):
            Z = np.asarray(Z, float).reshape(len(ts), -1)
            calls.extend((float(t), z.tobytes()) for t, z in zip(ts, Z))
            return real_residual(problem, ts, Z)

        for module in (cli, jump, stability, verify):  # every binding
            if hasattr(module, "residual_rows"):
                monkeypatch.setattr(module, "residual_rows", residual)
        assert main(["solve", "--config", str(toy_cfg), "--out-dir", str(tmp_path)]) == EXIT_PASS
        assert len(calls) == len(set(calls))


    @pytest.mark.parametrize(
        "argv, trajectories",
        [
            (["solve"], 1),
            (["sweep", "--axis", "tau", "--values", "0.04,0.02"], 2),
            (["verify", "{out}/toy_trajectory.csv"], 1),
        ],
        ids=["solve", "sweep", "verify"],
    )
    def test_jump_flags_computed_once_per_trajectory(self, toy_cfg, tmp_path, monkeypatch,
                                                     argv, trajectories):
        # the CSV writer and the balance read the run's one set of records
        assert main(["solve", "--config", str(toy_cfg), "--out-dir", str(tmp_path)]) == EXIT_PASS
        computed = []
        real = scheme.jump_records

        def counted(*args):
            computed.append(1)
            return real(*args)

        for module in (cli, scheme):  # every binding
            monkeypatch.setattr(module, "jump_records", counted)
        argv = [argv[0], "--config", str(toy_cfg), "--out-dir", str(tmp_path),
                *(a.format(out=tmp_path) for a in argv[1:])]
        assert main(argv) == EXIT_PASS
        assert len(computed) == trajectories


def test_shipped_delamination_csv_has_no_negative_zero(counted_delam_solve):
    # after debonding I(t, 0) = -a0 * 0 = -0.0, and the residual
    # I(t, z) - min(...) there is -0.0 - 0.0; it is written as 0
    _, _, out, _, _ = counted_delam_solve
    rows = (out / "delamination0d_trajectory.csv").read_text().splitlines()[2:]
    assert "-0" not in {f for row in rows for f in row.split(",")}


@pytest.mark.parametrize("config", ["plasticity0d.ini", "toy_convex.ini"])
def test_csv_energies_are_the_node_energies(config, tmp_path):
    # one energy call prices every node with the bits of its own call
    run = load_config(CONFIG_DIR / config)
    disc = solve_incremental(run.problem, run.scheme)
    write_trajectory_csv(tmp_path / "t.csv", disc)
    rows = (tmp_path / "t.csv").read_text().splitlines()[2:]
    col = cli._csv_columns(disc.problem).index("energy")
    got = np.array([float(row.split(",")[col]) for row in rows])
    expected = np.array([disc.problem.energy(float(t), u, z)
                         for t, u, z in zip(disc.times, disc.U, disc.Z)])
    assert len(rows) == 2001 and disc.problem.n_u == 0
    assert (got.view(np.int64) == expected.view(np.int64)).all()


def test_csv_residuals_are_priced_in_batches(tmp_path, monkeypatch):
    # 2,001 node residuals from a handful of batched objective calls: the
    # count grows with the number of chunks, not with the number of nodes
    run = load_config(CONFIG_DIR / "plasticity0d.ini")
    disc = solve_incremental(run.problem, run.scheme)
    batches = []
    real = reduced.step_objective

    def counted(problem, t, z_prev):
        f = real(problem, t, z_prev)

        def objective(pts):
            batches.append(np.shape(pts)[:-1])
            return f(pts)

        return objective

    monkeypatch.setattr(reduced, "step_objective", counted)
    write_trajectory_csv(tmp_path / "p.csv", disc)
    nodes = len(disc.times)
    # a chunk holds _ROW_POINTS objective points, 130 grid points a row
    chunks = -(-nodes // (reduced._ROW_POINTS // 130))
    assert nodes == 2001 and chunks <= nodes // 100
    # a chunk: staying put, its grid, the zoom levels, the snap
    assert 0 < len(batches) <= 20 * chunks
    assert max(shape[0] for shape in batches) > 100  # rows priced together


class TestFreedMemory:
    """``main`` keeps freed heap memory in the process (glibc's mallopt)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc setting")
    def test_repeated_solve_reuses_its_pages(self, tmp_path):
        # a fresh interpreter, so the test runner's own heap does not count;
        # with the heap's free top given back after every batch, the second
        # solve of damage1d.ini faults in some 53,000 pages, here a dozen
        code = (
            "import resource, sys\n"
            "from risolve import cli\n"
            f"argv = ['solve', '--config', 'configs/damage1d.ini', '--out-dir', {str(tmp_path)!r}]\n"
            "assert cli.main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert cli.main(argv) == 0\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(after - before, file=sys.stderr)\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        err = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, check=True,
        ).stderr
        assert int(err.strip()) < 1000

    @pytest.mark.parametrize("libc", ["missing", "without_mallopt"])
    def test_without_mallopt_main_runs_alike(self, tmp_path, monkeypatch, libc):
        argv = ["solve", "--config", str(CONFIG_DIR / "delamination0d.ini"), "--out-dir"]
        assert main([*argv, str(tmp_path / "a")]) == EXIT_PASS
        calls = []

        def no_mallopt(name, *args, **kwargs):
            calls.append(name)
            if libc == "missing":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
        cli._keep_freed_memory.cache_clear()  # main sets it once a process
        try:
            assert main([*argv, str(tmp_path / "b")]) == EXIT_PASS
        finally:
            cli._keep_freed_memory.cache_clear()
        assert calls == [None]
        cert = "delamination0d_certificate.txt"
        assert (tmp_path / "b" / cert).read_bytes() == (tmp_path / "a" / cert).read_bytes()
