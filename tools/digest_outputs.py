"""Print a sha256 digest of every output of the shipped configs and of the
perfbench workloads, so two checkouts can be compared byte for byte.

    python tools/digest_outputs.py                           # configs/*.ini, seeds 0,1,2
    python tools/digest_outputs.py configs/damage1d.ini --seeds 0
    python tools/digest_outputs.py configs/delamination0d.ini --seeds ""
    python tools/digest_outputs.py --keep /tmp/out  # also save every output

Each config gets ``solve``, ``verify`` of the CSV it wrote, a ``sweep``
over tau = 2 tau0, tau0 (tau0 the config's own) and a ``jumpcost`` at
t = horizon from the first state of its solve CSV to the last.  Then a
copy of the config with ``scheme = E`` (outputs prefixed ``<prefix>_E``)
gets ``solve`` and ``verify``, and the config itself a BV
``sweep`` over epsilon = 20 tau0, 40 tau0 (epsilon/tau >= 10, so the BV
scheme does not warn) and a ``sweep`` over mu = 0.5, 2.0.  A config named
in ``EXTRA_TAUS`` also gets a ``solve`` of a copy at each tau listed there
(outputs prefixed ``<prefix>_tau<tau>``).  Each seed gets
one round of every operation of the three perfbench workloads, built by
``perfbench/workloads.py`` (imported, never changed).
Every command runs through ``risolve.cli.main`` of the checkout this script
sits in, with its outputs in a temporary directory.  One line per captured
stdout (with the exit code) and per output file, after the command that
wrote or changed it:

    <sha256>  <label>

Run the script in the parent checkout and in the change, and diff the two
outputs: no difference means every CSV, certificate and stdout kept its bytes.
With ``--keep DIR`` each output is also saved as it is digested, under
``DIR/<label>/`` (the label's spaces as ``_``): every file a command wrote or
changed, its stdout as ``stdout.txt`` and its exit code as ``exit_code.txt``
(``rc=<code>``).  ``tools/compare_outputs.py`` then says how two such
directories differ.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = "0,1,2"
# per config, the taus of its extra solves: delamination0d.ini at
# tau = 1e-3 stays at z = 1 for 662 steps before its jump at t = 0.662,
# the one searched stationary stretch longer than a chunk of 504 rows
EXTRA_TAUS = {"delamination0d.ini": [1e-3]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Digester:
    """Runs CLI commands in one directory and prints the digests of their
    stdout and of the files each one wrote or changed; with a ``keep``
    directory, saves each of them there too."""

    def __init__(self, cli_main, out: Path, keep: Path | None = None):
        self.cli_main = cli_main
        self.out = out
        self.keep = keep
        self.seen: dict[str, str] = {}

    def _kept(self, label: str) -> Path | None:
        if self.keep is None:
            return None
        path = self.keep / label.replace(" ", "_")
        path.mkdir(parents=True, exist_ok=True)
        return path

    def files(self, label: str) -> None:
        kept = self._kept(label)
        for path in sorted(self.out.iterdir()):
            digest = _sha(path.read_bytes())
            if self.seen.get(path.name) != digest:
                self.seen[path.name] = digest
                print(f"{digest}  {label} {path.name}")
                if kept is not None:
                    shutil.copyfile(path, kept / path.name)

    def run(self, label: str, argv: list[str]) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli_main(argv)
        print(f"{_sha(buf.getvalue().encode())}  {label} stdout rc={rc}")
        kept = self._kept(label)
        if kept is not None:
            (kept / "stdout.txt").write_text(buf.getvalue())
            (kept / "exit_code.txt").write_text(f"rc={rc}\n")
        self.files(label)


def digest_config(cli_main, load_config, config: Path, keep: Path | None) -> None:
    name = config.name
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run = load_config(config)
        base = ["--config", str(config), "--out-dir", tmp]
        dig = Digester(cli_main, out, keep)
        dig.run(f"{name} solve", ["solve", *base])
        csv = out / f"{run.prefix}_trajectory.csv"
        dig.run(f"{name} verify", ["verify", *base, str(csv)])
        tau = run.scheme.tau
        dig.run(f"{name} sweep",
                ["sweep", *base, "--axis", "tau", "--values", f"{2 * tau!r},{tau!r}"])
        n_z = run.problem.n_z
        rows = csv.read_text().splitlines()
        first, last = (rows[i].split(",")[1 : 1 + n_z] for i in (2, -1))
        dig.run(f"{name} jumpcost",
                ["jumpcost", *base, "--t", repr(run.problem.horizon),
                 "--z-minus", ",".join(first), "--z-plus", ",".join(last)])
        with tempfile.TemporaryDirectory() as cfg_dir:
            config_e = Path(cfg_dir) / name
            prefix_e = f"{run.prefix}_E"
            _write_config(config, config_e, prefix_e, scheme="E")
            base_e = ["--config", str(config_e), "--out-dir", tmp]
            dig.run(f"{name} solve E", ["solve", *base_e])
            csv_e = out / f"{prefix_e}_trajectory.csv"
            dig.run(f"{name} verify E", ["verify", *base_e, str(csv_e)])
        dig.run(f"{name} sweep epsilon",
                ["sweep", *base, "--axis", "epsilon",
                 "--values", f"{20 * tau!r},{40 * tau!r}"])
        dig.run(f"{name} sweep mu", ["sweep", *base, "--axis", "mu", "--values", "0.5,2.0"])
        for tau_x in EXTRA_TAUS.get(name, []):
            with tempfile.TemporaryDirectory() as cfg_dir:
                config_x = Path(cfg_dir) / name
                _write_config(config, config_x, f"{run.prefix}_tau{tau_x!r}", tau=repr(tau_x))
                dig.run(f"{name} solve tau={tau_x!r}",
                        ["solve", "--config", str(config_x), "--out-dir", tmp])


def _write_config(config: Path, dest: Path, prefix: str, **scheme: str) -> None:
    """Write ``config`` to ``dest`` with the keys and values ``scheme`` set
    in its scheme section and its outputs prefixed ``prefix``."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    cp.read(config)
    for section in ("scheme", "output"):
        if not cp.has_section(section):
            cp.add_section(section)
    cp["scheme"].update(scheme)
    cp["output"]["prefix"] = prefix
    with open(dest, "w") as fh:
        cp.write(fh)


def digest_workload(cli_main, build, name: str, seed: int, keep: Path | None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        wl = build(seed, out)
        dig = Digester(cli_main, out, keep)
        dig.files(f"{name} seed {seed} input")
        for i, op in enumerate(wl.ops):
            dig.run(f"{name} seed {seed} op {i} {op.kind}", op.argv)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path,
                    help="INI configs (default: configs/*.ini of this checkout)")
    ap.add_argument("--seeds", default=SEEDS,
                    help=f"comma-separated perfbench seeds, empty for none (default {SEEDS})")
    ap.add_argument("--keep", type=Path, metavar="DIR",
                    help="also save every output under DIR (a new directory), "
                         "one directory per command")
    args = ap.parse_args(argv)
    keep = args.keep.resolve() if args.keep else None
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    configs = args.configs or sorted((ROOT / "configs").glob("*.ini"))

    # one BLAS thread, as perfbench/run.py runs the workloads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from risolve.cli import load_config, main as cli_main

    for config in configs:
        digest_config(cli_main, load_config, config.resolve(), keep)
    if seeds:
        sys.dont_write_bytecode = True  # leave perfbench/ as it is
        import workloads

        for name, build in workloads.WORKLOADS.items():
            for seed in seeds:
                digest_workload(cli_main, build, name, seed, keep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
