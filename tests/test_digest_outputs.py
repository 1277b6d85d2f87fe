"""Smoke test of tools/digest_outputs.py, the byte-identity check."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from risolve.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "delamination0d.ini"


def _digest(*args):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest_outputs.py"), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_digests_every_output_of_one_config(tmp_path, capsys):
    text = _digest(str(CONFIG), "--seeds", "")
    lines = text.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    labels = [line[66:] for line in lines]
    assert labels == [
        "delamination0d.ini solve stdout rc=0",
        "delamination0d.ini solve delamination0d_certificate.txt",
        "delamination0d.ini solve delamination0d_trajectory.csv",
        "delamination0d.ini verify stdout rc=0",
        "delamination0d.ini verify delamination0d_verify_certificate.txt",
        "delamination0d.ini sweep stdout rc=0",
        "delamination0d.ini sweep delamination0d_sweep_tau.csv",
        "delamination0d.ini jumpcost stdout rc=0",
        "delamination0d.ini jumpcost delamination0d_jumpcost.txt",
        "delamination0d.ini jumpcost delamination0d_jumpcost_chain.csv",
        "delamination0d.ini solve E stdout rc=0",
        "delamination0d.ini solve E delamination0d_E_certificate.txt",
        "delamination0d.ini solve E delamination0d_E_trajectory.csv",
        "delamination0d.ini verify E stdout rc=0",
        "delamination0d.ini verify E delamination0d_E_verify_certificate.txt",
        "delamination0d.ini sweep epsilon stdout rc=0",
        "delamination0d.ini sweep epsilon delamination0d_sweep_epsilon.csv",
        "delamination0d.ini sweep mu stdout rc=0",
        "delamination0d.ini sweep mu delamination0d_sweep_mu.csv",
    ]
    # the digests are of the bytes the command line writes, and no
    # temporary path leaks into them
    assert cli_main(["solve", "--config", str(CONFIG), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    csv = (tmp_path / "delamination0d_trajectory.csv").read_bytes()
    assert lines[2].startswith(hashlib.sha256(csv).hexdigest())
    assert _digest(str(CONFIG), "--seeds", "") == text
