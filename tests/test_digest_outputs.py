"""Smoke test of tools/digest_outputs.py, the byte-identity check, and of
tools/compare_outputs.py, which reads the outputs it keeps."""

import hashlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from risolve.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "delamination0d.ini"


def _tool(name, *args, check=True):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *args],
        capture_output=True, text=True, timeout=300,
    )
    if check:
        assert run.returncode == 0, run.stderr
    return run


def _digest(*args):
    return _tool("digest_outputs.py", *args).stdout


@pytest.fixture(scope="module")
def kept(tmp_path_factory):
    """The digests of the config's outputs, printed while keeping them, and
    the directory they are kept in."""
    keep = tmp_path_factory.mktemp("kept") / "out"
    return _digest(str(CONFIG), "--seeds", "", "--keep", str(keep)), keep


def test_digests_every_output_of_one_config(tmp_path, capsys, kept):
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
        "delamination0d.ini solve tau=0.001 stdout rc=0",
        "delamination0d.ini solve tau=0.001 delamination0d_tau0.001_certificate.txt",
        "delamination0d.ini solve tau=0.001 delamination0d_tau0.001_trajectory.csv",
    ]
    # the digests are of the bytes the command line writes, and no
    # temporary path leaks into them
    assert cli_main(["solve", "--config", str(CONFIG), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    csv = (tmp_path / "delamination0d_trajectory.csv").read_bytes()
    assert lines[2].startswith(hashlib.sha256(csv).hexdigest())
    # keeping the outputs changes no digest, and each digest is of the
    # file kept under its command's label
    assert kept[0] == text
    for line in lines:
        label, name = line[66:].rsplit(" ", 1)
        if name.startswith("rc="):
            label, name = label.removesuffix(" stdout"), "stdout.txt"
        path = kept[1] / label.replace(" ", "_") / name
        assert line.startswith(hashlib.sha256(path.read_bytes()).hexdigest())
    assert (kept[1] / "delamination0d.ini_solve" / "exit_code.txt").read_text() == "rc=0\n"


def test_compare_names_numeric_and_text_differences(tmp_path, kept):
    keep = kept[1]
    same = _tool("compare_outputs.py", str(keep), str(keep))
    files = sum(1 for p in keep.rglob("*") if p.is_file())
    assert same.stdout == f"0 of {files} files differ\n"
    other = tmp_path / "other"
    shutil.copytree(keep, other)
    solve = other / "delamination0d.ini_solve"
    csv = solve / "delamination0d_trajectory.csv"
    rows = csv.read_text().splitlines()
    header = rows[1].split(",")
    assert rows[3].split(",")[1] == "1"  # z_1 of the third node
    cells = rows[3].split(",")
    cells[1] = "1.0000000025"
    rows[3] = ",".join(cells)
    csv.write_text("\n".join(rows) + "\n")
    cert = solve / "delamination0d_certificate.txt"
    cert.write_text(cert.read_text().replace("passed = true", "passed = false"))
    (solve / "exit_code.txt").write_text("rc=2\n")
    (solve / "stdout.txt").unlink()
    run = _tool("compare_outputs.py", str(keep), str(other), check=False)
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        "delamination0d.ini_solve/delamination0d_certificate.txt:",
        "  line 12 (passed): true -> false",
        "delamination0d.ini_solve/delamination0d_trajectory.csv:",
        f"  {header[1]}: max |delta| 2.5e-09 at line 4",
        "delamination0d.ini_solve/exit_code.txt:",
        "  line 1: rc=0 -> rc=2",
        f"delamination0d.ini_solve/stdout.txt: only in {keep}",
        f"4 of {files} files differ",
    ]
