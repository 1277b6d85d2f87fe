"""Say how two directories of outputs kept by ``digest_outputs.py --keep``
differ, field by field.

    python tools/digest_outputs.py --keep /tmp/out-a    # in one checkout
    python tools/digest_outputs.py --keep /tmp/out-b    # in the other
    python tools/compare_outputs.py /tmp/out-a /tmp/out-b

Each line of a file splits into fields at commas and whitespace.  A field
that parses as a float on both sides is numeric; any other field (a
verdict, ``rc=<code>`` of ``exit_code.txt``, a column name) is compared as
text.  For each file whose bytes differ it prints, per field name (its CSV
column, or the key of a ``key = value`` line), the largest |delta| of its
numeric fields and the line it is on, then every text field that differs,
and every line whose fields do not pair up.  A file on one side only is named.
Exit code 0 when every file has the same bytes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

_SPLIT = re.compile(r"[,\s]+")


def _fields(line: str) -> list[str]:
    return [f for f in _SPLIT.split(line.strip()) if f]


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def _delta(a: float, b: float) -> float:
    """|a - b|, 0 for equal infinities and nans, inf when only one side is
    finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare_file(a: str, b: str) -> list[str]:
    """The report lines of one file whose two versions are ``a`` and ``b``."""
    la, lb = a.splitlines(), b.splitlines()
    header: list[str] = []
    worst: dict[str, tuple[float, int]] = {}  # per field name, |delta| and line
    text = []
    if len(la) != len(lb):
        text.append(f"  {len(la)} lines -> {len(lb)} lines")
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        fx, fy = _fields(x), _fields(y)
        if not header and "," in x and not x.startswith("#"):
            header = fx  # a CSV's column names
        if x == y:
            continue
        if len(fx) != len(fy):
            text.append(f"  line {i}: {x!r} -> {y!r}")
            continue
        name = header if header and len(fx) == len(header) else None
        for j, (p, q) in enumerate(zip(fx, fy)):
            u, v = _number(p), _number(q)
            field = name[j] if name else fx[0]
            if u is None or v is None:
                if p != q:
                    named = f" ({field})" if field != p else ""
                    text.append(f"  line {i}{named}: {p} -> {q}")
            elif _delta(u, v) > worst.get(field, (0.0,))[0]:
                worst[field] = _delta(u, v), i
    out = [f"  {field}: max |delta| {d:.3g} at line {i}" for field, (d, i) in worst.items()]
    return out + text


def compare(dir_a: Path, dir_b: Path) -> int:
    names = sorted(
        {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
        | {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    )
    differ = 0
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            differ += 1
        elif a.read_bytes() != b.read_bytes():
            print(f"{name}:")
            for line in compare_file(a.read_text(), b.read_text()):
                print(line)
            differ += 1
    print(f"{differ} of {len(names)} files differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="outputs kept by digest_outputs.py --keep")
    ap.add_argument("b", type=Path, help="outputs to compare with them")
    args = ap.parse_args(argv)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
