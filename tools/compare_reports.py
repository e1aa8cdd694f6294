"""Compare the outputs of every shipped config and demo between two checkouts.

Usage: python tools/compare_reports.py BASE HEAD

BASE and HEAD are checkout directories.  Each ``configs/*.json`` of either
side runs through that side's CLI (``python -m cascadim.cli`` with
``PYTHONPATH=<side>/src``) with ``--plot``.  The exit codes and the bytes of
``report.json`` (with its ``runtime_s`` masked), ``scales.csv`` and
``plot.svg`` are compared; a ``report.json`` that differs is named with
the top-level keys whose values differ.  Each ``demos/*.py`` of either side
runs with that side's package, and the exit codes and stdout are compared.
One line is printed per difference; the exit code is 1 if any differ, else 0.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("report.json", "scales.csv", "plot.svg")
_RUNTIME = re.compile(rb'"runtime_s": [^,\n]+')


def _run(side: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run python with ``args`` against the package of checkout ``side``."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True)


def run_config(side: Path, config: Path, out: Path) -> int:
    """Run ``config`` through the CLI of checkout ``side`` into ``out``; return the exit code."""
    experiment = json.loads(config.read_text())["experiment"]
    args = ["-m", "cascadim.cli", experiment, "--config", str(config), "--out", str(out), "--plot"]
    return _run(side, args, side).returncode


def read_output(path: Path) -> bytes | None:
    if not path.exists():
        return None
    data = path.read_bytes()
    return _RUNTIME.sub(b'"runtime_s": null', data) if path.name == "report.json" else data


def differing_keys(base: bytes, head: bytes) -> list[str]:
    """The top-level keys whose values differ between two ``report.json`` texts."""
    b, h = json.loads(base), json.loads(head)
    return [key for key in {**b, **h} if key not in b or key not in h or b[key] != h[key]]


def compare(base: Path, head: Path, scratch: Path) -> list[str]:
    """One line per difference between the two checkouts' config outputs."""
    names = sorted({p.name for side in (base, head) for p in (side / "configs").glob("*.json")})
    diffs = []
    for name in names:
        results = []
        for label, side in (("BASE", base), ("HEAD", head)):
            config = side / "configs" / name
            if not config.exists():
                diffs.append(f"{name}: no such config in {label}")
                break
            out = scratch / label / config.stem
            results.append((run_config(side, config, out), out))
        if len(results) < 2:
            continue
        (code_b, out_b), (code_h, out_h) = results
        if code_b != code_h:
            diffs.append(f"{name}: exit code {code_b} in BASE, {code_h} in HEAD")
        for output in OUTPUTS:
            got_b, got_h = read_output(out_b / output), read_output(out_h / output)
            if got_b != got_h:
                what = "missing in BASE" if got_b is None else "missing in HEAD" if got_h is None else "differs"
                if what == "differs" and output == "report.json":
                    what += " in " + (", ".join(differing_keys(got_b, got_h)) or "layout only")
                diffs.append(f"{name}: {output} {what}")
    return diffs


def compare_demos(base: Path, head: Path, scratch: Path) -> list[str]:
    """One line per demo whose exit code or stdout differs between the two checkouts."""
    names = sorted({p.name for side in (base, head) for p in (side / "demos").glob("*.py")})
    diffs = []
    for name in names:
        runs = []
        for label, side in (("BASE", base), ("HEAD", head)):
            script = side / "demos" / name
            if not script.exists():
                diffs.append(f"demos/{name}: no such demo in {label}")
                break
            cwd = scratch / "demos" / label  # demos may write files where they run
            cwd.mkdir(parents=True, exist_ok=True)
            runs.append(_run(side, [str(script)], cwd))
        if len(runs) < 2:
            continue
        (code_b, out_b), (code_h, out_h) = ((r.returncode, r.stdout) for r in runs)
        if code_b != code_h:
            diffs.append(f"demos/{name}: exit code {code_b} in BASE, {code_h} in HEAD")
        elif out_b != out_h:
            diffs.append(f"demos/{name}: stdout differs")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory() as scratch:
        diffs = compare(base, head, Path(scratch)) + compare_demos(base, head, Path(scratch))
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
