#!/usr/bin/env python3
"""Record what a fixed list of CLI invocations writes, for diffing commits.

Each invocation runs through `lienardqm.cli.main` from its own directory
OUTDIR/<case>/ and leaves there its output file, `stdout`, `stderr` and
`exit_code`. An exception that escapes `main` is recorded as a Python
process would report it, exit code 1, with only its type and message in
`stderr`, so the record holds no file paths. Two checkouts are compared
with one `diff -r`:

Run:  python benchmarks/byte_identity.py OUTDIR
      (in each checkout, then: diff -r OUTDIR_A OUTDIR_B)
"""

import contextlib
import io
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lienardqm.cli import main  # noqa: E402

CASES = {
    "verify-default": "verify",
    "verify-alpha19": "verify --alpha 19 --gamma 1",
    "verify-offgrid": "verify --omega 0.99 --k 1.01 --alpha 2 --gamma 9.5",
    "verify-json": "verify --format json",
    "verify-k0.3": "verify --k 0.3",
    "spectrum-csv": "spectrum --alpha 19 --gamma 1",
    "spectrum-json": "spectrum --alpha 19 --gamma 1 --format json",
    "classical-csv": "classical",
    "classical-json": "classical --amplitude 1 --step 2e-4 --format json",
    "wavefn": "wavefn --alpha 19 --gamma 1 --level 2",
    "wavefn-k0": "wavefn --k 0 --level 3",
    "limit": "limit",
    "sweep": "sweep --omega-values 2,1 --k-values 1,0.5 --alpha 19 --gamma 1",
    "verify-k-0": "verify --k 0",
    "verify-omega-1e50": "verify --omega 1e50",
    "wavefn-samples-0": "wavefn --samples 0",
    "wavefn-json": "wavefn --format json",
    "wavefn-k0-json": "wavefn --k 0 --format json",
    "limit-json": "limit --format json",
    "sweep-2d-json": "sweep --omega-values 2,1,0.5 --k-values 1,0.5 "
                     "--alpha-values 0,19 --gamma 1 --format json",
    "classical-45k": "classical --step 2e-4 --t-end 9",
    "spectrum-n60-json": "spectrum --n-max 60 --format json",
    "classical-alpha": "classical --alpha 1",
    "limit-k": "limit --k 1",
    "limit-n-max-negative": "limit --n-max -1 --a-values 1",
    "verify-grid-n": "verify --grid-n 6000",
    "verify-h-p": "verify --h-p 0",
    "limit-n-max-6": "limit --n-max 6",
    "verify-operator-window": "verify --omega 50 --k 1 --hbar 1e4",
    "verify-k1.5": "verify --k 1.5",
    "verify-lam-4860": "verify --omega 30 --k 1 --hbar 50",
    "wavefn-level-200": "wavefn --level 200",
    "limit-a-1e154": "limit --a-values 1e154",
    "wavefn-hbar-1e200": "wavefn --hbar 1e200",
    "verify-k0.1": "verify --k 0.1",
    "verify-omega2-k2": "verify --omega 2 --k 2",
    "sweep-3d-dup-zero": "sweep --omega-values 2,1,2 --k-values 0.5,1 "
                         "--alpha-values=0,-0,19,0 --gamma 1",
    "sweep-3d-dup-zero-json": "sweep --omega-values 2,1,2 --k-values 0.5,1 "
                              "--alpha-values=0,-0,19,0 --gamma 1 "
                              "--format json",
    "sweep-k-values-1-0": "sweep --k-values 1,0",
    "sweep-omega-values-1--1": "sweep --omega-values 1,-1",
    "sweep-alpha-bound": "sweep --alpha-values=-9,-200 --gamma 9",
    "limit-a-1e-300": "limit --a-values 1e-300",
    "wavefn-k-1e-30": "wavefn --k 1e-30 --level 1",
    "wavefn-k0-level-20": "wavefn --k 0 --level 20",
    "classical-amplitude-1e-200": "classical --amplitude 1e-200",
    "sweep-k-1e50-1e-50": "sweep --k-values 1e50,1e-50",
    "wavefn-k0-level-4": "wavefn --k 0 --level 4",
    "wavefn-k-1e-9": "wavefn --k 1e-9 --level 0",
    "verify-box-high-lam": "verify --omega 1.03 --k 0.97 --alpha 19 --gamma 1",
    "verify-omega4-k8": "verify --omega 4 --k 8",
    "verify-hbar4-k0.5": "verify --hbar 4 --k 0.5",
    "verify-a100-r-0.99": "verify --k 0.3 --alpha -9900 --gamma 1",
    "wavefn-k0-20001-json": "wavefn --k 0 --level 3 --samples 20001 "
                            "--format json",
    "classical-100k-json": "classical --amplitude 1 --step 1e-4 --t-end 10 "
                           "--format json",
    "classical-k0-amplitude-1e200": "classical --k 0 --amplitude 1e200",
    "classical-amplitude-1e299": "classical --k 1e-300 --amplitude 1e299",
}


def run_case(case_dir, argv):
    """Run one invocation inside case_dir and record its streams and code."""
    case_dir.mkdir(parents=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(case_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # what an uncaught error would print
                err.write("".join(traceback.format_exception_only(exc)))
                code = 1
    finally:
        os.chdir(cwd)
    (case_dir / "stdout").write_text(out.getvalue())
    (case_dir / "stderr").write_text(err.getvalue())
    (case_dir / "exit_code").write_text(f"{code}\n")


def main_cli(argv):
    if len(argv) != 1:
        print("usage: byte_identity.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    for name, command in CASES.items():
        fmt = "json" if "--format json" in command else "csv"
        run_case(outdir / name, command.split() + ["--output", f"out.{fmt}"])
    return 0


if __name__ == "__main__":
    sys.exit(main_cli(sys.argv[1:]))
