"""Golden report files: fixed suite runs whose every output byte is committed
under ``tests/golden/<case>/``, beside the environment that wrote them.

``tests/test_golden.py`` reruns each case and compares bytes.  A change that
means to move report values regenerates the files, from the repository
root, and commits them; the diff lists the old and new values:

    PYTHONPATH=src python tests/golden_cases.py --write
"""

import argparse
import contextlib
import csv
import ctypes
import importlib.metadata
import io
import json
import platform
import shutil
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from epkit import cli

ROOT = Path(__file__).resolve().parent / "golden"
ENVIRONMENT = "environment.json"

# case -> runs of (subdirectory, argv, forced, exit code); a forced run sets
# cli.EXACT_TOL to -1, so every exact check fails and the violations are
# dumped
CASES = {
    "discrete_check": [
        ("csv", ["discrete-check", "--instances", "50", "--seed", "0"], False, 0),
        ("json", ["discrete-check", "--instances", "50", "--seed", "0",
                  "--format", "json"], False, 0),
        ("forced", ["discrete-check", "--instances", "3", "--seed", "3",
                    "--format", "json"], True, 1),
    ],
    # the default cell, the linear rate grid (100 trials keep the case near
    # 0.2 s) and an l1 grid with d > n
    "regress": [
        ("csv", ["regress", "--seed", "0"], False, 0),
        ("json", ["regress", "--seed", "0", "--format", "json"], False, 0),
        ("grid", ["regress", "--grid", "64:8,128:8,256:8,512:8", "--trials", "100",
                  "--seed", "0"], False, 0),
        ("l1", ["regress", "--class", "l1", "--grid", "16:32,32:64", "--trials", "8",
                "--seed", "0"], False, 0),
    ],
}


def blas_kernel() -> str:
    """The kernel set OpenBLAS picked at run time (the wheel is built with
    DYNAMIC_ARCH, and gemv and gemm bits depend on the kernel), read from
    numpy's bundled library; "unknown" where that library or its symbol is
    absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(path)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment() -> dict:
    """What decides the bits of a report: what perfbench/child.py records,
    and the BLAS kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_kernel": blas_kernel()}


def run_case(case: str, out: Path) -> list:
    """Write every file of the case under out; the exit code of each run
    against the expected one, as (got, expected) pairs."""
    codes = []
    for sub, argv, forced, expected in CASES[case]:
        patch = (mock.patch.object(cli, "EXACT_TOL", -1.0) if forced
                 else contextlib.nullcontext())
        with patch, contextlib.redirect_stdout(io.StringIO()):
            codes.append((cli.main([*argv, "--out", str(out / sub)]), expected))
    return codes


def _files(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file() and p.name != ENVIRONMENT)


def _where(expected: str, got: str, is_csv: bool) -> str:
    """Row and column of the first difference of two texts."""
    old, new = expected.splitlines(), got.splitlines()
    for row, (a, b) in enumerate(zip(old, new), 1):
        if a == b:
            continue
        if is_csv:
            header = next(csv.reader([old[0]]))
            cells_a, cells_b = next(csv.reader([a])), next(csv.reader([b]))
            for col, (x, y) in enumerate(zip(cells_a, cells_b)):
                if x != y:
                    name = header[col] if col < len(header) else "?"
                    return (f"row {row}, column {col + 1} ({name}): "
                            f"expected {x!r}, got {y!r}")
            return f"row {row}: expected {len(cells_a)} cells, got {len(cells_b)}"
        col = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                   min(len(a), len(b)))
        return f"line {row}, column {col + 1}: expected {a!r}, got {b!r}"
    if len(old) != len(new):
        return f"expected {len(old)} lines, got {len(new)}"
    return "line endings differ"


def first_mismatch(expected: Path, got: Path):
    """None when the two trees hold the same files byte for byte, else the
    first differing file with its row and column."""
    names_a, names_b = _files(expected), _files(got)
    for name in names_a:
        if name not in names_b:
            return f"{name}: not written"
        a, b = (expected / name).read_bytes(), (got / name).read_bytes()
        if a != b:
            text_a = a.decode("utf-8", "replace")
            text_b = b.decode("utf-8", "replace")
            return f"{name}: {_where(text_a, text_b, name.endswith('.csv'))}"
    extra = [name for name in names_b if name not in names_a]
    return f"{extra[0]}: written, but not a golden file" if extra else None


def environment_note(case: str) -> str:
    """Empty on the environment that wrote the case, else a sentence saying
    which environments differ."""
    recorded = json.loads((ROOT / case / ENVIRONMENT).read_text())
    current = environment()
    if recorded == current:
        return ""
    return (f"; the golden files were written on {recorded} and this run is on "
            f"{current}, so a difference may be rounding of this environment")


def write(case: str) -> None:
    target = ROOT / case
    if target.exists():
        shutil.rmtree(target)
    codes = run_case(case, target)
    if any(got != expected for got, expected in codes):
        raise SystemExit(f"{case}: exit codes {codes} (got, expected)")
    (target / ENVIRONMENT).write_text(
        json.dumps(environment(), indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate every golden case.")
    parser.add_argument("--write", action="store_true", required=True,
                        help="overwrite the files under tests/golden/")
    parser.parse_args(argv)
    for case in CASES:
        write(case)
        print(f"{case}: written to {ROOT / case}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
