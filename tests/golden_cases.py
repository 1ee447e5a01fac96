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
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from scipy.spatial.distance import cdist

from epkit import blas, cli, workers

ROOT = Path(__file__).resolve().parent / "golden"
ENVIRONMENT = "environment.json"

# every exact check fails, so the violations are dumped
FORCED = ((cli, "EXACT_TOL", -1.0),)


def cpus(n: int) -> tuple:
    """Patches under which a run sees n CPUs."""
    return ((workers, "available_cpus", lambda: n),)


GAUSS = ["gauss-check", "--fields", "6", "--samples", "10000", "--seed", "0"]


def cloud(n: int, dim: int = 2) -> np.ndarray:
    """n seeded points of the unit cube in dim dimensions; a larger n adds
    points after the first n."""
    return np.random.default_rng(0).uniform(size=(n, dim))


# the input files of the point-cloud suites, which run_case writes beside the
# case's tree: an argv entry that names one is replaced by its path.  Beside
# the 2-D cloud, the matrix pins 1-D (no hull, a window on the line), 3-D
# (the 3-D hull) and 4-D (no hull) clouds, and the 2-D cloud rescaled to
# 1e300, 1e-150 (a scale dudley accepts) and 1e-316 (subnormal)
INPUTS = {"cloud.csv": lambda: cloud(300), "fine.csv": lambda: cloud(400),
          "distances.csv": lambda: cdist(cloud(300), cloud(300)),
          "line.csv": lambda: cloud(300, 1), "cube.csv": lambda: cloud(300, 3),
          "cloud4.csv": lambda: cloud(300, 4),
          "huge.csv": lambda: cloud(300) * 1e300,
          "small.csv": lambda: cloud(300) * 1e-150,
          "subnormal.csv": lambda: cloud(300) * 1e-316}
CLOUD = ["--points", "cloud.csv", "--seed", "0"]
DUDLEY = ["dudley", *CLOUD, "--samples", "2000"]


def matrix(suite: str, names, *options) -> list:
    """Runs of suite with options on each named input file, in csv, each in
    the subdirectory of the file's stem."""
    return [(name.removesuffix(".csv"),
             [suite, "--points", name, "--seed", "0", *options], (), 0)
            for name in names]


# case -> runs of (subdirectory, argv, patches, exit code); each patch is an
# (object, attribute, value) that holds for that run alone
CASES = {
    "discrete_check": [
        ("csv", ["discrete-check", "--instances", "50", "--seed", "0"], (), 0),
        ("json", ["discrete-check", "--instances", "50", "--seed", "0",
                  "--format", "json"], (), 0),
        ("forced", ["discrete-check", "--instances", "3", "--seed", "3",
                    "--format", "json"], FORCED, 1),
    ],
    # the default cell, the linear rate grid (100 trials keep the case near
    # 0.2 s) and an l1 grid with d > n
    "regress": [
        ("csv", ["regress", "--seed", "0"], (), 0),
        ("json", ["regress", "--seed", "0", "--format", "json"], (), 0),
        ("grid", ["regress", "--grid", "64:8,128:8,256:8,512:8", "--trials", "100",
                  "--seed", "0"], (), 0),
        ("l1", ["regress", "--class", "l1", "--grid", "16:32,32:64", "--trials", "8",
                "--seed", "0"], (), 0),
    ],
    "cover": [
        ("csv", ["cover", *CLOUD], (), 0),
        ("json", ["cover", *CLOUD, "--format", "json"], (), 0),
        ("dist_matrix", ["cover", "--points", "distances.csv", "--dist-matrix",
                         "--seed", "0"], (), 0),
        *matrix("cover", ["line.csv", "cube.csv", "cloud4.csv", "huge.csv",
                          "subnormal.csv"]),
    ],
    "entropy": [
        ("csv", ["entropy", *CLOUD], (), 0),
        ("json", ["entropy", *CLOUD, "--format", "json"], (), 0),
        *matrix("entropy", ["line.csv", "cube.csv", "cloud4.csv", "huge.csv",
                            "subnormal.csv"]),
    ],
    # 2005 samples make one block of 5 modulo 8 rows, which multiplies every
    # point
    "dudley": [
        ("csv", DUDLEY, (), 0),
        ("json", [*DUDLEY, "--format", "json"], (), 0),
        ("refine", [*DUDLEY, "--refine", "fine.csv"], (), 0),
        ("samples2005", ["dudley", *CLOUD, "--samples", "2005"], (), 0),
        *matrix("dudley", ["line.csv", "cube.csv", "cloud4.csv", "small.csv"],
                "--samples", "2000"),
    ],
    "maurey": [
        ("csv", ["maurey", "--instances", "200", "--seed", "0"], (), 0),
        ("json", ["maurey", "--instances", "200", "--seed", "0", "--format", "json"],
         (), 0),
    ],
    # the field jobs run on one thread and on four: the pool's schedule must
    # not reach the report bytes
    "gauss_check": [
        ("cpus1", GAUSS, cpus(1), 0),
        ("cpus4", GAUSS, cpus(4), 0),
        ("json", [*GAUSS, "--format", "json"], cpus(4), 0),
    ],
}


def blas_kernel() -> str:
    """The kernel set OpenBLAS picked at run time (the wheel is built with
    DYNAMIC_ARCH, and gemv and gemm bits depend on the kernel), read from
    numpy's bundled library; "unknown" where that library or its symbol is
    absent."""
    corename = blas.bundled_function("scipy_openblas_get_corename64_")
    if corename is None:
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


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
    with tempfile.TemporaryDirectory() as inputs:
        paths = {arg: str(Path(inputs) / arg) for _, argv, _, _ in CASES[case]
                 for arg in argv if arg in INPUTS}
        for name, path in paths.items():
            np.savetxt(path, INPUTS[name](), delimiter=",", fmt="%.17g")
        for sub, argv, patches, expected in CASES[case]:
            with contextlib.ExitStack() as stack:
                for target, name, value in patches:
                    stack.enter_context(mock.patch.object(target, name, value))
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                argv = [paths.get(arg, arg) for arg in argv]
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
