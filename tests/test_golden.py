"""Byte identity as a committed check: each golden case reruns its suites and
must write exactly the files under tests/golden/<case>/ (see golden_cases)."""

import pytest

import golden_cases


@pytest.mark.parametrize("case", sorted(golden_cases.CASES))
def test_reports_match_the_golden_files(case, tmp_path):
    codes = golden_cases.run_case(case, tmp_path)
    mismatch = golden_cases.first_mismatch(golden_cases.ROOT / case, tmp_path)
    note = golden_cases.environment_note(case)
    assert mismatch is None, f"{case}: {mismatch}{note}"
    assert all(got == expected for got, expected in codes), (codes, note)


def test_a_changed_cell_is_named_by_file_row_and_column(tmp_path):
    case = "discrete_check"
    golden_cases.run_case(case, tmp_path)
    path = tmp_path / "csv" / "discrete_check_reports.csv"
    lines = path.read_bytes().split(b"\r\n")
    lines[3] = lines[3].replace(b",pass,", b",fail,")
    path.write_bytes(b"\r\n".join(lines))
    assert golden_cases.first_mismatch(golden_cases.ROOT / case, tmp_path) == \
        "csv/discrete_check_reports.csv: row 4, column 6 (verdict): " \
        "expected 'pass', got 'fail'"


def test_the_environment_names_the_blas_kernel(monkeypatch):
    assert golden_cases.blas_kernel()

    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(golden_cases.ctypes, "CDLL", NoSymbols)
    assert golden_cases.environment()["blas_kernel"] == "unknown"


def test_dudley_reports_do_not_depend_on_the_blas_thread_count(blas_threads,
                                                               tmp_path):
    for threads in (1, 2):
        blas_threads(threads)
        golden_cases.run_case("dudley", tmp_path / str(threads))
    assert golden_cases.first_mismatch(tmp_path / "1", tmp_path / "2") is None
