"""CLI outputs on the shipped specs against golden files in tests/golden.

Each golden file holds the argv, exit code, stdout and stderr of one
command.  Reports and CSV rows are compared field by field: keys,
strings, ints and bools exactly, floats within 1e-12 (the printed values
are rounded to 12 digits, and a BLAS may move the last one); the JSON
field wall_time_s is left out.  A solved `psi --invert` report is checked
by what its alpha, residual and evaluation count promise, not by their
values: the solve's path turns on last digits of psi and of J.T @ J.
Regenerate the files, after a change meant to alter outputs, by running
this module from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FLOAT_TOL = 1e-12

# a point and a split vector per spec; the downlink ones are refused by face and psi
POINTS = {
    "identity_k1l1": ("1,1", "0.5"),
    "uplink_k2l2": ("0.044640626234,0.343471617641,0.685954098402,0.357750778903",
                    "0.3,0.6,0.9"),
    "product_k2l2": ("0.13540878042,0.076014560629,0.433250634946,0.334895502252",
                     "0.4,0.5,0.6"),
    "downlink_k1l1": ("0.1,0.5", "0.5"),
    "downlink_k2l2": ("0.1,0.2,0.5,0.5", "0.3,0.6,0.9"),
}
# an inversion target per spec: the smoke targets of CI, each printed to 12 digits, and the
# face points of the downlink specs, which psi refuses
TARGETS = {
    **{name: point for name, (point, _) in POINTS.items()},
    "product_k2l2": "0.415761188357,0.042678437463,0.713603042884,0.301559379086",
}


def _cases():
    for name, (point, alpha) in sorted(POINTS.items()):
        spec = f"specs/{name}.json"
        fixed = [] if name.endswith("k1l1") else ["--fixed", "R2=0.1,C2=0.5"]
        yield f"corners-json-{name}", ["corners", spec]
        yield f"corners-csv-dedup-{name}", ["corners", spec, "--format", "csv", "--dedup"]
        yield f"face-{name}", ["face", spec, "--point", point]
        yield f"face-ST-{name}", ["face", spec, "--point", point, "--S", "1", "--T", "1"]
        yield f"slice-{name}", ["slice", spec, "--vary", "R1,C1", *fixed, "--max", "1",
                                "--steps", "5"]
        yield f"psi-alpha-{name}", ["psi", spec, "--alpha", alpha]
        yield f"psi-invert-{name}", ["psi", spec, "--invert", TARGETS[name]]
        yield f"verify-{name}", ["verify", spec, "--suite", "all", "--samples", "5"]


CASES = dict(_cases())
# the fields of a solved psi --invert report that a CPU's log2 or a BLAS can move: one
# target converged after 6 or after 17 evaluations, at different alphas (splitting.invert_psi)
SOLVER_PATH = ("alpha", "residual", "n_evals")


def run_cli(argv) -> dict:
    """argv, exit code, stdout and stderr of one in-process CLI call."""
    from cranregions.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _parse(stdout):
    """A JSON report without wall_time_s, or CSV rows with each cell as an int, a
    float or a string."""
    if stdout.startswith("{"):
        report = json.loads(stdout)
        report.pop("wall_time_s")
        return report

    def cell(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text

    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(stdout))]


def assert_same(got, want, where="output"):
    if isinstance(want, float) or isinstance(got, float):
        assert type(got) in (int, float) and type(want) in (int, float), where
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def assert_inverted(report):
    """The solver-path fields of a solved psi --invert report keep their promises: psi at
    the printed alpha is within tol of the target, as is the residual, in at most
    max_iters evaluations."""
    from cranregions.specio import load_spec
    from cranregions.splitting import psi

    args, res = report["args"], report["results"]
    point = psi(load_spec(args["spec"]), res["alpha"])
    assert np.max(np.abs(np.concatenate([point.R, point.C]) - res["target"])) <= args["tol"]
    assert res["residual"] <= args["tol"] and 1 <= res["n_evals"] <= args["max_iters"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)  # the reports name their spec by the path given
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    got = run_cli(CASES[case])
    assert got["argv"] == want["argv"]
    assert (got["exit_code"], got["stderr"]) == (want["exit_code"], want["stderr"])
    got_out, want_out = _parse(got["stdout"]), _parse(want["stdout"])
    if case.startswith("psi-invert-") and got["exit_code"] == 0:
        assert_inverted(got_out)
        for report in (got_out, want_out):
            for field in SOLVER_PATH:
                report["results"].pop(field)
    assert_same(got_out, want_out, case)


def test_comparison_sees_a_moved_digit_and_a_changed_type():
    assert_same({"a": [1.0, "R1", True]}, {"a": [1.0 + 1e-13, "R1", True]})
    for got in ({"a": [1.0 + 1e-11, "R1", True]}, {"a": [1.0, "R1", 1]},
                {"a": [1.0, "R2", True]}, {"b": [1.0, "R1", True]}):
        with pytest.raises(AssertionError):
            assert_same(got, {"a": [1.0, "R1", True]})


def test_inversion_check_sees_a_wrong_alpha_and_a_large_residual(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads((GOLDEN / "psi-invert-uplink_k2l2.json").read_text())
    assert_inverted(_parse(want["stdout"]))
    for field, value in (("alpha", [0.3, 0.6, 0.5]), ("residual", 2e-4), ("n_evals", 0)):
        report = _parse(want["stdout"])
        report["results"][field] = value
        with pytest.raises(AssertionError):
            assert_inverted(report)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.json").write_text(json.dumps(run_cli(argv), indent=1) + "\n")
