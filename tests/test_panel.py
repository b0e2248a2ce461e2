"""CLI reports on seeded specs above the shipped sizes against a committed panel.

The golden files of test_golden.py cover only the shipped K+L <= 4 specs.  This
panel runs the same commands on `random_uplink_spec`/`random_downlink_spec` at
(3, 3) and (4, 3), rng seeds 5 and 9, built here and saved under fixed names, so
no spec file is committed.  Per spec: `corners` as JSON and as deduplicated CSV,
`verify --suite all --samples 20` and a `slice` over R1, C1, with the other
rates at -0.05 and the other fronthaul capacities at 1 so that some points lie
inside; per uplink spec also `psi` at alpha 0.5, `psi --invert` of that point
(at K+L <= 6, where it takes well under a second) and `face` at that point with
no query and with two.  The point is the one the stored `psi --alpha` report
prints, so every command line is fixed by the panel itself.

Each case is stored once, gzip-compressed, in tests/panel, and compared as
test_golden.py compares its files: strings and ints exactly, floats within
FLOAT_TOL, a solved inversion's solver-path fields by what they promise.
Regenerate the files, after a change meant to alter outputs, by running this
module from the repository root:

    PYTHONPATH=src:tests python tests/test_panel.py
"""

import gzip
import json
import pathlib

import numpy as np
import pytest

from cranregions.specio import save_spec
from conftest import random_downlink_spec, random_uplink_spec
from test_golden import SOLVER_PATH, _parse, assert_inverted, assert_same, run_cli

PANEL = pathlib.Path(__file__).resolve().parent / "panel"
SPECS = [(direction, K, L, seed) for direction in ("uplink", "downlink")
         for K, L in ((3, 3), (4, 3)) for seed in (5, 9)]
RANDOM_SPEC = {"uplink": random_uplink_spec, "downlink": random_downlink_spec}


def spec_name(direction, K, L, seed) -> str:
    return f"{direction}_k{K}l{L}_s{seed}"


def write_specs(where: pathlib.Path):
    for direction, K, L, seed in SPECS:
        spec = RANDOM_SPEC[direction](np.random.default_rng(seed), K, L)
        save_spec(spec, where / f"{spec_name(direction, K, L, seed)}.json")


def _cases(point_of):
    """(case name, argv) of the panel; point_of(name) is the point the psi --alpha
    case of uplink spec `name` printed, as comma-separated reprs."""
    for direction, K, L, seed in SPECS:
        name = spec_name(direction, K, L, seed)
        spec = f"{name}.json"
        yield f"{name}-corners-json", ["corners", spec]
        yield f"{name}-corners-csv-dedup", ["corners", spec, "--format", "csv", "--dedup"]
        yield f"{name}-verify", ["verify", spec, "--suite", "all", "--samples", "20"]
        fixed = ",".join([f"R{k}=-0.05" for k in range(2, K + 1)]
                         + [f"C{l}=1.0" for l in range(2, L + 1)])
        yield f"{name}-slice", ["slice", spec, "--vary", "R1,C1", "--fixed", fixed, "--min", "-0.1",
                                "--max", "0.5", "--steps", "15"]
        if direction == "downlink":
            continue
        yield f"{name}-psi-alpha", ["psi", spec, "--alpha", ",".join(["0.5"] * (K + L - 1))]
        point = point_of(name)
        if K + L <= 6:
            yield f"{name}-psi-invert", ["psi", spec, "--invert", point]
        yield f"{name}-face", ["face", spec, "--point", point]
        yield f"{name}-face-S1", ["face", spec, "--point", point, "--S", "1", "--T", ""]
        yield f"{name}-face-T12", ["face", spec, "--point", point, "--S", "", "--T", "1,2"]


def read_case(case) -> dict:
    with gzip.open(PANEL / f"{case}.json.gz", "rt") as f:
        return json.load(f)


def _printed_point(record) -> str:
    return ",".join(map(repr, json.loads(record["stdout"])["results"]["point"]))


def stored_cases() -> dict:
    """argv of each case, the points taken from the stored psi --alpha reports."""
    return dict(_cases(lambda name: _printed_point(read_case(f"{name}-psi-alpha"))))


CASE_NAMES = sorted(case for case, _ in _cases(lambda name: ""))


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("panel_specs")
    write_specs(where)
    return where


def test_panel_lists_every_stored_case():
    assert sorted(p.name[:-len(".json.gz")] for p in PANEL.glob("*.json.gz")) == CASE_NAMES


@pytest.mark.parametrize("case", CASE_NAMES)
def test_cli_output_matches_panel(case, spec_dir, monkeypatch):
    monkeypatch.chdir(spec_dir)  # the reports name their spec by the path given
    want = read_case(case)
    got = run_cli(stored_cases()[case])
    assert got["argv"] == want["argv"]
    assert (got["exit_code"], got["stderr"]) == (want["exit_code"], want["stderr"])
    got_out, want_out = _parse(got["stdout"]), _parse(want["stdout"])
    if "-psi-invert" in case and got["exit_code"] == 0:
        assert_inverted(got_out)
        for report in (got_out, want_out):
            for field in SOLVER_PATH:
                report["results"].pop(field)
    assert_same(got_out, want_out, case)


if __name__ == "__main__":
    import os
    import tempfile

    PANEL.mkdir(exist_ok=True)
    for old in PANEL.glob("*.json.gz"):
        old.unlink()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as where:
        write_specs(pathlib.Path(where))
        os.chdir(where)
        records = {}
        for case, argv in _cases(lambda name: _printed_point(records[f"{name}-psi-alpha"])):
            records[case] = run_cli(argv)
            # mtime=0: the same reports give the same bytes
            with gzip.GzipFile(PANEL / f"{case}.json.gz", "wb", mtime=0) as f:
                f.write((json.dumps(records[case], indent=1) + "\n").encode())
        os.chdir(here)
