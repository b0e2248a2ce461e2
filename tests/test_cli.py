"""Command-line interface: report determinism, exit-code contract, and
spec-file round-trips."""

import json
import math
import pathlib

import numpy as np
import pytest

from cranregions import DownlinkSpec, UplinkSpec
from cranregions.cli import main
from cranregions.specio import SpecFileError, load_spec, save_spec, spec_to_dict

from conftest import downlink_k1l1_spec, identity_chain_spec, k2l2_bsc_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
IDENT = str(SPECS / "identity_k1l1.json")
K2L2 = str(SPECS / "uplink_k2l2.json")
DOWN = str(SPECS / "downlink_k1l1.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCorners:
    def test_identity_csv_two_vertices(self, capsys):
        code, out, _ = run(capsys, "corners", IDENT, "--format", "csv", "--dedup")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + 2 distinct vertices
        assert "1.0,1.0,True" in out and "0.0,0.0,True" in out

    def test_k2l2_json_24_rows_all_pass(self, capsys):
        code, out, _ = run(capsys, "corners", K2L2)
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["corners"]) == 24
        assert all(r["is_corner"] for r in report["results"]["corners"])
        assert report["passed"]

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"direction": "uplink", "K": 1')
        code, _, err = run(capsys, "corners", str(bad))
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize("tol", [[], ["--dedup-tol", "10"]], ids=["default", "tol-10"])
    def test_csv_dedup_prints_one_row_per_vertex(self, capsys, tol):
        _, out, _ = run(capsys, "corners", K2L2, *tol)
        n_vertices = json.loads(out)["results"]["n_vertices"]
        _, out, _ = run(capsys, "corners", K2L2, "--format", "csv", "--dedup", *tol)
        assert len(out.strip().splitlines()) == 1 + n_vertices

    def test_missing_field_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"direction": "uplink", "K": 1, "L": 1, "alphabets": {}}')
        code, _, err = run(capsys, "corners", str(bad))
        assert code == 2
        assert "input_pmfs" in err


class TestVerify:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", IDENT, "--suite", "lemma1")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_determinism_modulo_wall_time(self, capsys):
        _, out1, _ = run(capsys, "verify", K2L2, "--suite", "lemma3", "--seed", "7",
                         "--samples", "40")
        _, out2, _ = run(capsys, "verify", K2L2, "--suite", "lemma3", "--seed", "7",
                         "--samples", "40")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    def test_wrong_direction_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", DOWN, "--suite", "thm1")
        assert code == 2
        assert "thm1" in err

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", IDENT, "--suite", "lemma99")
        assert code == 2

    def test_downlink_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", DOWN, "--suite", "lemma7,thm3")
        assert code == 0
        assert json.loads(out)["passed"]


class TestPsi:
    def test_forward_identity_chain(self, capsys):
        code, out, _ = run(capsys, "psi", IDENT, "--alpha", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["order"] == ["1c", "1", "1d"]
        r, c = report["results"]["point"]
        assert r == pytest.approx(c, abs=1e-9)  # on the face: C - R = 0

    def test_invert_corner(self, capsys):
        code, out, _ = run(capsys, "psi", IDENT, "--invert", "1,1")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["residual"] <= 1e-4

    def test_invert_off_face_exit_2(self, capsys):
        code, _, err = run(capsys, "psi", IDENT, "--invert", "2,0")
        assert code == 2
        assert "dominant face" in err

    def test_non_convergence_exit_3(self, capsys):
        # a one-evaluation budget cannot converge on a k2l2 interior target
        from cranregions import enumerate_corners, sample_face_points
        from cranregions.prob import build_uplink_joint

        law = build_uplink_joint(k2l2_bsc_spec())
        target = sample_face_points(law, 1, np.random.default_rng(0))[0]
        arg = ",".join(str(v) for v in target.as_vector())
        code, out, _ = run(capsys, "psi", K2L2, "--invert", arg, "--max-iters", "1",
                           "--tol", "1e-12")
        assert code == 3
        assert not json.loads(out)["results"]["converged"]

    def test_both_modes_rejected(self, capsys):
        code, _, _ = run(capsys, "psi", IDENT, "--alpha", "0.5", "--invert", "1,1")
        assert code == 2


class TestFace:
    def test_identity_chain_all_true(self, capsys):
        code, out, _ = run(capsys, "face", IDENT, "--point", "1,1", "--S", "1",
                           "--T", "1")
        assert code == 0
        r = json.loads(out)["results"]
        assert r["on_dominant_face"] and r["on_dominant_face_alt"] and r["in_face"]

    def test_off_face_point_exit_1(self, capsys):
        code, out, _ = run(capsys, "face", IDENT, "--point", "0.5,1")
        assert code == 1
        assert not json.loads(out)["results"]["on_dominant_face"]

    def test_bad_subset_exit_2(self, capsys):
        code, _, _ = run(capsys, "face", IDENT, "--point", "1,1", "--S", "1,2")
        assert code == 2


class TestSlice:
    def test_identity_grid(self, capsys):
        code, out, _ = run(capsys, "slice", IDENT, "--vary", "R1,C1",
                           "--min", "0", "--max", "1", "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "R1,C1,in_region"
        assert len(lines) == 10
        rows = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[1:]}
        assert rows[("0.0", "1.0")] == "1"
        assert rows[("1.0", "0.0")] == "0"

    def test_missing_fixed_exit_2(self, capsys):
        code, _, _ = run(capsys, "slice", K2L2, "--vary", "R1,C1")
        assert code == 2


def _bad_spec_docs():
    """Spec documents that must be refused, keyed by the placeholder naming them."""
    nan_pmf = spec_to_dict(identity_chain_spec())
    nan_pmf["input_pmfs"] = [[math.nan, math.nan]]
    inf_channel = spec_to_dict(identity_chain_spec())
    inf_channel["channel"][0][0] = math.inf
    nan_aux = spec_to_dict(downlink_k1l1_spec())
    nan_aux["aux_joint"][0][0] = math.nan
    number_alphabets = spec_to_dict(identity_chain_spec())
    number_alphabets["alphabets"] = math.nan
    number_alphabet_sizes = spec_to_dict(identity_chain_spec())
    number_alphabet_sizes["alphabets"]["X"] = 2
    number_input_pmfs = spec_to_dict(identity_chain_spec())
    number_input_pmfs["input_pmfs"] = 0.5
    # K+L = 9, one above the (K+L)! enumeration guard
    above_guard = spec_to_dict(
        DownlinkSpec(K=5, L=4, aux_joint=np.full((2,) * 9, 2.0**-9),
                     channel=np.full((2,) * 9, 2.0**-5))
    )
    above_guard_up = spec_to_dict(
        UplinkSpec(K=5, L=4, input_pmfs=[[0.5, 0.5]] * 5,
                   channel=np.full((2,) * 9, 2.0**-4), test_channels=[np.eye(2)] * 4)
    )
    return {"{nan_pmf}": nan_pmf, "{inf_channel}": inf_channel,
            "{nan_aux}": nan_aux, "{above_guard}": above_guard,
            "{above_guard_up}": above_guard_up, "{number_alphabets}": number_alphabets,
            "{number_alphabet_sizes}": number_alphabet_sizes,
            "{number_input_pmfs}": number_input_pmfs}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["slice", K2L2, "--vary", "R1,C1", "--fixed", "R2=abc,C2=0.5"], "--fixed R2"),
        (["slice", IDENT, "--vary", "R1,C1", "--steps", "-1"], "--steps"),
        (["psi", K2L2, "--invert", "nan,1,1,1"], "point"),
        (["psi", IDENT, "--invert", "1,1", "--max-iters", "0"], "--max-iters"),
        (["psi", IDENT, "--invert", "1,1", "--max-iters", "50", "--tol", "-1"], "--tol"),
        (["psi", IDENT, "--invert", "1,1", "--max-iters", "50", "--tol", "nan"], "--tol"),
        (["verify", IDENT, "--suite", "telescope,lemma3", "--samples", "-1"], "--samples"),
        (["face", IDENT, "--point", "inf,1"], "point"),
        (["corners", IDENT, "--dedup-tol", "-1"], "--dedup-tol"),
        (["corners", "{above_guard}"], "enumeration guard"),
        (["corners", IDENT, "--dedup-tol", "inf"], "--dedup-tol"),
        (["psi", IDENT, "--invert", "1,1", "--seed", "-1"], "--seed"),
        (["verify", IDENT, "--suite", "telescope", "--seed", "-1"], "--seed"),
        (["psi", "{above_guard_up}", "--alpha", ",".join(["0.5"] * 8)], "enumeration guard"),
        (["slice", IDENT, "--vary", "R1,C1", "--min=-1e308", "--max=1e308"], "span"),
        (["corners", "{number_alphabets}"], "alphabets"),
        (["corners", "{nan_pmf}"], "input pmf"),
        (["corners", "{inf_channel}"], "channel"),
        (["verify", "{nan_aux}"], "aux joint"),
        (["corners", "{number_alphabet_sizes}"], "alphabets.X"),
        (["corners", "{number_input_pmfs}"], "input_pmfs"),
    ],
    ids=["fixed-not-a-number", "negative-steps", "nan-invert-target", "zero-max-iters",
         "negative-invert-tol", "nan-invert-tol", "negative-verify-samples",
         "inf-face-point", "negative-dedup-tol", "above-enumeration-guard",
         "inf-dedup-tol", "negative-invert-seed", "negative-verify-seed",
         "psi-above-enumeration-guard", "overflowing-slice-span", "number-alphabets",
         "nan-input-pmf", "inf-channel", "nan-aux-joint", "number-alphabet-sizes",
         "number-input-pmfs"],
)
def test_bad_input_exits_2_without_traceback(capsys, tmp_path, argv, named):
    argv = list(argv)
    for placeholder, doc in _bad_spec_docs().items():
        if placeholder in argv:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(doc))
            argv[argv.index(placeholder)] = str(path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and named in err
    assert "Traceback" not in err


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec", [identity_chain_spec(), k2l2_bsc_spec(), downlink_k1l1_spec()]
    )
    def test_save_load_identical(self, spec, tmp_path):
        path = tmp_path / "s.json"
        save_spec(spec, path)
        again = load_spec(path)
        assert spec_to_dict(spec) == spec_to_dict(again)

    def test_alphabet_mismatch_diagnosed(self, tmp_path):
        doc = spec_to_dict(identity_chain_spec())
        doc["alphabets"]["X"] = [3]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecFileError, match="alphabets"):
            load_spec(path)
