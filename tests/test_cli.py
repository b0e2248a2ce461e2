"""Command-line interface: report determinism, exit-code contract, and
spec-file round-trips."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cranregions import DownlinkSpec, UplinkSpec
from cranregions import cli
from cranregions import uplink as ul
from cranregions.cli import build_parser, main
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
        arg = ",".join(str(v) for v in target)
        code, out, _ = run(capsys, "psi", K2L2, "--invert", arg, "--max-iters", "1",
                           "--tol", "1e-12")
        assert code == 3
        assert not json.loads(out)["results"]["converged"]

    def test_invert_needs_no_scipy(self):
        """The inverter is numpy only: with scipy blocked, psi --invert still exits 0."""
        code = ("import sys; sys.modules['scipy'] = None; from cranregions.cli import main; "
                f"sys.exit(main(['psi', {IDENT!r}, '--invert', '1,1']))")
        src = str(SPECS.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

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


class TestParser:
    def test_parser_is_built_once_across_calls(self, capsys):
        run(capsys, "face", IDENT, "--point", "1,1")
        parser = build_parser()
        run(capsys, "corners", IDENT)
        assert build_parser() is parser

    def test_command_function_is_looked_up_when_main_runs(self, capsys, monkeypatch):
        run(capsys, "face", IDENT, "--point", "1,1")  # the parser exists from here on
        seen = []
        monkeypatch.setattr(cli, "cmd_face", lambda args: seen.append(args.point) or 7)
        assert run(capsys, "face", IDENT, "--point", "1,1")[0] == 7
        assert seen == ["1,1"]


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

    def test_grid_in_chunks_matches_one_stack(self, capsys, monkeypatch):
        argv = ("slice", K2L2, "--vary", "R1,C1", "--fixed", "R2=0.2,C2=0.5",
                "--max", "1", "--steps", "5")
        whole = run(capsys, *argv)
        assert sum(l.endswith(",1") for l in whole[1].splitlines()) == 5  # a mixed grid
        monkeypatch.setattr("cranregions.uplink.STACK_CHUNK", 7)  # 25 points: 7, 7, 7, 4
        assert run(capsys, *argv) == whole

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
    bool_dims = spec_to_dict(identity_chain_spec())  # JSON true is a Python int
    bool_dims["K"] = bool_dims["L"] = True
    bool_K = spec_to_dict(k2l2_bsc_spec())
    bool_K["K"] = True
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
            "{number_input_pmfs}": number_input_pmfs, "{bool_dims}": bool_dims,
            "{bool_K}": bool_K}


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
        (["verify", IDENT, "--suite", "telescope", "--seed", "-1"], "--seed"),
        (["psi", "{above_guard_up}", "--alpha", ",".join(["0.5"] * 8)], "enumeration guard"),
        (["slice", IDENT, "--vary", "R1,C1", "--min=-1e308", "--max=1e308"], "span"),
        (["corners", "{number_alphabets}"], "alphabets"),
        (["corners", "{nan_pmf}"], "input pmf"),
        (["corners", "{inf_channel}"], "channel"),
        (["verify", "{nan_aux}"], "aux joint"),
        (["corners", "{number_alphabet_sizes}"], "alphabets.X"),
        (["corners", "{number_input_pmfs}"], "input_pmfs"),
        (["corners", "{bool_dims}"], "fields 'K' and 'L' must be positive integers"),
        (["corners", "{bool_K}"], "fields 'K' and 'L' must be positive integers"),
        (["slice", K2L2, "--vary", "R1,C1", "--fixed", "R2=0,C2=2,C2=3"], "'C2' twice"),
    ],
    ids=["fixed-not-a-number", "negative-steps", "nan-invert-target", "zero-max-iters",
         "negative-invert-tol", "nan-invert-tol", "negative-verify-samples",
         "inf-face-point", "negative-dedup-tol", "above-enumeration-guard",
         "inf-dedup-tol", "negative-verify-seed",
         "psi-above-enumeration-guard", "overflowing-slice-span", "number-alphabets",
         "nan-input-pmf", "inf-channel", "nan-aux-joint", "number-alphabet-sizes",
         "number-input-pmfs", "bool-K-and-L", "bool-K", "repeated-fixed"],
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


@pytest.mark.parametrize(
    "argv, code, first",
    [
        (["slice", str(SPECS / "downlink_k2l2.json"), "--vary", "R1,C1", "--fixed", "R2=0,C2=2",
          "--min", "-1e-3", "--max", "1", "--steps", "3"], 0, -0.001),
        (["slice", IDENT, "--vary", "R1,C1", "--min", "-2.5E-1", "--steps", "2"], 0, -0.25),
        (["face", IDENT, "--point", "-0.001,1"], 1, -0.001),
        (["face", K2L2, "--point", "-1e-3,0.1,1,1"], 1, -0.001),
        (["face", IDENT, "--point", "-0.5,1,"], 1, -0.5),
    ],
    ids=["slice-min-exponent", "slice-min-upper-exponent", "face-point-list",
         "face-point-exponent", "face-point-trailing-comma"],
)
def test_negative_option_values_are_read(capsys, argv, code, first):
    """A negative number, or a comma list of numbers, is the value of the option
    before it, not an unknown option."""
    got, out, err = run(capsys, *argv)
    assert got == code, err
    if argv[0] == "slice":
        assert float(out.splitlines()[1].split(",")[0]) == first
    else:
        assert json.loads(out)["results"]["point"][0] == first


@pytest.mark.parametrize(
    "argv, named",
    [
        (["corners", IDENT, "--dedup-tol", "-1e-3"], "--dedup-tol"),
        (["psi", K2L2, "--invert", "-0.001,0.1,1,1"], "not on the dominant face"),
        (["slice", IDENT, "--vary", "R1,C1", "--min", "-inf"], "--min"),
        (["psi", IDENT, "--invert", "1,1", "--tol", "-1e-3"], "--tol"),
    ],
    ids=["corners-dedup-tol", "psi-invert", "slice-min-inf", "psi-tol"],
)
def test_negative_option_values_reach_the_checks(capsys, argv, named):
    got, _, err = run(capsys, *argv)
    assert got == 2
    assert "error:" in err and named in err
    assert "usage:" not in err  # the program's own check, not argparse


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


# --- the report encoder against json.dumps(sort_keys=True, indent=2) ---

SHIPPED = sorted(p.name for p in SPECS.glob("*.json"))


def _commands(name):
    spec = str(SPECS / name)
    yield ["corners", spec]
    yield ["corners", spec, "--dedup-tol", "0.1"]
    yield ["verify", spec, "--suite", "all", "--samples", "5"]
    if name.startswith(("uplink", "identity", "product")):
        K = 1 if name.startswith("identity") else 2
        yield ["psi", spec, "--alpha", ",".join(["0.3"] * (2 * K - 1))]
        yield ["psi", spec, "--invert", "point of the run before", "--max-iters", "20"]
        yield ["face", spec, "--point", ",".join(["0.5"] * 2 * K), "--S", "1", "--T", ""]


@pytest.mark.parametrize("name", SHIPPED)
def test_emitted_reports_match_json_dumps(name, monkeypatch, capsys):
    import cranregions.cli as cli

    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report: reports.append(report) or emit(report))
    for argv in _commands(name):
        if "point of the run before" in argv:
            argv[3] = ",".join(str(float(v)) for v in reports[-1]["results"]["point"])
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(reports[-1], sort_keys=True, indent=2) + "\n", argv
    assert len(reports) >= 3


class _Str(str):
    pass


class _Float(float):
    pass


@pytest.mark.parametrize("report", [
    {}, [], (), "text", 3, -0.0, None, True, [[[]]], {"a": {}}, {"a": []},
    {"b": [1, 2.5, True, False, None, math.nan, math.inf, -math.inf, -0.0, 10**30, 5e-324]},
    {"s": "quote\" back\\ \n tab\t é ☃ \u0001 \ud800", "t": (1, (2, "3")), "z": [None, [], {}]},
    {"mixed": [[1.0, 2.0], ["a, b", 1], [{"k": [math.nan]}]], "nested": {"x": {"y": [1]}}},
    {"keys": {2.5: [1], 0.5: 2}}, {"keys": {True: 3, False: None}}, {None: 1},
    {"floats": [0.1, -0.0, 1e-320, 1e300, math.nan, math.inf], "one": [2.5]},
    {_Str("k"): _Float(1.5), "np": [np.float64(0.1)]},
    {"rows": [{"p": "R1,C1", "x": [-0.0, 0.0, 1e-05], "ok": True},
              {"p": "C1,R1", "x": [0.0, -0.0, 5e-324], "ok": False},
              {"p": "C1", "x": [1e-05, 1e-05, math.nan], "ok": None}],
     "again": [[1e-05, -0.0], [5e-324, 0.0], [], (1e-05,)]},
    {"mixed keys": [{"a": 1.5, "b": [1.5]}, {"a": 1.5}, {"b": -0.0, "c": {}}, {}, {"a": 2}],
     "mixed kinds": [{"a": -0.0}, [0.0, -0.0], 0.0, "0.0", None, [{"a": [{}]}]],
     "key%s": {"%d": 1e-05, "%%": [math.nan, math.nan, math.inf]}},
])
def test_encoder_matches_json_dumps_on_hand_built_reports(report):
    from cranregions.cli import _dumps

    assert _dumps(report) == json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("report", [{1: "a", "b": 2}, {"a": np.int64(1)}, [np.bool_(True)]])
def test_encoder_refuses_what_json_dumps_refuses(report):
    from cranregions.cli import _dumps

    with pytest.raises(TypeError) as ours:
        _dumps(report)
    with pytest.raises(TypeError) as theirs:
        json.dumps(report, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value)


# --- the writers byte for byte: CSV against csv.writer, JSON against json.dumps ---


def _seeded_spec_files(tmp_path, shapes):
    from conftest import random_downlink_spec, random_uplink_spec

    for K, L in shapes:
        for direction, make in (("uplink", random_uplink_spec), ("downlink", random_downlink_spec)):
            path = tmp_path / f"{direction}_k{K}l{L}.json"
            save_spec(make(np.random.default_rng(10 * K + L), K, L), path)
            yield str(path)


def _csv_bytes(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("dedup", [[], ["--dedup"]], ids=["all", "dedup"])
def test_corners_csv_is_csv_writer_bytes(capsys, tmp_path, dedup):
    for path in [str(p) for p in sorted(SPECS.glob("*.json"))] + \
            list(_seeded_spec_files(tmp_path, [(3, 2), (2, 3)])):
        spec = load_spec(path)
        enumerate_corners, verify, _ = cli._region(spec)
        enum = enumerate_corners()
        is_corner = verify(enum.points, enum.perms).is_corner.tolist()
        points = np.round(enum.points, 12).tolist()
        rows = [["permutation", *ul.coord_labels(spec.K, spec.L), "is_corner"]]
        rows += [[enum.order_labels[i], *points[i], is_corner[i]]
                 for i in (enum.kept.tolist() if dedup else range(len(points)))]
        code, out, _ = run(capsys, "corners", path, "--format", "csv", *dedup)
        assert code == 0 and out == _csv_bytes(rows), path


@pytest.mark.parametrize("lo, hi, steps", [(0.0, 1.0, 5), (-1e-3, 3.0, 37), (-1e-13, 1e-13, 3),
                                           (0.1, 0.1, 1)])
def test_slice_csv_is_csv_writer_bytes(capsys, lo, hi, steps):
    argv = ["slice", K2L2, "--vary", "C1,R1", "--fixed", "R2=0.2,C2=0.5",
            "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)]
    spec = load_spec(K2L2)
    grid = np.linspace(lo, hi, steps)
    points = np.array([[y, 0.2, x, 0.5] for x in grid for y in grid])  # C1 outer, R1 inner
    inside = cli._region(spec)[2](points)
    rows = [["C1", "R1", "in_region"]]
    rows += [[round(float(p[2]), 12), round(float(p[0]), 12), int(b)] for p, b in zip(points, inside)]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == _csv_bytes(rows)


def test_seeded_corners_reports_match_json_dumps(monkeypatch, capsys, tmp_path):
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report: reports.append(report) or emit(report))
    for path in _seeded_spec_files(tmp_path, [(3, 2), (2, 3), (3, 3), (4, 2)]):
        main(["corners", path])
        out = capsys.readouterr().out
        assert out == json.dumps(reports[-1], sort_keys=True, indent=2) + "\n", path
    assert len(reports) == 8


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_ends_the_output_not_the_command(capsys, tmp_path, fmt):
    """A reader that stops after one line (`| head -1`) gets no traceback, and the
    command keeps its own exit code.  The report of a K+L = 6 spec is larger
    than a pipe's 64 KiB buffer, so the write meets the closed pipe."""
    from conftest import random_uplink_spec

    path = tmp_path / "uplink_k3l3.json"
    save_spec(random_uplink_spec(np.random.default_rng(6), 3, 3), path)
    argv = ["corners", str(path), "--format", fmt]
    want = main(argv)
    assert len(capsys.readouterr().out) > 1 << 16
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SPECS.parent / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-m", "cranregions.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    assert proc.stdout.readline()  # unbuffered: one line read, the rest left in the pipe
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == want and not err
