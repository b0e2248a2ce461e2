"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
All tolerances are the documented ones; nothing here is loosened to make
a check pass.
"""

import json
import pathlib
import time

import numpy as np
import pytest

import cranregions as cr
from cranregions.cli import main as cli_main
from cranregions.prob import build_downlink_joint, build_uplink_joint
from cranregions.face import FaceQuery, face_gap
from cranregions import splitting as sp
from cranregions.uplink import solve_perms

from conftest import (
    identity_chain_spec,
    k2l2_bsc_spec,
    product_spec,
    random_downlink_spec,
    random_uplink_spec,
)

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

N_BATTERY = 20
_uplink_battery = None
_downlink_battery = None


def uplink_battery():
    global _uplink_battery
    if _uplink_battery is None:
        rng = np.random.default_rng(2024)
        _uplink_battery = [
            (s, build_uplink_joint(s))
            for s in (random_uplink_spec(rng) for _ in range(N_BATTERY))
        ]
    return _uplink_battery


def downlink_battery():
    global _downlink_battery
    if _downlink_battery is None:
        rng = np.random.default_rng(4048)
        _downlink_battery = [
            (s, build_downlink_joint(s))
            for s in (random_downlink_spec(rng) for _ in range(N_BATTERY))
        ]
    return _downlink_battery


def report(num, name, ok):
    print(f"\nACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_c01_corner_procedure_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    perms = solve_perms(2, 2)
    for _, law in uplink_battery():
        a = cr.corner_iterative(law, perms)
        b = cr.corner_closed(law, perms)
        worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.monotonic() - t0
    report(1, "iterative vs closed-form corners", worst <= 1e-9 and elapsed <= 10.0)


def test_c02_joint_vs_successive_decoding():
    worst = 0.0
    members = True
    perms = solve_perms(2, 2)
    for _, law in uplink_battery():
        corner = cr.corner_closed(law, perms)
        sd = cr.sd_corner(law, perms[:, ::-1])  # the decode order of a solve order
        worst = max(worst, float(np.max(np.abs(corner - sd))))
        # every decode order of X1, X2, Yh1, Yh2 is a row of perms
        members = members and bool(cr.in_jd_region(law, cr.sd_corner(law, perms), tol=1e-9).all())
    report(2, "corners achieved by successive decoding", worst <= 1e-9 and members)


def test_c03_corner_verification():
    ok = True
    for _, law in uplink_battery():
        for vec in cr.enumerate_corners(law).points:
            rep = cr.verify_corner(law, vec[None])  # one point, as a stack of one
            ok = ok and rep.is_corner[0]
    report(3, "membership + active-rank at every corner", ok)


def test_c04_face_description_equivalence():
    rng = np.random.default_rng(11)
    ok = True
    for _, law in uplink_battery():
        pts = list(cr.enumerate_corners(law).vertices)
        pts += list(cr.sample_face_points(law, 250, rng))
        mat = np.array(pts[: max(2, len(pts))])
        lo, hi = mat.min(axis=0) - 0.25, mat.max(axis=0) + 0.25
        for _ in range(250):
            pts.append(rng.uniform(lo, hi))
        for p in pts:
            if cr.on_dominant_face(law, p[None])[0] != cr.on_dominant_face_alt(law, p[None])[0]:
                ok = False
    report(4, "two dominant-face descriptions agree", ok)


def test_c05_face_product_decomposition():
    ok = True
    law = build_uplink_joint(k2l2_bsc_spec())
    queries = []
    for S in map(set, [(), (1,), (2,), (1, 2)]):
        for T in map(set, [(), (1,), (2,), (1, 2)]):
            if (S | T) and ((set((1, 2)) - S) | (set((1, 2)) - T)):
                queries.append(FaceQuery(frozenset(S), frozenset(T)))
    for q in queries:
        rep = cr.check_face_decomposition(law, q, tol=1e-8)
        ok = ok and rep.passed
    report(5, "face factors into sub-faces", ok)


def test_c06_degeneracy_and_dimension():
    prod_law = build_uplink_joint(product_spec())
    coup_law = build_uplink_joint(k2l2_bsc_spec())
    sep = FaceQuery(frozenset({1}), frozenset({1}))
    ok = cr.degeneracy_condition(prod_law, sep)
    ok = ok and cr.dominant_face_dimension(prod_law) < 3
    for S in map(set, [(), (1,), (2,), (1, 2)]):
        for T in map(set, [(), (1,), (2,), (1, 2)]):
            if (S | T) and ((set((1, 2)) - S) | (set((1, 2)) - T)):
                q = FaceQuery(frozenset(S), frozenset(T))
                ok = ok and not cr.degeneracy_condition(coup_law, q)
    ok = ok and cr.dominant_face_dimension(coup_law) == 3
    report(6, "degeneracy detects product structure, dimension drops", ok)


def test_c07_split_law_invariants():
    ok = True
    p_y = np.array([0.6, 0.4])
    w = np.array([[0.9, 0.1], [0.2, 0.8]])
    for eps in np.linspace(0.0, 1.0, 101):
        rs = cr.make_rate_split(0.3, float(eps))
        p_max1 = 1.0 - rs.p_u[0] * rs.p_v[0]
        ok = ok and abs(p_max1 - 0.3) <= 1e-12

        qs = cr.make_quant_split(w, float(eps))
        merged = np.zeros((2, 2))
        for u in range(2):
            for v in range(2):
                merged[:, max(u, v)] += p_y * qs.p_uv_given_y[:, u, v]
        ok = ok and np.max(np.abs(merged - p_y[:, None] * w)) <= 1e-12
        p = np.einsum("y,yh,huv->yhuv", p_y, w, qs.p_uv_given_yhat)
        law = cr.JointLaw(("Y", "Yh", "U", "V"), p)
        ok = ok and cr.mutual_info(law, ["Y"], ["U", "V"], ["Yh"]) <= 1e-10
    # endpoint degeneracies hold exactly
    ok = ok and cr.make_rate_split(0.3, 0.0).p_u[1] == 0.0
    ok = ok and cr.make_rate_split(0.3, 1.0).p_v[1] == 0.0
    ok = ok and np.all(cr.make_quant_split(w, 0.0).p_uv_given_yhat[:, 1, :] == 0.0)
    ok = ok and np.all(cr.make_quant_split(w, 1.0).p_uv_given_yhat[:, :, 1] == 0.0)
    report(7, "split laws preserved over the epsilon grid", ok)


def test_c08_generalized_order():
    ok = cr.generalized_order(2) == ((2, 1), (1, 1), (2, 2))
    ok = ok and cr.generalized_order(3) == (
        (3, 1), (2, 1), (3, 2), (1, 1), (3, 3), (2, 2), (3, 4),
    )
    # reference configuration: K=2, L=2, active subintervals (1, 1, 6)
    cfg = cr.decode_order_from_alpha(2, 2, [0.5, 0.1, 5.5 / 7.0])
    ok = ok and cfg.j == {2: 1, 3: 1, 4: 6}
    ok = ok and cfg.order == ("1c", "2a", "1d", "1", "2c", "2b", "2d")
    report(8, "generalized decoding order", ok)


def test_c09_telescoping_identity():
    rng = np.random.default_rng(99)
    ok = True
    for trial in range(100):
        spec, law = uplink_battery()[trial % N_BATTERY]
        alpha = rng.uniform(0.0, 1.0, 3)
        point = sp.psi(spec, alpha).as_vector()[None]
        ok = ok and abs(face_gap(law, point)[0]) <= 1e-9
        ok = ok and cr.on_dominant_face(law, point, tol=1e-8)[0]
    report(9, "splitting lands on the dominant face", ok)


def test_c10_psi_surjectivity():
    t0 = time.monotonic()
    ok = True
    rng = np.random.default_rng(555)
    batteries = [identity_chain_spec(), random_uplink_spec(np.random.default_rng(31))]
    for spec in batteries:
        law = build_uplink_joint(spec)
        vertices = cr.enumerate_corners(law).vertices
        mat = vertices
        targets = list(vertices)
        while len(targets) < 20:
            w = rng.dirichlet(np.ones(len(vertices)))
            targets.append(w @ mat)
        targets = targets[:20]
        for t in targets:
            res = cr.invert_psi(spec, t, tol=1e-4, max_iters=5000)
            ok = ok and res.converged and res.n_evals <= 5000
    elapsed = time.monotonic() - t0
    report(10, "inverse splitting map", ok and elapsed <= 300.0)


def test_c11_downlink_analogues():
    worst = 0.0
    ok = True
    perms = solve_perms(2, 2)
    for _, law in downlink_battery():
        a = cr.downlink_corner_iterative(law, perms)
        b = cr.downlink_corner_closed(law, perms)
        worst = max(worst, float(np.max(np.abs(a - b))))
        se = cr.se_corner(law, perms)  # the encode order of a solve order is itself
        worst = max(worst, float(np.max(np.abs(b - se))))
        ok = ok and bool(cr.in_je_region(law, se, tol=1e-9).all())
        for vec in cr.downlink_enumerate_corners(law).points:
            ok = ok and cr.verify_downlink_corner(law, vec[None]).is_corner[0]
    report(11, "downlink corner procedures and encoding orders", worst <= 1e-9 and ok)


def test_c12_cli_contract(capsys, tmp_path):
    ident = str(SPECS / "identity_k1l1.json")
    k2l2 = str(SPECS / "uplink_k2l2.json")

    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    ok = True
    # determinism of verify with fixed seed, modulo wall time
    _, out1 = run("verify", k2l2, "--suite", "lemma3", "--seed", "9", "--samples", "50")
    _, out2 = run("verify", k2l2, "--suite", "lemma3", "--seed", "9", "--samples", "50")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    ok = ok and r1 == r2
    # exit 0 on pass
    code, _ = run("verify", ident, "--suite", "lemma1")
    ok = ok and code == 0
    # exit 1 on verification failure
    code, _ = run("face", ident, "--point", "0.5,1")
    ok = ok and code == 1
    # exit 2 on parse error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run("corners", str(bad))
    capsys.readouterr()
    ok = ok and code == 2
    # exit 3 on non-convergence
    code, _ = run("psi", ident, "--invert", "0.5,0.5", "--max-iters", "1",
                  "--tol", "1e-15")
    ok = ok and code == 3
    report(12, "CLI determinism and exit codes", ok)
