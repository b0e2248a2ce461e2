"""Named verification suites driven by the CLI.

Each suite runs one of the numerically-verifiable structural claims
(corner-procedure equivalences, face descriptions, degeneracy and
dimension predicates, split identities) against a user-supplied spec and
returns a (passed, details) pair with deterministic, seed-reproducible
contents.
"""

from __future__ import annotations

import math

import numpy as np

from . import downlink as dl
from . import face as df
from . import splitting as sp
from . import uplink as ul
from .prob import (
    CORNER_MATCH_TOL,
    FACE_TOL,
    TELESCOPE_TOL,
    DownlinkSpec,
    UplinkSpec,
)


def _random_box_points(law, n, rng):
    """An (n, K+L) stack of random probe points in an inflated bounding box of
    the corners; the draws are those of one call per point, in order."""
    mat = ul.enumerate_corners(law).vertices
    lo = mat.min(axis=0) - 0.25
    hi = mat.max(axis=0) + 0.25
    return rng.uniform(lo, hi, size=(n, len(lo)))


def _agrees_with_greedy(law, iterative, points, **details):
    """Whether the corners `points` of the solve orders `perms = solve_perms(K, L)`
    agree with their greedy corners `iterative(law, perms)`, with the largest
    coordinate gap.  The greedy corners are computed once per law, for lemma1
    and thm1 (lemma7 and thm3); the memo is keyed by the law's direction, not
    by `iterative`, which a tracer may replace with a wrapper."""
    direction, K, L = law.built
    greedy = law.memo(("greedy corners", direction), lambda: iterative(law, ul.solve_perms(K, L)))
    worst = float(np.max(np.abs(greedy - points)))
    return worst <= CORNER_MATCH_TOL, {"max_deviation": worst, **details}


def suite_lemma1(spec: UplinkSpec, seed=0, samples=100):
    enum = ul.enumerate_corners(spec.law)
    return _agrees_with_greedy(spec.law, ul.corner_iterative, enum.points,
                               tolerance=CORNER_MATCH_TOL)


def suite_lemma2(spec: UplinkSpec, seed=0, samples=100):
    law = spec.law
    enum = ul.enumerate_corners(law)
    rep = ul.verify_corner(law, enum.points, enum.perms)
    failures = [o for o, ok in zip(enum.order_labels, rep.is_corner) if not ok]
    return not failures, {"n_corners": math.factorial(spec.K + spec.L), "failures": failures}


def suite_lemma3(spec: UplinkSpec, seed=0, samples=500):
    law = spec.law
    rng = np.random.default_rng(seed)
    stack = np.vstack([ul.enumerate_corners(law).vertices,
                       df.sample_face_points(law, samples // 2, rng),
                       _random_box_points(law, samples - samples // 2, rng)])
    disagreements = int(np.sum(df.on_dominant_face(law, stack)
                               != df.on_dominant_face_alt(law, stack)))
    return disagreements == 0, {"n_points": len(stack), "disagreements": disagreements}


def suite_lemma4(spec: UplinkSpec, seed=0, samples=100):
    queries = df.face_queries(spec.law)  # exact on the face vertices: reads no seed or samples
    forward, converse = df.face_decomposition_failures(spec.law, queries).tolist()
    results = {f"S={sorted(q.S)},T={sorted(q.T)}": {"forward_failures": f, "converse_failures": c}
               for q, f, c in zip(queries, forward, converse)}
    return not any(forward + converse), results


def suite_lemma5(spec: UplinkSpec, seed=0, samples=100):
    law = spec.law
    results = {}
    ok = True
    for q in df.face_queries(law):
        degen = df.degeneracy_condition(law, q)
        factor = df.check_degenerate_factorization(law, q)
        key = f"S={sorted(q.S)},T={sorted(q.T)}"
        results[key] = {"degenerate": degen, "factorizes": factor}
        ok = ok and (degen == factor)
    return ok, results


def suite_lemma6(spec: UplinkSpec, seed=0, samples=100):
    law = spec.law
    dim = df.dominant_face_dimension(law)
    any_degen = any(df.degeneracy_condition(law, q) for q in df.face_queries(law))
    ok = any_degen == (dim < spec.K + spec.L - 1)
    return ok, {"dimension": dim, "full": spec.K + spec.L - 1, "degenerate_pair_exists": any_degen}


def suite_thm1(spec: UplinkSpec, seed=0, samples=100):
    perms = ul.solve_perms(spec.K, spec.L)
    # the decode order of a solve order is its reversal (see sd_corner), a bijection
    # onto the decode orders, so this stack meets every successive-decoding corner once
    sd = ul.sd_corner(spec.law, perms[:, ::-1])
    members = bool(ul.in_jd_region(spec.law, sd).all())
    ok, details = _agrees_with_greedy(spec.law, ul.corner_iterative, sd,
                                      all_sd_corners_in_region=members)
    return ok and members, details


def suite_telescope(spec: UplinkSpec, seed=0, samples=100):
    law = spec.law
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.0, size=(samples, spec.K + spec.L - 1))  # one draw per sample
    points = sp.psi(spec, alphas)
    worst_gap = float(np.max(np.abs(df.face_gap(law, points)), initial=0.0))
    all_on_face = bool(df.on_dominant_face(law, points, tol=FACE_TOL).all())
    return worst_gap <= TELESCOPE_TOL and all_on_face, {
        "samples": samples,
        "max_telescoping_gap": worst_gap,
        "all_on_dominant_face": all_on_face,
    }


def suite_lemma7(spec: DownlinkSpec, seed=0, samples=100):
    enum = dl.downlink_enumerate_corners(spec.law)
    return _agrees_with_greedy(spec.law, dl.downlink_corner_iterative, enum.points,
                               tolerance=CORNER_MATCH_TOL)


def suite_lemma8(spec: DownlinkSpec, seed=0, samples=100):
    law = spec.law
    enum = dl.downlink_enumerate_corners(law)
    rep = dl.verify_downlink_corner(law, enum.points, enum.perms)
    failures = [o for o, ok in zip(enum.order_labels, rep.is_corner) if not ok]
    negatives = [o for o, neg in zip(enum.order_labels, rep.negative_coords) if neg]
    return not failures, {
        "n_corners": math.factorial(spec.K + spec.L),
        "failures": failures,
        "orders_with_negative_coords": negatives,
    }


def suite_thm3(spec: DownlinkSpec, seed=0, samples=100):
    perms = ul.solve_perms(spec.K, spec.L)
    se = dl.se_corner(spec.law, perms)  # the encode order of a solve order is itself
    members = bool(dl.in_je_region(spec.law, se).all())
    ok, details = _agrees_with_greedy(spec.law, dl.downlink_corner_iterative, se,
                                      all_se_corners_in_region=members)
    return ok and members, details


SUITES = {
    "lemma1": (suite_lemma1, "uplink"),
    "lemma2": (suite_lemma2, "uplink"),
    "lemma3": (suite_lemma3, "uplink"),
    "lemma4": (suite_lemma4, "uplink"),
    "lemma5": (suite_lemma5, "uplink"),
    "lemma6": (suite_lemma6, "uplink"),
    "thm1": (suite_thm1, "uplink"),
    "telescope": (suite_telescope, "uplink"),
    "lemma7": (suite_lemma7, "downlink"),
    "lemma8": (suite_lemma8, "downlink"),
    "thm3": (suite_thm3, "downlink"),
}


def run_suites(spec, names, seed=0, samples=None):
    """Run the named suites against a spec; returns (all_passed, results)."""
    direction = "uplink" if isinstance(spec, UplinkSpec) else "downlink"
    if names == ["all"]:
        names = [n for n, (_, d) in SUITES.items() if d == direction]
    results = {}
    all_ok = True
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        fn, d = SUITES[name]
        if d != direction:
            raise ValueError(f"suite {name!r} applies to {d} specs, got {direction}")
        kwargs = {"seed": seed}
        if samples is not None:
            kwargs["samples"] = samples
        ok, details = fn(spec, **kwargs)
        results[name] = {"passed": ok, "details": details}
        all_ok = all_ok and ok
    return all_ok, results
