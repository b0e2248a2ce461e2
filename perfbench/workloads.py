"""The four benchmark workloads: seeded inputs, op lists and output checks.

Each workload turns `--seed` into spec files in a work directory and a
list of ops.  An op is one `cranregions` CLI argv; the program sees only
those files and argv.  A run repeats the op list in whole passes, so both
commits do the same work.

Every op has a check on its output, returning one of:

    OK        the answer is there and passes the check
    UNSOLVED  the program reported, correctly, that it found no answer
              (exit 3 from `psi --invert`); counted as failed, not wrong
    WRONG     any other exit code, or an output that fails the check
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cranregions.specio import load_spec
from cranregions.splitting import psi

OK, UNSOLVED, WRONG = "ok", "unsolved", "wrong"

DEFAULT_SEED = 0
REFERENCE_FILE = pathlib.Path(__file__).resolve().parent / "reference" / "seed0.json"

UPLINK_SUITES = ("lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6", "thm1", "telescope")
VERTEX_TOL = 1e-9
INVERT_TOL = 1e-4
ROW_GAP = 0.2  # least gap between random channel rows, see _separated_rows

PANEL_SEED = 2024  # inputs of invert-up-k2l2, the same on every --seed

SLICE_STEPS = 21
SLICE_ARGS = [
    "--vary", "R1,C1",
    "--fixed", "R2=0.02,R3=0.02,C2=1.0,C3=1.0",
    "--min", "0", "--max", "0.4",
    "--steps", str(SLICE_STEPS),
]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    key: str  # names the input; ops with one key must print the same report
    check: Callable[[int, str], tuple[str, str]]


# --- seeded spec documents -------------------------------------------------


def _rows(rng, n):
    """n random binary pmfs, kept 0.05 away from 0 and 1."""
    return 0.05 + 0.9 * rng.dirichlet(np.ones(2), size=n)


def _separated_rows(rng, n_inputs):
    """A random binary channel from n_inputs binary inputs, shape
    (2,) * n_inputs + (2,), kept 0.05 away from 0 and 1.

    Two rows that differ in one input differ by at least ROW_GAP, so every
    input moves the output.  Without the gap about 3% of random K=L=2
    specs have a cross information below 1e-6, where the program's
    tolerances disagree (see the README's findings).
    """
    while True:
        p = 0.05 + 0.9 * rng.uniform(size=(2,) * n_inputs)
        if all(np.all(np.abs(np.diff(p, axis=a)) >= ROW_GAP) for a in range(n_inputs)):
            return np.stack([p, 1.0 - p], axis=-1)


def _bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def uplink_doc(rng, K, L):
    """Binary uplink with a factorised channel p(y|x) = prod_l p(y_l|x).

    The corner equivalences the checks rely on need each relay to see its
    own channel output, and specs that are not near a degenerate one.
    """
    chan = np.ones((2,) * (K + L))
    for l in range(L):
        f = _separated_rows(rng, K)
        chan = chan * f.reshape((2,) * K + tuple(2 if i == l else 1 for i in range(L)))
    return {
        "direction": "uplink", "K": K, "L": L,
        "alphabets": {"X": [2] * K, "Y": [2] * L, "Yhat": [2] * L},
        "input_pmfs": _rows(rng, K).tolist(),
        "channel": chan.tolist(),
        "test_channels": [_separated_rows(rng, 1).tolist() for _ in range(L)],
    }


def downlink_doc(rng, K, L):
    """Binary downlink whose region reaches positive rates.

    The U_k are independent, X_l is a noisy copy of U_(l mod K) and Y_k a
    noisy copy of X_(k mod L), each mixed with a random draw so that no
    entry is special.
    """
    aux = np.ones(())
    for q in rng.uniform(0.35, 0.65, K):
        aux = np.multiply.outer(aux, [1.0 - q, q])
    for l in range(L):
        src = l % K
        cond = _bsc(rng.uniform(0.05, 0.2)).reshape(
            (1,) * src + (2,) + (1,) * (K - src - 1 + l) + (2,)
        )
        aux = aux[..., None] * cond
    noise = rng.dirichlet(np.ones(2 ** (K + L))).reshape((2,) * (K + L))
    aux = 0.85 * aux + 0.15 * noise
    chan = np.ones((2,) * (L + K))
    for k in range(K):
        src = k % L
        f = _bsc(rng.uniform(0.05, 0.2)).reshape((1,) * src + (2,) + (1,) * (L - src - 1) + (2,))
        f = 0.9 * np.broadcast_to(f, (2,) * (L + 1)) + 0.1 * _rows(rng, 2**L).reshape((2,) * (L + 1))
        chan = chan * f.reshape((2,) * L + tuple(2 if i == k else 1 for i in range(K)))
    return {
        "direction": "downlink", "K": K, "L": L,
        "alphabets": {"U": [2] * K, "X": [2] * L, "Y": [2] * K},
        "aux_joint": aux.tolist(),
        "channel": chan.tolist(),
    }


def _write(workdir, name, doc):
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def _copy_shipped(root, workdir, name):
    path = workdir / name
    shutil.copyfile(root / "specs" / name, path)
    return str(path)


def _reference(workload, seed):
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(REFERENCE_FILE.read_text())[workload]


# --- output checks ---------------------------------------------------------


def _corners_check(n_rows, ref_vertices):
    def check(code, out):
        if code != 0:
            return WRONG, f"exit {code}"
        res = json.loads(out)["results"]
        if len(res["corners"]) != n_rows:
            return WRONG, f"{len(res['corners'])} rows, expected {n_rows}"
        if not all(row["is_corner"] for row in res["corners"]):
            return WRONG, "a row is not a corner"
        if ref_vertices is not None:
            got, ref = np.array(res["vertices"]), np.array(ref_vertices)
            if got.shape != ref.shape:
                return WRONG, f"{len(got)} vertices, reference has {len(ref)}"
            dist = np.max(np.abs(got[:, None, :] - ref[None, :, :]), axis=2)
            if not (np.all(dist.min(axis=0) <= VERTEX_TOL) and np.all(dist.min(axis=1) <= VERTEX_TOL)):
                return WRONG, "vertex set differs from the reference"
        return OK, ""
    return check


def _verify_check(code, out):
    if code != 0:
        return WRONG, f"exit {code}"
    res = json.loads(out)["results"]
    if sorted(res) != sorted(UPLINK_SUITES):
        return WRONG, f"suites {sorted(res)}"
    failed = [name for name, r in res.items() if not r["passed"]]
    return (WRONG, f"suites failed: {failed}") if failed else (OK, "")


def slice_grid(out):
    """Membership bits of a slice CSV as one string, R1-major."""
    lines = out.strip().splitlines()
    if lines[0] != "R1,C1,in_region":
        raise ValueError(f"header {lines[0]!r}")
    return "".join(line.rsplit(",", 1)[1] for line in lines[1:])


def _slice_check(ref_bits):
    def check(code, out):
        if code != 0:
            return WRONG, f"exit {code}"
        bits = slice_grid(out)
        if len(bits) != SLICE_STEPS**2 or set(bits) - {"0", "1"}:
            return WRONG, f"{len(bits)} grid cells"
        g = np.array([int(b) for b in bits]).reshape(SLICE_STEPS, SLICE_STEPS)
        # rows: R1 rising; columns: C1 rising
        if np.any(np.diff(g, axis=1) < 0) or np.any(np.diff(g, axis=0) > 0):
            return WRONG, "membership is not a staircase in (R1, C1)"
        if ref_bits is not None and bits != ref_bits:
            return WRONG, "grid differs from the reference"
        return OK, ""
    return check


def _invert_check(spec, target):
    def check(code, out):
        if code not in (0, 3):
            return WRONG, f"exit {code}"
        res = json.loads(out)["results"]
        if code == 3:
            if res["converged"] or not res["residual"] > INVERT_TOL:
                return WRONG, "exit 3 with a converged report"
            return UNSOLVED, f"no convergence after {res['n_evals']} evaluations"
        residual = float(np.max(np.abs(psi(spec, res["alpha"]).as_vector() - target)))
        if not (res["converged"] and residual <= INVERT_TOL):
            return WRONG, f"psi(alpha) misses the target by {residual:.3g}"
        return OK, ""
    return check


# --- workloads -------------------------------------------------------------


def corners_k5(seed, workdir, root):
    rng = np.random.default_rng(seed)
    refs = _reference("corners-k5", seed)
    ops = []
    for rep in range(2):
        for direction, K, L in (("uplink", 3, 2), ("uplink", 2, 3),
                                ("downlink", 3, 2), ("downlink", 2, 3)):
            make = uplink_doc if direction == "uplink" else downlink_doc
            name = f"{direction}_k{K}l{L}_{rep}.json"
            path = _write(workdir, name, make(rng, K, L))
            check = _corners_check(math.factorial(K + L), refs.get(name))
            ops.append(Op(("corners", path), name, check))
    return ops


def verify_up_k2l2(seed, workdir, root):
    rng = np.random.default_rng(seed)
    paths = [_copy_shipped(root, workdir, "uplink_k2l2.json")]
    paths.append(_write(workdir, "random_0.json", uplink_doc(rng, 2, 2)))
    paths.append(_copy_shipped(root, workdir, "product_k2l2.json"))
    paths += [_write(workdir, f"random_{i}.json", uplink_doc(rng, 2, 2)) for i in (1, 2)]
    argv = ("--suite", "all", "--samples", "20")
    return [Op(("verify", p) + argv, pathlib.Path(p).name, _verify_check) for p in paths]


def slice_dl_k3l3(seed, workdir, root):
    rng = np.random.default_rng(seed)
    refs = _reference("slice-dl-k3l3", seed)
    ops = []
    for i in range(3):
        name = f"downlink_k3l3_{i}.json"
        path = _write(workdir, name, downlink_doc(rng, 3, 3))
        ops.append(Op(("slice", path, *SLICE_ARGS), name, _slice_check(refs.get(name))))
    return ops


def invert_up_k2l2(seed, workdir, root):
    """A fixed panel of six targets; the seed only shuffles their order.

    The cost of one inversion runs from a few to 5000 psi evaluations, so
    the few passes of a run cannot average over targets drawn afresh for
    each seed: op_mean_ref and op_p90_ref then moved by half their value
    from seed to seed.  The panel is three targets on the shipped spec and
    one on each of three random specs, all drawn from PANEL_SEED.
    """
    rng = np.random.default_rng(PANEL_SEED)
    jobs = [(_copy_shipped(root, workdir, "uplink_k2l2.json"), a) for a in rng.uniform(size=(3, 3))]
    for i in range(3):
        jobs.append((_write(workdir, f"random_{i}.json", uplink_doc(rng, 2, 2)), rng.uniform(size=3)))
    ops = []
    for n, (path, alpha) in enumerate(jobs):
        spec = load_spec(path)
        target = psi(spec, alpha).as_vector()
        argv = ("psi", path, "--invert", ",".join(repr(float(v)) for v in target))
        ops.append(Op(argv, f"target_{n}", _invert_check(spec, target)))
    return [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]


WORKLOADS = {
    "corners-k5": corners_k5,
    "verify-up-k2l2": verify_up_k2l2,
    "slice-dl-k3l3": slice_dl_k3l3,
    "invert-up-k2l2": invert_up_k2l2,
}
