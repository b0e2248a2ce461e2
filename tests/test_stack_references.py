"""The verify suites on whole stacks against the per-order, per-point and
per-name loops they replace, kept here as references: the greedy corner
procedure, the closed-form, successive-decoding and successive-encoding
corners and every entry of their tables, the face-decomposition check, the
factorization test of the dominant face, the telescope suite, the merge
check and rates of the splitting map, psi one alpha at a time and the
inversion's one-column-at-a-time Jacobians.  Every shipped spec and seeded
specs up to K+L = 6 are checked.  The face bounds and the decoding order
of an alpha are checked against the formulas they were first written as:
one name-keyed bound formula per region, and a walk over the whole
generalized order; the normals of the region rows against the per-pair
loop that first set them; the table of pair terms, the region bounds, the
scalar slack and the greedy corners against the per-pair term formulas.
The solve-order certificate of
`check_corner` is checked against the exact elimination it skips."""

import math
import pathlib
from functools import partial

import numpy as np
import pytest

from cranregions import (
    JointLaw,
    RateFronthaulPoint,
    build_downlink_joint,
    build_uplink_joint,
    mutual_info,
)
from cranregions import downlink as dl
from cranregions import face as df
from cranregions import prob
from cranregions import splitting as sp
from cranregions import suites
from cranregions import uplink as ul
from cranregions.prob import (
    FACE_TOL,
    PIVOT_TOL,
    LawError,
    UplinkSpec,
    clamp_info,
    u_names,
    x_names,
    y_names,
    yh_names,
)
from cranregions.specio import load_spec

from conftest import (
    build_region,
    entropy_of,
    identity_chain_spec,
    pair_of_row,
    prefix_sets,
    random_downlink_spec,
    random_uplink_spec,
)
from test_corner_arrays import quadratic_dedup

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (3, 2), (2, 3), (4, 1), (3, 3), (2, 4), (5, 1)]
SHIPPED = {"uplink": ["identity_k1l1", "uplink_k2l2", "product_k2l2"],
           "downlink": ["downlink_k1l1", "downlink_k2l2"]}
CASES = [(d, name) for d, names in SHIPPED.items() for name in names] + [
    (d, (K, L)) for d in ("uplink", "downlink") for K, L in SHAPES]


def _spec(direction, case):
    if isinstance(case, str):
        return load_spec(SPECS / f"{case}.json")
    K, L = case
    rng = np.random.default_rng(3000 + 10 * K + L)
    return (random_uplink_spec if direction == "uplink" else random_downlink_spec)(rng, K, L)


def _ids(case):
    return case if isinstance(case, str) else "k%dl%d" % case


UPLINK = [c for d, c in CASES if d == "uplink"]


# --- the references ---


def loop_greedy(slack, perm, K, L):
    """Reference: one scalar slack per step of one solve-order row."""
    vec = np.zeros(K + L)
    for k, c in enumerate(perm, start=1):
        I, J = prefix_sets(perm, k, K)
        point = vec.copy()
        if c < K:
            vec[c] = slack(point, I | {c + 1}, J)
        else:
            vec[c] = -slack(point, I, J | {c - K + 1})
    return vec


def scalar_jd_terms(law, K, L, S, T):
    """Reference: -f(S, T) of the joint-decoding constraint as the signed terms
    that the slack adds to C(T) - R(S), in its order, for one pair."""
    Sc = set(range(1, K + 1)) - set(S)
    Tc = set(range(1, L + 1)) - set(T)
    return (
        -mutual_info(law, y_names(T), yh_names(T), x_names(range(1, K + 1))),
        mutual_info(law, x_names(S), yh_names(Tc), x_names(Sc)),
    )


def scalar_je_terms(law, K, L, S, T):
    """Reference: -f(S, T) of the joint-encoding constraint as the signed terms
    that the slack adds to C(T) - R(S), in its order, for one pair."""
    return (
        ul.add_terms(0.0, (mutual_info(law, u_names([k]), y_names([k])) for k in sorted(S))),
        -dl.istar(law, u_names(S)),
        -dl.istar(law, x_names(T)),
        -mutual_info(law, u_names(S), x_names(T)),
    )


def scalar_slack(terms, law, K, L):
    """Reference: the slack of one (S, T) pair at one point, with its own call
    of the pair's terms."""
    return lambda x, S, T: ul.add_terms(ul.capacity_minus_rate(x, K, S, T),
                                        terms(law, K, L, S, T))


def loop_region_rows(K, L):
    """Reference: the normal of the (S, T) pair of each bitmask, -1 on R_S and
    +1 on C_T, set one pair at a time."""
    A = np.zeros((1 << (K + L), K + L))
    for i, row in enumerate(A):
        S, T = pair_of_row(i, K, L)
        row[[k - 1 for k in S]] = -1.0
        row[[K + l - 1 for l in T]] = 1.0
    return A


def row_pairs(K, L):
    """The (S, T) sets of every row of a full region, in row order."""
    return [pair_of_row(i, K, L) for i in range(1 << (K + L))]


def loop_sd_corner(law, row, K, L):
    """Reference: the successive-decoding corner of a decode-order row (X_1..X_K,
    Yh_1..Yh_L numbered 0..K+L-1), one decoded variable at a time."""
    R, C = np.zeros(K), np.zeros(L)
    before = []
    for v in row:
        if v >= K:
            l = v - K + 1
            lab = f"Yh{l}"
            C[l - 1] = mutual_info(law, [f"Y{l}"], [lab]) - mutual_info(law, [lab], before)
        else:
            lab = f"X{v + 1}"
            R[v] = mutual_info(law, [lab], before)
        before.append(lab)
    return np.concatenate([R, C])


def loop_se_corner(law, row, K, L):
    """Reference: the successive-encoding corner of an encode-order row (U_1..U_K,
    X_1..X_L numbered 0..K+L-1), one encoded variable at a time."""
    R, C = np.zeros(K), np.zeros(L)
    before = []
    for v in row:
        if v < K:
            lab = f"U{v + 1}"
            R[v] = mutual_info(law, [lab], [f"Y{v + 1}"]) - mutual_info(law, [lab], before)
        else:
            lab = f"X{v - K + 1}"
            C[v - K] = mutual_info(law, [lab], before)
        before.append(lab)
    return np.concatenate([R, C])


def loop_jd_closed_corner(law, perm, K, L):
    """Reference: the closed-form corner of a solve-order row, one coordinate at
    a time: R_b = I(X_b; Yh_{J^c} | X_{I^c - b}) and
    C_b = I(Y_b; Yh_b) - I(Yh_b; X_{I^c}, Yh_{J^c - b}) for I, J solved before."""
    users, relays = set(range(1, K + 1)), set(range(1, L + 1))
    vec = np.zeros(K + L)
    for k, c in enumerate(perm, start=1):
        I, J = prefix_sets(perm, k, K)
        vec[c] = scalar_jd_closed(law, K, c, users - I, relays - J)
    return vec


def scalar_jd_closed(law, K, c, Ic, Jc):
    """The uplink closed form of coordinate c with users Ic and relays Jc unsolved."""
    if c < K:
        b = c + 1
        return mutual_info(law, x_names([b]), yh_names(Jc), x_names(Ic - {b}))
    b = c - K + 1
    return mutual_info(law, y_names([b]), yh_names([b])) - mutual_info(
        law, yh_names([b]), x_names(Ic) + yh_names(Jc - {b}))


def scalar_sd(law, K, c, I, J):
    """The successive-decoding value of coordinate c decoded after X_I, Yh_J."""
    before = x_names(I) + yh_names(J)
    if c < K:
        return mutual_info(law, x_names([c + 1]), before)
    l = [c - K + 1]
    return mutual_info(law, y_names(l), yh_names(l)) - mutual_info(law, yh_names(l), before)


def scalar_se(law, K, c, I, J):
    """The successive-encoding value of coordinate c encoded after U_I, X_J."""
    before = u_names(I) + x_names(J)
    if c < K:
        k = [c + 1]
        return mutual_info(law, u_names(k), y_names(k)) - mutual_info(law, u_names(k), before)
    return mutual_info(law, x_names([c - K + 1]), before)


def scan_factorization(law, q):
    """Reference: every product of the two deduplicated projections has a vertex
    within FACE_TOL, and there are as many vertices as products."""
    K, L = law.dims("uplink")
    enum = ul.enumerate_corners(law)
    mat = enum.points[enum.kept]
    mask = q.mask(K, L)
    proj_a = mat[:, mask][quadratic_dedup(mat[:, mask], FACE_TOL)]
    proj_b = mat[:, ~mask][quadratic_dedup(mat[:, ~mask], FACE_TOL)]
    if len(mat) != len(proj_a) * len(proj_b):
        return False
    for ra in proj_a:
        for rb in proj_b:
            vec = np.empty(K + L)
            vec[mask], vec[~mask] = ra, rb
            if not np.any(np.max(np.abs(mat - vec), axis=1) <= FACE_TOL):
                return False
    return True


def split_factorization(law, q):
    """Reference: the factorization verdict of one split, from one `dedup_index`
    call per projection: the vertex set is their product when n_a divides n
    and the pairs of kept rows are distinct and n_a * n_b."""
    K, L = law.dims("uplink")
    mask = q.mask(K, L)
    if not mask[0]:
        mask = ~mask  # the complement query splits the coordinates the same way
    mat = ul.enumerate_corners(law).vertices
    n = len(mat)
    a = ul.dedup_index(mat[:, mask], FACE_TOL)
    n_a = np.count_nonzero(a == np.arange(n))
    if n % n_a:  # no product of n_a rows has n vertices
        return False
    b = ul.dedup_index(mat[:, ~mask], FACE_TOL)
    n_b = np.count_nonzero(b == np.arange(n))
    return bool(n == n_a * n_b and len(np.unique(a * n + b)) == n)


def loop_face_decomposition(law, q, tol):
    """Reference: the exact face decomposition check of one query, with the face
    corners found by in_face_FST, which checks the dominant face again for
    every query.  Forward: the corners outside a sub-face.  Converse: the
    pairs of kept rows of the two projections (one `dedup_index` call each,
    at max(tol, PIVOT_TOL)) that are no corner's pair of kept rows."""
    K, L = law.dims("uplink")
    enum = ul.enumerate_corners(law)
    vertices = enum.points[enum.kept]
    mat = vertices[df.in_face_FST(law, vertices, q, tol)]
    if not len(mat):
        return 0, 0
    forward = df.in_sub_face_DST(law, mat, q, tol) & df.in_sub_face_cond(law, mat, q, tol)
    mask = q.mask(K, L)
    a, b = (ul.dedup_index(mat[:, m], max(tol, PIVOT_TOL)).tolist() for m in (mask, ~mask))
    return int(np.sum(~forward)), len(set(a)) * len(set(b)) - len(set(zip(a, b)))


def loop_telescope(spec, seed, samples):
    """Reference: one alpha draw, one psi call and one face check per sample;
    the gap is the scalar slack of the ([K], [L]) constraint."""
    law = spec.law
    rng = np.random.default_rng(seed)
    alphas, worst, on_face = [], 0.0, True
    for _ in range(samples):
        alpha = rng.uniform(0.0, 1.0, size=spec.K + spec.L - 1)
        point = sp.psi(spec, alpha).as_vector()
        gap = ul.jd_slack(law, point, range(1, spec.K + 1), range(1, spec.L + 1))
        worst = max(worst, abs(gap))
        on_face = on_face and bool(df.on_dominant_face(law, point[None], tol=FACE_TOL)[0])
        alphas.append(alpha)
    return np.array(alphas), worst, on_face


def add_at_merge(vc):
    """Reference: the pushforward through the merge maps of a one-row stack by
    one np.add.at."""
    (probs,) = vc.probs
    grid = dict(zip(vc.names, np.indices(probs.shape)))
    idx = [grid["X1"]]
    idx += [np.maximum(grid[f"X{i}a"], grid[f"X{i}b"]) for i in range(2, vc.K + 1)]
    idx += [grid[f"Y{l}"] for l in range(1, vc.L + 1)]
    idx += [np.maximum(grid[f"Yh{l}c"], grid[f"Yh{l}d"]) for l in range(1, vc.L + 1)]
    out = np.zeros((2,) * (vc.K + 2 * vc.L))
    np.add.at(out, tuple(idx), probs)
    return out


def name_beta_rates(vc, config):
    """Reference: each rate as a mutual information of named virtual variables,
    in the law of a one-row stack."""
    (probs,) = vc.probs
    law, betas, decoded = JointLaw(vc.names, probs), {}, []
    for lab in config.order:
        if lab == "1" or lab[-1] in "ab":
            var = f"X{lab}"
            betas[lab] = mutual_info(law, [var], decoded)
        else:
            var = f"Yh{lab}"
            betas[lab] = mutual_info(law, [f"Y{lab[:-1]}"], [var], decoded)
        decoded.append(var)
    return betas


def loop_build_virtual_cran(spec, config):
    """Reference: the virtual joint of one config, factor by factor from the
    scalar split formulas, into a law of its own."""
    K, L = spec.K, spec.L
    n_in, n = 2 * K - 1, 2 * K - 1 + 3 * L
    names, px = ["X1"], np.multiply.outer(np.ones(()), spec.input_pmfs[0])
    for i in range(2, K + 1):
        a, e = float(spec.input_pmfs[i - 1][1]), config.epsilon[i]
        for p1 in (a * e, a * (1.0 - e) / (1.0 - a * e)):  # U, then V
            px = np.multiply.outer(px, np.array([1.0 - p1, p1]))
        names += [f"X{i}a", f"X{i}b"]
    grids = np.indices((2,) * n_in)
    merged = [grids[0]] + [np.maximum(grids[2 * i - 3], grids[2 * i - 2]) for i in range(2, K + 1)]
    joint = px.reshape((2,) * n_in + (1,) * L) * spec.channel[tuple(merged)]
    full = np.broadcast_to(joint.reshape(joint.shape + (1,) * (2 * L)), (2,) * n).copy()
    for l in range(1, L + 1):
        e, p_uv_yh = config.epsilon[K + l], np.zeros((2, 2, 2))
        for yh in range(2):
            p_uv_yh[yh, 0, yh] += 1.0 - e
            p_uv_yh[yh, yh, 0] += e
        shape = [1] * n
        shape[n_in + l - 1] = shape[n_in + L + 2 * l - 2] = shape[n_in + L + 2 * l - 1] = 2
        full *= np.einsum("yh,huv->yuv", spec.test_channels[l - 1], p_uv_yh).reshape(shape)
    names += [f"Y{l}" for l in range(1, L + 1)]
    names += [f"Yh{l}{h}" for l in range(1, L + 1) for h in "cd"]
    return JointLaw(names, full)


def loop_beta_rates(law, config, K, L):
    """Reference: one config's rates by the arithmetic of `beta_rates`, from
    tensors of its own, and the point they assemble to as a vector.  Each
    marginal is a chain of sums over one named axis at a time: the other relay
    outputs from Y_L down to Y_l+1, then from Y_1 up, in the virtual layout;
    below that the latest decoded variable first.  Each marginal is laid out
    with the decoded from the latest and Y_l last; a decoded input alone is its
    shortest prefix with the earlier variables summed from the latest.  Each
    entropy is -x log2 x over the marginal's positive entries in that layout,
    added as np.add.reduceat adds one segment."""
    decoded = [f"X{lab}" if lab == "1" or lab[-1] in "ab" else f"Yh{lab}" for lab in config.order]
    m, ys = len(decoded), [f"Y{l}" for l in range(1, L + 1)]

    def summed(names, probs, drop):
        for v in drop:
            probs = probs.sum(axis=names.index(v))
            names = [u for u in names if u != v]
        return names, probs

    def laid_out(names, probs, order):
        return probs.transpose([names.index(v) for v in order])

    def H(q):
        t = q[q > 0]
        return -float(np.add.reduceat(t * np.log2(t), [0])[0])

    hy, hp, prefix = {}, [0.0] * (m + 1), [None] * (m + 1)
    for l in range(1, L + 1):
        names, top = summed(list(law.names), law.probs, ys[l:][::-1] + ys[:l - 1])
        hy[l, m] = H(laid_out(names, top, decoded[::-1] + [ys[l - 1]]))
        q = laid_out(*summed(names, top, decoded[-1:]), decoded[-2::-1] + [ys[l - 1]])
        for k in range(m - 1, -1, -1):  # q holds decoded[:k], latest first, and Y_l
            hy[l, k] = H(q)
            q = q.sum(axis=0) if k else q
        if l == 1:
            q = laid_out(*summed(names, top, ys[:1]), decoded[::-1])
            for k in range(m, 0, -1):
                prefix[k], hp[k] = q, H(q)
                q = q.sum(axis=0)
    betas = {}
    for k, (lab, var) in enumerate(zip(config.order, decoded)):
        if var[0] == "X":
            q = prefix[k + 1]
            for _ in range(k):
                q = q.sum(axis=1)
            val = H(q) + hp[k] - hp[k + 1]
        else:
            l = int(lab[:-1])
            val = hy[l, k] + hp[k + 1] - hy[l, k + 1] - hp[k]
        betas[lab] = clamp_info(val)
    R = [betas["1"]] + [betas[f"{i}a"] + betas[f"{i}b"] for i in range(2, K + 1)]
    return betas, np.array(R + [betas[f"{l}c"] + betas[f"{l}d"] for l in range(1, L + 1)])


def marginal_beta_rates(law, config, K, L):
    """Reference: one config's rates by the formula psi used before, one
    `entropy_of` per marginal from one transposed tensor, and the point they
    assemble to as a vector; within 1e-13 of the entropy pass of
    `beta_rates`, whose additions run in another order."""
    decoded = [f"X{lab}" if lab == "1" or lab[-1] in "ab" else f"Yh{lab}" for lab in config.order]
    m = len(decoded)
    p = law.probs.transpose(law.axes(decoded + [f"Y{l}" for l in range(1, L + 1)]))

    def prefixes(q):
        out = [q]
        for k in range(m, 0, -1):
            out.append(out[-1].sum(axis=k - 1))
        return out[::-1]

    marginal = prefixes(p.sum(axis=tuple(range(m, m + L))))
    h = [0.0] + [entropy_of(q) for q in marginal[1:]]
    with_y = [prefixes(p.sum(axis=tuple(m + j for j in range(L) if j != l))) for l in range(L)]
    betas = {}
    for k, (lab, var) in enumerate(zip(config.order, decoded)):
        if var[0] == "X":
            val = entropy_of(marginal[k + 1].sum(axis=tuple(range(k)))) + h[k] - h[k + 1]
        else:
            q = with_y[int(lab[:-1]) - 1]
            val = entropy_of(q[k]) + h[k + 1] - entropy_of(q[k + 1]) - h[k]
        betas[lab] = clamp_info(val)
    R = [betas["1"]] + [betas[f"{i}a"] + betas[f"{i}b"] for i in range(2, K + 1)]
    return betas, np.array(R + [betas[f"{l}c"] + betas[f"{l}d"] for l in range(1, L + 1)])


def loop_psi(spec, alphas):
    """Reference: psi of one alpha, or of each row of a stack, one at a time, each
    configuration from the walk over the generalized order."""
    def one(alpha):
        config = walk_decode_order(spec.K, spec.L, alpha)
        return loop_beta_rates(loop_build_virtual_cran(spec, config), config, spec.K, spec.L)[1]

    if np.ndim(alphas) < 2:
        point = one(alphas)
        return RateFronthaulPoint(point[:spec.K], point[spec.K:])
    return np.reshape([one(a) for a in alphas], (len(alphas), spec.K + spec.L))


def loop_minimize(residual, x, tol, budget):
    """Reference: the damped Newton steps with one residual call per point and
    per Jacobian column, the columns stacked by np.column_stack."""
    def one(y):
        return residual(y[None])[0]

    x = np.clip(x, sp.EPS_MARGIN, 1.0 - sp.EPS_MARGIN)
    r, calls, lam, d = one(x), 1, 1e-3, len(x)
    for _ in range(sp.CELL_STEPS):
        if np.max(np.abs(r)) <= tol or calls + d + 1 > budget or lam > 1e8:
            break
        h = np.where(x < 0.5, 1e-7, -1e-7)
        J = np.column_stack([(one(x + h * e) - r) / h[i] for i, e in enumerate(np.eye(d))])
        calls += d
        A, g = J.T @ J, J.T @ r
        while lam <= 1e8 and calls < budget:
            step = np.linalg.solve(A + lam * np.diag(np.diag(A) + 1e-12), g)
            y = np.clip(x - step, sp.EPS_MARGIN, 1.0 - sp.EPS_MARGIN)
            ry, calls = one(y), calls + 1
            if ry @ ry < r @ r:
                x, r, lam = y, ry, max(lam / 10, 1e-9)
                break
            lam *= 10
    return x, r, calls


def closure_sub_faces(law, q):
    """Reference: the regions of D_{S,T} and of D_{S^c,T^c | S,T}, each from its
    own bound formula."""
    K, L = law.dims("uplink")
    S, T = set(q.S), set(q.T)
    Sc, Tc = set(range(1, K + 1)) - S, set(range(1, L + 1)) - T

    def leading(A, B):
        lb = mutual_info(law, y_names(B), yh_names(B), x_names(S) + yh_names(T - B)) - mutual_info(
            law, x_names(A), yh_names(T - B), x_names(S - A))
        return lb, mutual_info(law, y_names(B), yh_names(B), x_names(A))

    def conditional(A, B):
        side = yh_names((Tc - B) | T)
        lb = mutual_info(law, y_names(B), yh_names(B), x_names(range(1, K + 1)) + side) - (
            mutual_info(law, x_names(A), side, x_names((Sc - A) | S)))
        ub = mutual_info(law, y_names(B), yh_names(B), x_names(A | S) + yh_names(T)) - (
            mutual_info(law, x_names(A), yh_names(T), x_names(S)))
        return lb, ub

    return build_region(K, L, q.S, q.T, leading), build_region(K, L, Sc, Tc, conditional)


def closure_alt(law):
    """Reference: the region of `on_dominant_face_alt` from its bound formula."""
    K, L = law.dims("uplink")
    allx = x_names(range(1, K + 1))

    def bounds(S, T):
        Sc, Tc = set(range(1, K + 1)) - S, set(range(1, L + 1)) - T
        lb = mutual_info(law, y_names(T), yh_names(T), allx) - mutual_info(
            law, x_names(S), yh_names(Tc), x_names(Sc))
        return lb, mutual_info(law, y_names(T), yh_names(T), x_names(S))

    return build_region(K, L, range(1, K + 1), range(1, L + 1), bounds)


def closure_cap(law, q):
    """Reference: the cap row of F_{S,T}, lb = ub = I(Y_T; Yh_T | X_S)."""
    K, L = law.dims("uplink")
    normal = q.mask(K, L) * np.repeat([-1.0, 1.0], [K, L])
    cap = np.array([mutual_info(law, y_names(q.T), yh_names(q.T), x_names(q.S))])
    return ul.Region(normal[None], cap, cap)


def closure_cross(law, q):
    """Reference: the two cross informations of the degeneracy condition."""
    K, L = law.dims("uplink")
    Sc, Tc = set(range(1, K + 1)) - q.S, set(range(1, L + 1)) - q.T
    return (mutual_info(law, x_names(q.S), yh_names(Tc), x_names(Sc)),
            mutual_info(law, x_names(Sc), yh_names(q.T), x_names(q.S)))


def interleaved_order(n):
    """Reference: the generalized order by its recursive interleaving."""
    order = [(1, 1)]
    for i in range(2, n + 1):
        row = [(i, c) for c in range(1, 2 ** (i - 1) + 1)]
        order = [row[k // 2] if k % 2 == 0 else order[k // 2] for k in range(2 * len(order) + 1)]
    return tuple(order)


def scalar_alpha_to_indices(alpha_i, i):
    """Reference: the subinterval index and split parameter of one alpha of row
    i, by the scalar formula."""
    if not 0.0 <= alpha_i <= 1.0:
        raise ValueError(f"alpha={alpha_i} outside [0,1]")
    m = 2 ** (i - 1) - 1
    j = m if alpha_i == 1.0 else int(math.floor(alpha_i * m)) + 1
    return j, float(alpha_i * m - j + 1)


def walk_decode_order(K, L, alpha):
    """Reference: the split configuration of one alpha, its order found by a walk
    over the whole generalized order; the first active element met in a row is
    that row's "a"/"c" half."""
    js, eps = {}, {}
    for i, a in zip(range(2, K + L + 1), alpha):
        js[i], eps[i] = scalar_alpha_to_indices(float(a), i)
    active = {(1, 1)} | {(i, js[i] + h) for i in js for h in (0, 1)}
    order, seen = [], set()
    for row, col in interleaved_order(K + L):
        if (row, col) in active:
            first = row not in seen
            seen.add(row)
            if row == 1:
                order.append("1")
            elif row <= K:
                order.append(f"{row}{'a' if first else 'b'}")
            else:
                order.append(f"{row - K}{'c' if first else 'd'}")
    return sp.SplitConfig(K=K, L=L, j=js, epsilon=eps, order=tuple(order))


# --- the comparisons ---


@pytest.mark.parametrize("direction, case", CASES, ids=lambda c: _ids(c))
def test_greedy_stack_matches_per_order_loop(direction, case):
    spec = _spec(direction, case)
    if direction == "uplink":
        law, slack, iterative = spec.law, ul.jd_slack, ul.corner_iterative
        enum = ul.enumerate_corners(spec.law)
    else:
        law, slack, iterative = spec.law, dl.je_slack, dl.downlink_corner_iterative
        enum = dl.downlink_enumerate_corners(spec.law)
    perms = ul.solve_perms(spec.K, spec.L)
    ref = np.array([loop_greedy(partial(slack, law), p, spec.K, spec.L) for p in perms.tolist()])
    stack = iterative(law, enum.perms)
    assert np.array_equal(stack, ref)  # bit for bit, so max_deviation is too
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(ref, enum.points))
    suite = suites.suite_lemma1 if direction == "uplink" else suites.suite_lemma7
    assert suite(spec)[1]["max_deviation"] == worst
    assert np.array_equal(iterative(law, perms[:1]), ref[:1])  # a one-row stack


@pytest.mark.parametrize("direction, case", CASES, ids=lambda c: _ids(c))
def test_successive_table_matches_per_order_loop(direction, case):
    spec = _spec(direction, case)
    law, K, L = spec.law, spec.K, spec.L
    perms = ul.solve_perms(K, L)
    if direction == "uplink":  # the decode order of a solve order is its reversal
        coded, corner, loop = perms[:, ::-1], ul.sd_corner, loop_sd_corner
    else:  # the encode order of a solve order is itself
        coded, corner, loop = perms, dl.se_corner, loop_se_corner
    ref = np.array([loop(law, row, K, L) for row in coded.tolist()])
    assert np.array_equal(corner(law, coded), ref)
    assert np.array_equal(corner(law, coded[-1:]), ref[-1:])  # a one-row stack
    # thm1 and thm3 measure these corners against the greedy corners of the solve orders
    greedy = (ul.corner_iterative if direction == "uplink" else dl.downlink_corner_iterative)(
        law, perms)
    suite = suites.suite_thm1 if direction == "uplink" else suites.suite_thm3
    assert suite(spec)[1]["max_deviation"] == float(np.max(np.abs(ref - greedy)))


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_closed_form_corners_match_per_order_loop(case):
    spec = _spec("uplink", case)
    law, K, L = spec.law, spec.K, spec.L
    perms = ul.solve_perms(K, L)
    ref = np.array([loop_jd_closed_corner(law, row, K, L) for row in perms.tolist()])
    assert ul.corner_closed(law, perms).tobytes() == ref.tobytes()
    assert ul.corner_closed(law, perms[-1:]).tobytes() == ref[-1:].tobytes()  # a one-row stack


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("K, L", [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                                  (4, 4)])
def test_corner_tables_match_their_scalar_formulas(direction, K, L):
    """Every entry of the closed-form, successive-decoding and successive-encoding
    tables against its name-keyed formula, read on a second copy of the law so
    that neither side reads an entropy the other cached; entries of a
    coordinate already solved stay 0."""
    make = random_uplink_spec if direction == "uplink" else random_downlink_spec
    law, fresh = (make(np.random.default_rng(4000 + 10 * K + L), K, L).law for _ in range(2))
    users, relays = set(range(1, K + 1)), set(range(1, L + 1))
    if direction == "uplink":
        tables = [(ul._jd_closed_form(law), lambda c, I, J: scalar_jd_closed(
                      fresh, K, c, users - I, relays - J)),
                  (ul._sd_table(law), partial(scalar_sd, fresh, K))]
    else:
        tables = [(dl._se_table(law), partial(scalar_se, fresh, K))]
    n = K + L
    for table, formula in tables:
        want = np.zeros((n, 1 << n))
        for P in range(1 << n):
            I = {c + 1 for c in range(K) if P >> c & 1}
            J = {c - K + 1 for c in range(K, n) if P >> c & 1}
            for c in range(n):
                if not P >> c & 1:
                    want[c, P] = formula(c, I, J)
        assert table.tobytes() == want.tobytes()


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_suites_share_one_greedy_pass_per_law(direction, monkeypatch):
    """lemma1 and thm1 (lemma7 and thm3) read the greedy corners of one pass per
    law, also when the corner function is replaced by another wrapper between the
    suites, as a tracer does."""
    spec = _spec(direction, (2, 3))
    module, name, pair = ((ul, "corner_iterative", ["lemma1", "thm1"]) if direction == "uplink"
                          else (dl, "downlink_corner_iterative", ["lemma7", "thm3"]))
    calls, iterative = [], getattr(module, name)

    def counted(law, orders):
        calls.append(len(orders))
        return iterative(law, orders)

    monkeypatch.setattr(module, name, counted)
    ok, results = suites.run_suites(spec, pair[:1])
    monkeypatch.setattr(module, name, lambda law, orders: counted(law, orders))
    ok2, results2 = suites.run_suites(spec, pair[1:])
    assert calls == [120] and ok and ok2
    fresh = _spec(direction, (2, 3))
    assert suites.run_suites(fresh, pair) == (True, {**results, **results2})


@pytest.mark.parametrize("direction, spec_name, names", [
    ("uplink", "uplink_k2l2", ["all"]),
    ("downlink", "downlink_k2l2", ["lemma7", "thm3", "lemma8"]),
])
def test_verify_computes_each_pair_term_once(direction, spec_name, names, monkeypatch):
    """The region bounds and the greedy corners read one table of pair terms
    per law: a verify run builds the table once, every row of it equals the
    pair's terms from their scalar formulas, and the greedy corners equal
    those of the scalar slack with its own call of each pair's terms."""
    module, name, terms = ((ul, "_jd_terms", scalar_jd_terms) if direction == "uplink"
                           else (dl, "_je_terms", scalar_je_terms))
    build, calls = getattr(module, name), []

    def counted(law, K, L, S, T):
        calls.append(len(S))
        return build(law, K, L, S, T)

    monkeypatch.setattr(module, name, counted)
    spec = load_spec(SPECS / f"{spec_name}.json")
    ok, _ = suites.run_suites(spec, names, seed=0, samples=5)
    K, L, law = spec.K, spec.L, spec.law
    assert ok and calls == [2 ** (K + L)]
    want = np.array([terms(law, K, L, S, T) for S, T in row_pairs(K, L)])
    assert ul.pair_terms(law, counted, K, L).tobytes() == want.tobytes()
    iterative = ul.corner_iterative if direction == "uplink" else dl.downlink_corner_iterative
    perms = ul.solve_perms(K, L)
    slack = scalar_slack(terms, law, K, L)
    ref = np.array([loop_greedy(slack, p, K, L) for p in perms.tolist()])
    assert iterative(law, perms).tobytes() == ref.tobytes()
    assert calls == [2 ** (K + L)]  # the greedy pass read the table


def _independent_user_spec(rng, K, L):
    """A random downlink spec whose U_1 is independent of the other auxiliaries
    and of X, so that its informations vanish up to rounding."""
    rest = rng.dirichlet(np.ones(2 ** (K + L - 1))).reshape((2,) * (K + L - 1))
    aux = np.multiply.outer(rng.dirichlet(np.ones(2)), rest)
    chan = rng.dirichlet(np.ones(2 ** K), size=2 ** L).reshape((2,) * (L + K))
    return prob.DownlinkSpec(K=K, L=L, aux_joint=aux, channel=chan)


PAIR_CASES = [(d, (K, L)) for d in ("uplink", "downlink")
              for K, L in [(1, 1), (1, 7), (7, 1), (2, 5), (3, 3), (4, 4)]] + [
    ("uplink", "identity_k1l1"), ("uplink", "product_k2l2"), ("downlink", "independent")]


@pytest.mark.parametrize("direction, case", PAIR_CASES, ids=lambda c: _ids(c))
def test_pair_table_matches_per_pair_terms(direction, case):
    """The table of pair terms, the region's lower bounds, the scalar slack at
    random points and the greedy corners of random solve orders against the
    pair's terms from their scalar formulas, bit for bit, read on a second copy
    of the law so that neither side reads an entropy the other cached."""
    rng = np.random.default_rng(7)
    if case == "independent":
        spec, fresh = (_independent_user_spec(np.random.default_rng(11), 2, 2) for _ in range(2))
    else:
        spec, fresh = _spec(direction, case), _spec(direction, case)
    K, L, law = spec.K, spec.L, spec.law
    if direction == "uplink":
        region, build, terms = ul.jd_region(law), ul._jd_terms, scalar_jd_terms
        slack, iterative = ul.jd_slack, ul.corner_iterative
    else:
        region, build, terms = dl.je_region(law), dl._je_terms, scalar_je_terms
        slack, iterative = dl.je_slack, dl.downlink_corner_iterative
    pairs = row_pairs(K, L)
    want = np.array([terms(fresh.law, K, L, S, T) for S, T in pairs])
    assert ul.pair_terms(law, build, K, L).tobytes() == want.tobytes()
    ref = scalar_slack(terms, fresh.law, K, L)
    origin = np.zeros(K + L)
    assert region.lb.tobytes() == np.array([-ref(origin, S, T) for S, T in pairs]).tobytes()
    points = rng.uniform(-1.0, 2.0, size=(3, K + L))
    got = [slack(law, x, S, T) for x in points for S, T in pairs]
    assert np.array(got).tobytes() == np.array(
        [ref(x, S, T) for x in points for S, T in pairs]).tobytes()
    perms = np.array([rng.permutation(K + L) for _ in range(24)])
    assert iterative(law, perms).tobytes() == np.array(
        [loop_greedy(ref, p, K, L) for p in perms.tolist()]).tobytes()


@pytest.mark.parametrize("K, L", SHAPES, ids=lambda s: str(s))
def test_region_rows_match_per_pair_loop(K, L):
    """The normals of the full region, and the user and relay bitmasks of each
    row (`uplink.pair_masks`), against the per-mask loop."""
    A, want = ul.region_rows(K, L), loop_region_rows(K, L)
    assert A.shape == want.shape and A.tobytes() == want.tobytes()  # no -0.0
    masks = [(sum(1 << (k - 1) for k in S), sum(1 << (l - 1) for l in T))
             for S, T in row_pairs(K, L)]
    assert list(zip(*(m.tolist() for m in ul.pair_masks(K, L)))) == masks


def _same_region(got, want):
    for a, b in ((got.A, want.A), (got.lb, want.lb), (got.ub, want.ub)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()  # equal bits


def sub_face_regions(law):
    """The sub-face regions of the queries (`face._sub_face`), in `face_queries`
    order: a list of their D_{S,T} and a list of their conditional sub-faces."""
    return tuple([df._sub_face(law, q, s) for q in df.face_queries(law)] for s in ("DST", "cond"))


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_sub_face_regions_match_their_own_formulas(case):
    """Every region and value of the per-law gathers of the sub-faces
    (`sub_face_regions`) and `face_bounds` against its name-keyed formula:
    the sub-faces, the cap rows, the alt region and the cross informations
    of the degeneracy condition.  The caps are alt rows, with +0.0 where the
    reference's q.mask * normal has -0.0, so their normals compare by value."""
    spec = _spec("uplink", case)
    law, K, L = spec.law, spec.K, spec.L
    (dst, cond), (alt, caps, cross) = sub_face_regions(law), df.face_bounds(law)
    _same_region(alt, closure_alt(law))
    queries = list(df.admissible_queries(K, L))
    assert len(dst) == len(cond) == len(caps.A) == len(cross) == len(queries)
    for i, q in enumerate(queries):
        for got, want in zip((dst[i], cond[i]), closure_sub_faces(law, q)):
            _same_region(got, want)
        want = closure_cap(law, q)
        assert caps.A[i:i + 1].shape == want.A.shape and np.array_equal(caps.A[i:i + 1], want.A)
        for got, b in ((caps.lb, want.lb), (caps.ub, want.ub)):
            assert got[i:i + 1].tobytes() == b.tobytes(), q  # equal bits
        assert cross[i].tobytes() == np.array(closure_cross(law, q)).tobytes(), q
        assert type(df.degeneracy_condition(law, q)) is bool  # reports hold Python bools


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_each_query_reads_its_sub_face_rows_as_one_run(case):
    """Query i's D_{S,T} is sub-face 2i of the per-law table and its
    conditional sub-face 2i + 1, so the rows of the query are the run
    start[2i]:start[2i+2], D_{S,T} first, and each half is, bit for bit, the
    region that `in_sub_face_DST` / `in_sub_face_cond` read (`face._sub_face`)."""
    law = _spec("uplink", case).law
    face, row, lb, ub = law.memo("sub-face bounds", lambda: df._sub_face_bounds(law))
    queries, jd = df.face_queries(law), ul.jd_region(law)
    start = np.searchsorted(face, np.arange(2 * len(queries) + 1))
    assert np.all(np.diff(face) >= 0) and start[-1] == len(face)
    assert np.all(np.diff(start) > 0)  # every sub-face has rows: the (empty, empty) pair
    for i, q in enumerate(queries):
        for k, side in ((2 * i, "DST"), (2 * i + 1, "cond")):
            seg = slice(start[k], start[k + 1])
            got = ul.Region(jd.A[row[seg]], lb[seg], ub[seg])
            _same_region(got, df._sub_face(law, q, side))


def _correlated_uplink_spec(rng, K, L):
    """A random uplink spec whose relay outputs are correlated given X, where
    the closed-form corners leave some chains short of tight."""
    chan = rng.dirichlet(np.ones(2 ** L), size=2 ** K).reshape((2,) * (K + L))
    return UplinkSpec(K=K, L=L, input_pmfs=tuple(rng.dirichlet(np.ones(2)) for _ in range(K)),
                      channel=chan, test_channels=tuple(rng.dirichlet(np.ones(2), size=2)
                                                        for _ in range(L)))


CERTIFIED = CASES + [("uplink", (4, 4)), ("downlink", (4, 4)), ("uplink", "correlated")]


@pytest.mark.parametrize("direction, case", CERTIFIED, ids=lambda c: _ids(c))
def test_solve_order_certificate_matches_exact_rank(direction, case, monkeypatch):
    """The certificate of a corner's solve order against the exact (Bareiss)
    rank of its tight rows, on every corner and on corners moved by 1e-6 that
    keep their orders, where the chain is not tight and the elimination runs."""
    spec = (_correlated_uplink_spec(np.random.default_rng(77), 2, 3) if case == "correlated"
            else _spec(direction, case))
    law = spec.law
    if direction == "uplink":
        enum, region = ul.enumerate_corners(law), ul.jd_region(law)
    else:
        enum, region = dl.downlink_enumerate_corners(law), dl.je_region(law)
    eliminated, tight_ranks = [], ul._tight_ranks

    def counted(normals, tight):
        eliminated.append(len(tight))
        return tight_ranks(normals, tight)

    monkeypatch.setattr(ul, "_tight_ranks", counted)
    moved = enum.points + np.random.default_rng(1).choice([-1e-6, 1e-6], size=enum.points.shape)
    for points in (enum.points, moved):
        eliminated.clear()
        certified = ul.check_corner(region, points, enum.perms)
        ran = sum(eliminated)
        exact = ul.check_corner(region, points)  # every point through _tight_ranks
        assert sum(eliminated) - ran == len(points)
        for field in ("in_region", "rank", "is_corner"):
            got, want = getattr(certified, field), getattr(exact, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        assert certified.negative_coords == exact.negative_coords
        if points is moved or case == "correlated":
            assert ran > 0  # the chains that are not tight fall back to the elimination
        else:
            assert ran == 0 and certified.is_corner.all()  # every corner certified


def test_generalized_order_matches_interleaving():
    for n in range(1, 9):
        assert sp.generalized_order(n) == interleaved_order(n)


@pytest.mark.parametrize("K, L", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (1, 7), (4, 4), (5, 3)])
def test_decode_order_matches_walk_over_generalized_order(K, L):
    rng = np.random.default_rng(50 + 10 * K + L)
    alphas = rng.uniform(size=(300, K + L - 1))
    ends = rng.random(alphas.shape) < 0.2  # endpoints: j_i = 1 with eps 0, j_i = m_i with eps 1
    alphas[ends] = rng.integers(0, 2, size=ends.sum())
    for alpha in alphas:
        assert sp.decode_order_from_alpha(K, L, alpha) == walk_decode_order(K, L, alpha), alpha


def test_decode_order_refuses_more_rows_than_the_enumeration_guard():
    with pytest.raises(ValueError, match="supports 1 <= n <= 8"):
        sp.decode_order_from_alpha(5, 4, np.full(8, 0.5))


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_factorization_count_matches_product_scan(case):
    spec = _spec("uplink", case)
    verdicts = []
    for q in df.admissible_queries(spec.K, spec.L):
        verdicts.append(df.check_degenerate_factorization(spec.law, q))
        assert verdicts[-1] == scan_factorization(spec.law, q), q
    if case == "product_k2l2":  # the network splits, as users and relays 1 | 2
        assert any(verdicts) and not all(verdicts)


def test_factorization_count_on_a_product_of_point_sets():
    """Vertex sets built as products, with one vertex moved off the product, and
    projections that repeat exactly or to within FACE_TOL."""
    rng = np.random.default_rng(8)
    a, b = rng.random((5, 2)), rng.random((4, 3))
    mat = np.array([np.concatenate([x, y]) for x in a for y in b])
    law = build_uplink_joint(random_uplink_spec(rng, 2, 3))
    q = df.FaceQuery({1, 2}, set())

    def verdicts(points):
        enum = ul.CornerEnumeration(2, 3, np.zeros((len(points), 5), dtype=int), points,
                                    np.arange(len(points)))
        law._memo.clear()
        law._memo[("jd corners", ul.DEDUP_TOL)] = enum
        return df.check_degenerate_factorization(law, q), scan_factorization(law, q)

    assert verdicts(mat) == (True, True)
    moved = mat.copy()
    moved[3, 4] += 0.5
    assert verdicts(moved) == (False, False)
    jitter = mat + rng.uniform(-0.4, 0.4, size=mat.shape) * FACE_TOL
    assert verdicts(jitter) == (True, True)
    assert verdicts(mat[:-1]) == (False, False)
    repeat = mat.copy()  # as many vertices as products, but one pair twice
    repeat[1, 2:] = mat[0, 2:] + 0.5 * FACE_TOL
    assert verdicts(repeat) == (False, False)


@pytest.mark.parametrize("case", UPLINK + ["zeros_k2l2", "zeros_k2l3"], ids=_ids)
def test_face_decomposition_matches_per_query_face_check(case):
    """Every query, one at a time and all in one stacked pass (lemma4's call),
    against the per-query reference.  At tolerance 0 the faces of every case
    but identity_k1l1, whose corners are exact, lose some or all of their
    vertices, and a face with no vertex gives (0, 0)."""
    spec = _spec_with_zeros(*WITH_ZEROS[case]) if case in WITH_ZEROS else _spec("uplink", case)
    queries = df.face_queries(spec.law)
    faces = empty = 0
    for tol in (FACE_TOL, 0.05, 0.0):  # the face mask of the vertices is kept per tolerance
        ref = [loop_face_decomposition(spec.law, q, tol) for q in queries]
        stacked = df.face_decomposition_failures(spec.law, queries, tol)
        assert list(zip(*stacked.tolist())) == ref, tol
        if tol == FACE_TOL:
            details = suites.suite_lemma4(spec)[1]
            assert [tuple(d.values()) for d in details.values()] == ref
        for q, want in zip(queries, ref):
            rep = df.check_face_decomposition(spec.law, q, tol=tol)
            assert (rep.forward_failures, rep.converse_failures) == want, (q, tol)
        sizes = [len(df.face_corners(spec.law, q, tol)) for q in queries]
        faces += any(sizes)  # some query has corners on its face
        assert all(r == (0, 0) for n, r in zip(sizes, ref) if n == 0)
        empty += sizes.count(0)
    assert faces and (empty > 0) == (case != "identity_k1l1")


@pytest.mark.parametrize("case", UPLINK + ["zeros_k2l2", "zeros_k2l3"], ids=_ids)
def test_stacked_product_pass_keeps_the_rows_of_one_call_per_projection(case, monkeypatch):
    """The stacked product test of lemma4 and lemma5, in one run, in runs of a
    few items, and with every item a run of its own, against one `dedup_index`
    call per projection: the kept rows of each face's two projections, at
    FACE_TOL, at lemma4's PIVOT_TOL and at 0.05, and lemma5's verdict of every
    split, which is the one-split reference's."""
    spec = _spec_with_zeros(*WITH_ZEROS[case]) if case in WITH_ZEROS else _spec("uplink", case)
    law = spec.law
    vertices, masks = ul.enumerate_corners(law).vertices, df.face_bounds(law)[1].A != 0
    for budget in (1, 200, 1 << 30):
        monkeypatch.setattr(df, "PRODUCT_BUDGET", budget)
        for tol in (FACE_TOL, PIVOT_TOL, 0.05):
            rows = law.memo(("face corners", tol), lambda: df._face_corner_rows(law, tol))
            items = [(vertices[r], m) for r, mask in zip(rows, masks) if len(r)
                     for m in (mask, ~mask)]
            assert items
            kept = np.split(df._projection_classes(items, tol),
                            np.cumsum([len(v) for v, _ in items])[:-1])
            for (v, m), got in zip(items, kept):
                assert np.array_equal(got, ul.dedup_index(v[:, m], tol)), (budget, tol)
        law._memo.pop("factorizes", None)
        verdicts = [df.check_degenerate_factorization(law, q) for q in df.face_queries(law)]
        assert verdicts == [split_factorization(law, q) for q in df.face_queries(law)], budget


def test_factorizations_match_the_per_split_reference_in_runs_of_one_split(monkeypatch):
    """At (4, 3) the 3,913 vertices fill a PRODUCT_BUDGET run of their own per
    split at the real budget, and six of the 63 splits have an n_a that
    divides n, so they reach `_product_counts`: lemma5's verdict of every
    query is the one-split reference's."""
    law = build_uplink_joint(random_uplink_spec(np.random.default_rng(5), 4, 3))
    n, d = ul.enumerate_corners(law).vertices.shape
    assert n * (d + 1) > df.PRODUCT_BUDGET
    seen, counts = [], df._product_counts
    monkeypatch.setattr(df, "_product_counts",
                        lambda items, a, tol: seen.extend(items) or counts(items, a, tol))
    verdicts = [df.check_degenerate_factorization(law, q) for q in df.face_queries(law)]
    assert len(seen) == 6
    assert verdicts == [split_factorization(law, q) for q in df.face_queries(law)]


def test_lemma4_draws_nothing(monkeypatch):
    """lemma4 is exact on the face vertices: it seeds no generator, and its
    report is the same for every seed and sample count."""
    spec = _spec("uplink", (2, 3))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("lemma4 drew"))
    runs = [suites.suite_lemma4(spec, seed=seed, samples=n) for seed, n in ((0, 1), (3, 200))]
    assert runs[0] == runs[1] and runs[0][0]


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_telescope_matches_scalar_loop(case, monkeypatch):
    spec = _spec("uplink", case)
    alphas, worst, on_face = loop_telescope(spec, seed=4, samples=12)
    seen = []
    psi = sp.psi
    monkeypatch.setattr(sp, "psi", lambda spec, alpha: seen.append(np.array(alpha)) or
                        psi(spec, alpha))
    ok, details = suites.suite_telescope(spec, seed=4, samples=12)
    assert len(seen) == 1 and np.array_equal(seen[0], alphas)  # the same draws, one stack
    assert details["all_on_dominant_face"] == on_face
    assert abs(details["max_telescoping_gap"] - worst) <= 1e-15  # a few ulps of the coordinates
    assert ok == (worst <= 1e-9 and on_face)


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_merge_and_rates_match_name_based(case, monkeypatch):
    spec = _spec("uplink", case)
    rng = np.random.default_rng(9)

    def refuse(*args):
        raise AssertionError("beta_rates reads the tensor, not named entropies")

    for alpha in rng.uniform(0.0, 1.0, size=(6, spec.K + spec.L - 1)):
        config = sp.decode_order_from_alpha(spec.K, spec.L, alpha)
        vc = sp.build_virtual_cran(spec, [list(config.epsilon.values())])
        assert np.max(np.abs(vc.merged_joint() - add_at_merge(vc))) <= 1e-13
        with monkeypatch.context() as m:  # the virtual law stays lazy
            for module in (prob, sp):
                for name in ("entropy", "mutual_info"):
                    m.setattr(module, name, refuse, raising=module is prob)
            (betas,), _ = sp.beta_rates(vc, [list(config.j.values())])
        betas = dict(zip(config.order, betas.tolist()))
        ref = name_beta_rates(vc, config)
        assert betas.keys() == ref.keys()
        assert max(abs(betas[k] - ref[k]) for k in ref) <= 1e-13


def _stacks(spec, rng):
    """Alpha stacks of each kind psi meets: one row, one cell (a Jacobian's
    columns), rows from mixed cells, cell ends, and cell ends (eps = 0, and
    eps = 1 at the last cell) among interior alphas."""
    d = spec.K + spec.L - 1
    m = 2 ** np.arange(1, d + 1) - 1  # the cells of each row
    j = rng.integers(1, m + 1)
    x = rng.uniform(0.02, 0.98, d)
    h = np.where(x < 0.5, 1e-7, -1e-7)
    ends = rng.integers(0, m + 1, size=(5, d)) / m
    stacks = {"one row": rng.uniform(size=(1, d)), "one cell": (j - 1 + x + h * np.eye(d)) / m,
              "mixed cells": rng.uniform(size=(9, d)), "cell ends": np.vstack([ends, (j - 1) / m])}
    ends = (rng.integers(1, m + 1, size=(6, d)) - rng.integers(0, 2, size=(6, d))) / m
    among = np.vstack([ends, np.ones((1, d)), np.zeros((1, d)), rng.uniform(size=(5, d))])
    rng.shuffle(among)
    stacks["ends among interior"] = among
    return stacks


def _spec_with_zeros(K, L):
    """A seeded spec with exact zeros in its channel, where relay 1 sees the
    parity of the inputs without noise, and in its last test channel."""
    f = random_uplink_spec(np.random.default_rng(600 + 10 * K + L), K, L)
    x = np.indices((2,) * K).sum(axis=0) % 2
    others = f.channel.sum(axis=K)  # p(y_2.. | x): the relays see the inputs independently
    chan = np.stack([x == 0, x == 1], axis=K).reshape(x.shape + (2,) + (1,) * (L - 1))
    tests = f.test_channels[:-1] + (np.array([[1.0, 0.0], [0.3, 0.7]]),)
    return UplinkSpec(K, L, f.input_pmfs, chan * np.expand_dims(others, K), tests)


WITH_ZEROS = {"zeros_k2l2": (2, 2), "zeros_k2l3": (2, 3), "zeros_k3l2": (3, 2)}
LARGEST = [(4, 4), (2, 5), (1, 7)]  # one row only: 2^19 to 2^22 joint entries


@pytest.mark.parametrize("case", UPLINK + list(WITH_ZEROS) + LARGEST, ids=_ids)
def test_psi_stacks_match_one_alpha_at_a_time(case, monkeypatch):
    """Each row of a stack, through psi and through one beta_rates call, equals
    the one-alpha reference bit for bit, lies within 1e-13 of the per-marginal
    formula, and keeps its bits in chunks of 4 rows and of one row summed an
    entry of the relay outputs at a time."""
    spec = _spec_with_zeros(*WITH_ZEROS[case]) if case in WITH_ZEROS else _spec("uplink", case)
    if case in WITH_ZEROS:
        assert (spec.channel == 0).any() and (spec.test_channels[-1] == 0).any()
    K, L = spec.K, spec.L
    stacks = _stacks(spec, np.random.default_rng(21))
    if case in LARGEST:
        stacks = {"one row": stacks["one row"]}
    for kind, alphas in stacks.items():
        ref = loop_psi(spec, alphas)
        assert np.array_equal(sp.psi(spec, alphas), ref), kind
        configs = [sp.decode_order_from_alpha(K, L, a) for a in alphas]
        j, eps = (np.reshape([list(getattr(c, f).values()) for c in configs], alphas.shape)
                  for f in ("j", "epsilon"))
        betas, points = sp.beta_rates(sp.build_virtual_cran(spec, eps), j)
        betas = [dict(zip(c.order, b)) for c, b in zip(configs, betas.tolist())]
        laws = [loop_build_virtual_cran(spec, c) for c in configs]
        assert betas == [loop_beta_rates(law, c, K, L)[0] for law, c in zip(laws, configs)], kind
        assert np.array_equal(points, ref), kind
        old = [marginal_beta_rates(law, c, K, L) for law, c in zip(laws, configs)]
        assert max(abs(b[lab] - o[lab]) for b, (o, _) in zip(betas, old) for lab in o) <= 1e-13
        assert np.max(np.abs(points - [vec for _, vec in old]), initial=0.0) <= 1e-13, kind
        for a, vec in zip(alphas, ref):
            assert np.array_equal(sp.psi(spec, a).as_vector(), vec), kind
        for rows in (4, 0) if len(alphas) > 1 else ():  # 4 rows a chunk, then one at a time
            monkeypatch.setattr(sp, "STACK_ENTRIES", rows << (2 * K + 3 * L - 1))
            assert np.array_equal(sp.psi(spec, alphas), ref), (kind, rows)
        monkeypatch.undo()
    assert sp.psi(spec, stacks["one row"][:0]).shape == (0, K + L)


def _inversion_targets(case):
    """The c10 acceptance targets (corners and mixtures of them), or on a
    seeded spec two mixtures of corners and two psi points printed to 9 digits."""
    rng = np.random.default_rng(555)
    if case == "c10 identity":
        spec, count = identity_chain_spec(), 20
    elif case == "c10 random":
        spec, count = random_uplink_spec(np.random.default_rng(31)), 20
    else:
        spec, count = random_uplink_spec(np.random.default_rng(4000 + 10 * case[0] + case[1]),
                                         *case), 2
    mat = ul.enumerate_corners(spec.law).points
    vecs = list(mat[:count]) if case in ("c10 identity", "c10 random") else []
    while len(vecs) < count:
        vecs.append(rng.dirichlet(np.ones(len(mat))) @ mat)
    if count == 2:
        vecs += [np.round(loop_psi(spec, a).as_vector(), 9)
                 for a in rng.uniform(size=(2, spec.K + spec.L - 1))]
    return spec, vecs


@pytest.mark.parametrize("case", ["c10 identity", "c10 random", (2, 2), (1, 3), (3, 1), (3, 2),
                                  (2, 3), (1, 5), (3, 3), (2, 4)], ids=str)
def test_inversion_matches_one_column_at_a_time(case, monkeypatch):
    spec, targets = _inversion_targets(case)
    got = [sp.invert_psi(spec, t) for t in targets]
    monkeypatch.setattr(sp, "psi", loop_psi)
    monkeypatch.setattr(sp, "minimize", loop_minimize)
    assert got == [sp.invert_psi(spec, t) for t in targets]  # alpha, residual, n_evals, converged


@pytest.mark.parametrize("case", SHAPES + [(4, 4)], ids=_ids)
def test_psi_array_path_keeps_the_bytes_of_the_one_alpha_loops(case):
    """psi's index arrays and cached order plans against the one-alpha loops,
    byte for byte: rows sharing one
    order (a Jacobian's columns), one order on rows far apart, mixed orders,
    alphas of exactly 0, exactly 1 and at subinterval ends j/m, and the empty
    stack.  At K = L = 4 one row only (2^19 joint entries)."""
    K, L = case
    spec = random_uplink_spec(np.random.default_rng(700 + 10 * K + L), K, L)
    rng = np.random.default_rng(71)
    d = K + L - 1
    m = 2 ** np.arange(1, d + 1) - 1
    j, x = rng.integers(1, m + 1), rng.uniform(0.02, 0.98, d)
    jac = (j - 1 + x + np.where(x < 0.5, 1e-7, -1e-7) * np.eye(d)) / m
    apart = np.vstack([jac[:1], rng.uniform(size=(1, d))] * 2)  # orders A, B, A, B
    ends = np.vstack([rng.integers(0, m + 1, size=(6, d)) / m, np.zeros(d), np.ones(d)])
    stacks = {"one row": rng.uniform(size=(1, d)), "empty": np.empty((0, d))}
    if (K, L) != (4, 4):
        stacks |= {"one order": jac, "one order apart": apart, "ends": ends,
                   "mixed": rng.uniform(size=(9, d))}
    for kind, alphas in stacks.items():
        got = sp.psi(spec, alphas)
        assert got.shape == (len(alphas), K + L) and got.dtype == np.float64, kind
        assert got.tobytes() == loop_psi(spec, alphas).tobytes(), kind
    if (K, L) != (4, 4) and d > 1:  # the rows of one order share a transpose
        plan = sp._order_plan(K, L, sp._split_params(K, L, apart)[0].tobytes())
        assert any(isinstance(sel, np.ndarray) for sel, _ in plan.groups)
        plan = sp._order_plan(K, L, sp._split_params(K, L, jac)[0].tobytes())
        assert [sel for sel, _ in plan.groups] == [slice(0, d)]


def test_alpha_indices_of_arrays_match_one_alpha_at_a_time():
    """The array form of alpha_to_indices, element by element, against the scalar
    formula and against one-alpha calls, and its refusals against theirs."""
    rng = np.random.default_rng(72)
    rows = np.arange(2, 9)
    m = 2 ** (rows - 1) - 1
    alphas = np.vstack([rng.uniform(size=(40, 7)), rng.integers(0, m + 1, size=(20, 7)) / m,
                        np.zeros(7), np.ones(7), np.full(7, 5e-324), np.full(7, 1 - 2 ** -53)])
    j, eps = sp.alpha_to_indices(alphas, rows)
    assert j.dtype == np.int64 and eps.dtype == np.float64
    for (r, c), a in np.ndenumerate(alphas):
        want = scalar_alpha_to_indices(float(a), int(rows[c]))
        assert sp.alpha_to_indices(float(a), int(rows[c])) == want
        assert (int(j[r, c]), eps[r, c].tobytes()) == (want[0], np.float64(want[1]).tobytes())
    spec = random_uplink_spec(np.random.default_rng(73), 3, 3)
    for bad in (np.nan, -0.25, -5e-324, 1.0 + 2 ** -52, np.inf):
        stack = alphas[:3, :5].copy()
        stack[1, 3], stack[2, 0] = bad, 2.0  # the first in C order is named
        with pytest.raises(ValueError) as want:
            scalar_alpha_to_indices(bad, 5)
        for call in (lambda: sp.alpha_to_indices(stack, rows[:5]),
                     lambda: sp.psi(spec, stack), lambda: sp.psi(spec, stack[1]),
                     lambda: sp.decode_order_from_alpha(3, 3, stack[1])):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value), bad


def test_order_plans_are_few_small_and_shared_by_laws():
    """The plan cache holds at most PLANS plans; the arrays of a 7-row plan at
    K = L = 4 take under 64 KB; a second law of the same (K, L) and orders
    reuses the plans of the first."""
    sp._order_plan.cache_clear()
    for rows in range(1, sp.PLANS + 11):
        sp._order_plan(2, 2, np.ones((rows, 3), dtype=np.int64).tobytes())
    info = sp._order_plan.cache_info()
    assert info.currsize == info.maxsize == sp.PLANS and info.misses == sp.PLANS + 10
    rng = np.random.default_rng(74)
    plan = sp._order_plan(4, 4, sp._split_params(4, 4, rng.uniform(size=(7, 7)))[0].tobytes())
    arrays = [v for v in plan if isinstance(v, np.ndarray)]
    arrays += [sel for sel, _ in plan.groups if isinstance(sel, np.ndarray)]
    assert len(plan.inp) == 7 and sum(a.nbytes for a in arrays) < 64 << 10
    alphas = rng.uniform(size=(3, 3))
    first, second = (random_uplink_spec(rng, 2, 2) for _ in range(2))
    sp.psi(first, alphas)
    before = sp._order_plan.cache_info()
    sp.psi(second, alphas)
    after = sp._order_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_specs_made_in_turn_get_their_own_virtual_parts():
    """Each spec is made right after the last one is dropped, so that it can
    take the dead spec's object id."""
    rng = np.random.default_rng(41)
    made = [random_uplink_spec(rng, 2, 2) for _ in range(6)]
    alphas = rng.uniform(size=(2, 3))
    for f in made:
        spec = UplinkSpec(f.K, f.L, f.input_pmfs, f.channel, f.test_channels)
        assert np.array_equal(sp.psi(spec, alphas), loop_psi(spec, alphas))
        del spec


def test_merge_check_refuses_a_nan_in_one_row(monkeypatch):
    spec = _spec("uplink", (2, 2))
    split = sp.make_quant_split

    def poisoned(w, eps):
        qs = split(w, eps)
        qs.p_uv_given_y[1, 0, 1, 0] = np.nan  # one entry of row 1 of the stack
        return qs

    monkeypatch.setattr(sp, "make_quant_split", poisoned)
    with pytest.raises(LawError, match="merge back"):
        sp.build_virtual_cran(spec, (0.2, 0.4, 0.6) * np.ones((3, 3)))


def test_direction_functions_refuse_the_other_direction():
    up = build_uplink_joint(random_uplink_spec(np.random.default_rng(1), 3, 2))
    down = build_downlink_joint(random_downlink_spec(np.random.default_rng(1), 2, 3))
    by_hand = JointLaw(up.names, up.probs)  # uplink names, but no builder's stamp
    for fn in (partial(JointLaw.dims, direction="uplink"), ul.enumerate_corners, ul.jd_region,
               df.dominant_face_dimension):
        for law in (down, by_hand):
            with pytest.raises(LawError, match="not an uplink law"):
                fn(law)
    for fn in (partial(JointLaw.dims, direction="downlink"), dl.downlink_enumerate_corners,
               dl.je_region):
        with pytest.raises(LawError, match="not a downlink law"):
            fn(up)
    assert up.dims("uplink") == (3, 2) and down.dims("downlink") == (2, 3)


@pytest.mark.parametrize("work", [0, 10**12])
def test_dedup_settles_alike_in_rounds_and_in_order(work, monkeypatch):
    """Both ways of settling the close pairs, each forced, against the quadratic
    reference; kept indices name the first kept row within tol."""
    monkeypatch.setattr(ul, "ROUNDS_WORK", work)
    rng = np.random.default_rng(12)
    base = rng.normal(size=(30, 3))
    chain = np.cumsum(np.full((12, 3), 0.6e-3), axis=0)  # each within tol of the next only
    pts = np.vstack([base, base[rng.integers(30, size=60)] + rng.uniform(-1.2e-3, 1.2e-3, (60, 3)),
                     base[:5], chain, [[np.inf, 0, 0]], [[np.inf, 0, 0]]])
    pts = pts[rng.permutation(len(pts))]
    for tol in (0.0, 1e-3, 0.5):
        kept_of = ul.dedup_index(pts, tol)
        kept = quadratic_dedup(pts, tol)
        assert np.flatnonzero(kept_of == np.arange(len(pts))).tolist() == kept
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
            for i, k in enumerate(kept_of):
                close = [j for j in kept if np.max(np.abs(pts[j] - pts[i])) <= tol]
                assert k == (close[0] if close else i)
    spec = _spec("uplink", (3, 2))
    enum = ul.enumerate_corners(spec.law)
    for tol in (ul.DEDUP_TOL, 0.05):
        kept_of = ul.dedup_index(enum.points, tol)
        assert np.flatnonzero(kept_of == np.arange(len(kept_of))).tolist() == \
            quadratic_dedup(enum.points, tol)
