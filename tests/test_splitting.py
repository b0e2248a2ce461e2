"""Rate/quantization splits, the generalized decoding order, the virtual
network assembly, and the forward/inverse parameter map."""

import itertools
import pathlib

import numpy as np
import pytest

from cranregions import (
    LawError,
    NotOnDominantFaceError,
    alpha_to_indices,
    beta_rates,
    build_virtual_cran,
    decode_order_from_alpha,
    enumerate_corners,
    generalized_order,
    invert_psi,
    make_quant_split,
    make_rate_split,
    mutual_info,
    on_dominant_face,
    psi,
    psi_detail,
)
from cranregions.prob import JointLaw, build_uplink_joint
from cranregions.face import face_gap
from cranregions.specio import load_spec
from cranregions import splitting
from cranregions.splitting import _corner_points, _live_cells, _rank_cells
from cranregions.uplink import sd_corner

from conftest import bsc, identity_chain_spec, k2l2_bsc_spec, random_uplink_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


class TestRateSplit:
    def test_worked_example(self):
        # alpha = 0.5, eps = 0.5: U ~ Bern(1/4), V ~ Bern(1/3)
        rs = make_rate_split(0.5, 0.5)
        assert rs.p_u[1] == pytest.approx(0.25)
        assert rs.p_v[1] == pytest.approx(1.0 / 3.0)
        p_max1 = 1.0 - rs.p_u[0] * rs.p_v[0]
        assert p_max1 == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("eps", np.linspace(0.0, 1.0, 101))
    def test_pushforward_preserved(self, eps):
        rs = make_rate_split(0.35, float(eps))
        p_max1 = 1.0 - rs.p_u[0] * rs.p_v[0]
        assert abs(p_max1 - 0.35) <= 1e-12

    def test_endpoints(self):
        # eps = 0: U is constant 0, the merge is V alone
        rs = make_rate_split(0.4, 0.0)
        assert rs.p_u[1] == 0.0 and rs.p_v[1] == pytest.approx(0.4)
        # eps = 1: V is constant 0, the merge is U alone
        rs = make_rate_split(0.4, 1.0)
        assert rs.p_u[1] == pytest.approx(0.4) and rs.p_v[1] == 0.0

    def test_degenerate_denominator(self):
        with pytest.raises(LawError):
            make_rate_split(1.0, 1.0)

    def test_out_of_range(self):
        with pytest.raises(LawError):
            make_rate_split(1.2, 0.5)


class TestQuantSplit:
    def _joint(self, eps):
        p_y = np.array([0.6, 0.4])
        w = bsc(0.1)
        qs = make_quant_split(w, eps)
        # law over (Y, U, V)
        p = p_y[:, None, None] * qs.p_uv_given_y
        return qs, JointLaw(("Y", "U", "V"), p)

    @pytest.mark.parametrize("eps", np.linspace(0.0, 1.0, 101))
    def test_merge_back_exact(self, eps):
        """(Y, max(U, V)) has exactly the source law (Y, Yh)."""
        p_y = np.array([0.6, 0.4])
        w = bsc(0.1)
        qs = make_quant_split(w, float(eps))
        merged = np.zeros((2, 2))
        for u in range(2):
            for v in range(2):
                merged[:, max(u, v)] += p_y * qs.p_uv_given_y[:, u, v]
        assert np.max(np.abs(merged - p_y[:, None] * w)) <= 1e-12

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7, 1.0])
    def test_markov_through_quantizer(self, eps):
        """Y - Yh - (U,V): conditioned on Yh the descriptions forget Y."""
        p_y = np.array([0.6, 0.4])
        w = bsc(0.1)
        qs = make_quant_split(w, eps)
        p = np.einsum("y,yh,huv->yhuv", p_y, w, qs.p_uv_given_yhat)
        law = JointLaw(("Y", "Yh", "U", "V"), p)
        assert mutual_info(law, ["Y"], ["U", "V"], ["Yh"]) <= 1e-10

    def test_endpoints_exact(self):
        qs0 = make_quant_split(bsc(0.2), 0.0)
        # eps = 0: U constant 0, V carries Yh
        assert np.all(qs0.p_uv_given_yhat[:, 1, :] == 0.0)
        qs1 = make_quant_split(bsc(0.2), 1.0)
        assert np.all(qs1.p_uv_given_yhat[:, :, 1] == 0.0)

    def test_nonbinary_rejected(self):
        with pytest.raises(LawError):
            make_quant_split(np.eye(3), 0.5)


class TestGeneralizedOrder:
    def test_small_orders_exact(self):
        assert generalized_order(1) == ((1, 1),)
        assert generalized_order(2) == ((2, 1), (1, 1), (2, 2))
        assert generalized_order(3) == (
            (3, 1), (2, 1), (3, 2), (1, 1), (3, 3), (2, 2), (3, 4),
        )

    def test_length_and_contents(self):
        for n in range(1, 6):
            order = generalized_order(n)
            assert len(order) == 2**n - 1
            for i in range(1, n + 1):
                cols = [c for r, c in order if r == i]
                assert cols == sorted(cols)
                assert len(cols) == max(1, 2 ** (i - 1))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            generalized_order(0)
        with pytest.raises(ValueError):
            generalized_order(9)


class TestAlphaIndices:
    def test_worked_example(self):
        # row 4: m = 7; alpha = 0.75 -> 5.25 -> subinterval 6, position 0.25
        j, eps = alpha_to_indices(0.75, 4)
        assert j == 6
        assert eps == pytest.approx(0.25)

    def test_endpoints(self):
        assert alpha_to_indices(0.0, 2) == (1, 0.0)
        j, eps = alpha_to_indices(1.0, 2)
        assert (j, eps) == (1, 1.0)

    def test_row_one_rejected(self):
        with pytest.raises(ValueError):
            alpha_to_indices(0.5, 1)


class TestDecodeOrder:
    def test_identity_chain_orders(self):
        cfg = decode_order_from_alpha(1, 1, [0.0])
        assert cfg.order == ("1c", "1", "1d")
        cfg = decode_order_from_alpha(1, 1, [1.0])
        assert cfg.order == ("1c", "1", "1d")

    def test_reference_configuration(self):
        """K=2, L=2 with active subintervals (1, 1, 6) interleaves as expected."""
        # rows 2..4 need alphas giving j = (1, 1, 6)
        a2 = 0.5          # m=1, j=1
        a3 = 0.1          # m=3, j=1
        a4 = 5.5 / 7.0    # m=7, j=6
        cfg = decode_order_from_alpha(2, 2, [a2, a3, a4])
        assert cfg.j == {2: 1, 3: 1, 4: 6}
        assert cfg.order == ("1c", "2a", "1d", "1", "2c", "2b", "2d")

    def test_order_length(self, rng):
        for _ in range(20):
            cfg = decode_order_from_alpha(2, 2, rng.uniform(0, 1, 3))
            assert len(cfg.order) == 7
            assert len(set(cfg.order)) == 7

    def test_wrong_alpha_length(self):
        with pytest.raises(ValueError):
            decode_order_from_alpha(2, 2, [0.5])


class TestVirtualCran:
    def test_merge_consistency(self, rng):
        spec = k2l2_bsc_spec()
        orig = build_uplink_joint(spec)
        for _ in range(5):
            cfg = decode_order_from_alpha(2, 2, rng.uniform(0, 1, 3))
            vc = build_virtual_cran(spec, [list(cfg.epsilon.values())])
            assert np.max(np.abs(vc.merged_joint() - orig.probs)) <= 1e-12

    def test_variable_names(self):
        cfg = decode_order_from_alpha(2, 2, [0.5, 0.5, 0.5])
        vc = build_virtual_cran(k2l2_bsc_spec(), [list(cfg.epsilon.values())])
        assert vc.names == (
            "X1", "X2a", "X2b", "Y1", "Y2", "Yh1c", "Yh1d", "Yh2c", "Yh2d",
        )

    def test_beta_telescoping(self, rng):
        """C([L]) - R([K]) telescopes to I(Y; Yh | X) for any alpha."""
        spec = k2l2_bsc_spec()
        law = build_uplink_joint(spec)
        for _ in range(10):
            cfg = decode_order_from_alpha(2, 2, rng.uniform(0, 1, 3))
            vc = build_virtual_cran(spec, [list(cfg.epsilon.values())])
            _, points = beta_rates(vc, [list(cfg.j.values())])
            assert abs(face_gap(law, points)[0]) <= 1e-9


class TestPsi:
    def test_identity_chain_endpoints(self):
        spec = identity_chain_spec()
        assert psi(spec, [0.0]).as_vector() == pytest.approx([0.0, 0.0], abs=1e-12)
        assert psi(spec, [1.0]).as_vector() == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_always_on_dominant_face(self, rng):
        spec = random_uplink_spec(rng)
        law = build_uplink_joint(spec)
        for _ in range(10):
            point = psi(spec, rng.uniform(0, 1, 3)).as_vector()[None]
            assert on_dominant_face(law, point, tol=1e-8)[0]

    def test_detail_exposes_order_and_betas(self):
        cfg, betas, point = psi_detail(identity_chain_spec(), [0.5])
        assert set(betas) == {"1", "1c", "1d"}
        assert point.R[0] == pytest.approx(betas["1"])
        assert point.C[0] == pytest.approx(betas["1c"] + betas["1d"])

    def test_two_scale_continuity(self, rng):
        """Shrinking the step shrinks the response: no jumps across grid kinks."""
        spec = k2l2_bsc_spec()
        for _ in range(5):
            a = rng.uniform(0.05, 0.95, 3)
            i = rng.integers(0, 3)
            for delta in (1e-3,):
                b, c = a.copy(), a.copy()
                b[i] += delta
                c[i] += delta / 10
                d1 = np.max(np.abs(psi(spec, b).as_vector() - psi(spec, a).as_vector()))
                d2 = np.max(np.abs(psi(spec, c).as_vector() - psi(spec, a).as_vector()))
                assert d2 <= 0.5 * d1 + 1e-6

    @pytest.mark.parametrize("K, L, n_cells", [(2, 2, None), (2, 3, 45)])
    def test_eps_corners_are_successive_corners(self, K, L, n_cells):
        """At each eps in {0,1}^d of a cell (fixed j), psi is the successive-decoding
        corner of the order the corner induces: row i's variable decoded whole at
        column j_i (eps_i = 1) or j_i + 1 (eps_i = 0) of the generalized order.

        Every cell at K = L = 2 (21); a seeded 45 of the 315 at K = 2, L = 3, whose
        5040 corners would take about 12 s."""
        rng = np.random.default_rng(7)
        spec = k2l2_bsc_spec() if L == 2 else random_uplink_spec(rng, K, L)
        n = K + L
        position = {lab: k for k, lab in enumerate(generalized_order(n))}
        m = [2 ** (i - 1) - 1 for i in range(2, n + 1)]
        corners = list(itertools.product((0, 1), repeat=n - 1))
        cells = list(itertools.product(*(range(1, mi + 1) for mi in m)))
        if n_cells is not None:
            cells = [cells[i] for i in rng.choice(len(cells), n_cells, replace=False)]
        for j in cells:
            read = _corner_points(spec, np.array([j]), np.array(corners))[0]
            for e, g in zip(corners, read):
                (point,) = beta_rates(build_virtual_cran(spec, [e]), [j])[1]
                cols = [1] + [ji + 1 - ei for ji, ei in zip(j, e)]
                # row v is X_{v+1} for v < K, else Yh_{v-K+1}, as in a decode order
                order = sorted(range(n), key=lambda v: position[(v + 1, cols[v])])
                (sd,) = sd_corner(spec.law, [order])
                assert np.max(np.abs(point - sd)) <= 1e-12, (j, e)
                assert np.max(np.abs(g - sd)) <= 1e-12, (j, e)


def _still_rows(j):
    """Rows i of cell j (j_2, .., j_n) with no other active element of the generalized
    order strictly between row i's two active elements (i, j_i) and (i, j_i + 1)."""
    n = len(j) + 1
    position = {lab: k for k, lab in enumerate(generalized_order(n))}
    active = [position[(1, 1)]] + [position[(i, c)] for i, ji in enumerate(j, 2)
                                   for c in (ji, ji + 1)]
    return [i for i, ji in enumerate(j, 2)
            if not any(position[(i, ji)] < a < position[(i, ji + 1)] for a in active)]


class TestLiveCells:
    """The cells of alpha without a still row, generated without a filter."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_generated_cells_are_the_filtered_cells(self, n):
        cells = itertools.product(*(range(1, 2 ** (i - 1)) for i in range(2, n + 1)))
        filtered = [j for j in cells if not _still_rows(j)]
        live = list(_live_cells(n, n, (), (), {}))
        assert len(live) == len(set(live)) and set(live) == set(filtered)
        assert len(live) == {2: 1, 3: 3, 4: 15, 5: 117, 6: 1365}[n]

    @pytest.mark.parametrize("K, L", [(2, 2), (2, 3)])
    def test_psi_ignores_the_eps_of_a_still_row(self, K, L):
        """So a cell that is not live adds nothing: its points are those of a face of a
        neighbouring cell.  Checked on every such cell at K = L = 2 (6 of 21) and on a
        seeded 20 of the 198 at K = 2, L = 3."""
        rng = np.random.default_rng(5)
        spec = load_spec(SPECS / "uplink_k2l2.json") if L == 2 else random_uplink_spec(rng, K, L)
        m = 2.0 ** np.arange(1, K + L) - 1
        cells = [j for j in itertools.product(*(range(1, int(mi) + 1) for mi in m))
                 if _still_rows(j)]
        assert len(cells) == {2: 6, 3: 198}[L]
        for j in [cells[k] for k in rng.permutation(len(cells))[:20]]:
            for i in _still_rows(j):
                eps, moved = rng.uniform(size=(2, K + L - 1))
                moved = np.where(np.arange(2, K + L + 1) == i, moved, eps)
                a, b = (psi(spec, (np.array(j) - 1 + e) / m).as_vector() for e in (eps, moved))
                assert np.max(np.abs(a - b)) <= 1e-12, (j, i)

    def test_psi_is_continuous_across_cells_in_column_order(self):
        """eps_i -> 0 in cell j and eps_i -> 1 in cell j + e_i both decode row i whole at
        column j_i + 1, so psi is continuous in y_i = j_i + 1 - eps_i across cells, and a cell
        with a still row has the points of a face of its neighbour along that row."""
        rng = np.random.default_rng(6)
        spec = random_uplink_spec(rng, 2, 3)
        m = 2.0 ** np.arange(1, 5) - 1
        for _ in range(50):
            i = rng.integers(1, 4)  # rows 3..5, which have more than one cell
            j = np.array([rng.integers(1, mi + 1) for mi in m])
            j[i] = min(j[i], m[i] - 1)
            eps = rng.uniform(size=4)
            lo, hi = eps.copy(), eps.copy()
            lo[i], hi[i] = 1e-12, 1 - 1e-12
            step = np.eye(4, dtype=int)[i]
            a, b = psi(spec, (j - 1 + lo) / m), psi(spec, (j + step - 1 + hi) / m)
            assert np.max(np.abs(a.as_vector() - b.as_vector())) <= 1e-9, (j, i)


class TestInvertPsi:
    def test_corner_target(self):
        spec = identity_chain_spec()
        res = invert_psi(spec, np.array([1.0, 1.0]))
        assert res.converged and res.residual <= 1e-4

    def test_midpoint_target(self):
        spec = identity_chain_spec()
        res = invert_psi(spec, np.array([0.5, 0.5]))
        assert res.converged and res.residual <= 1e-4
        # round-trip
        assert np.max(
            np.abs(psi(spec, res.alpha).as_vector() - np.array([0.5, 0.5]))
        ) <= 1e-4

    def test_off_face_target_rejected(self):
        spec = identity_chain_spec()
        with pytest.raises(NotOnDominantFaceError):
            invert_psi(spec, np.array([2.0, 0.0]))

    @pytest.mark.parametrize("target", [np.zeros(3), np.zeros(5), np.zeros((1, 4)), 0.5])
    def test_target_of_wrong_length_rejected(self, target):
        spec = load_spec(SPECS / "uplink_k2l2.json")
        with pytest.raises(ValueError, match=r"K\+L = 4 coordinates") as err:
            invert_psi(spec, target)
        assert not isinstance(err.value, NotOnDominantFaceError)

    def test_k2l2_corner_targets(self, rng):
        spec = k2l2_bsc_spec()
        law = build_uplink_joint(spec)
        targets = enumerate_corners(law).vertices[:3]
        for t in targets:
            res = invert_psi(spec, t)
            assert res.converged, (t, res.residual)
            assert res.n_evals <= 5000

    def _assert_solved(self, spec, target):
        res = invert_psi(spec, target)
        assert res.converged and res.n_evals <= 5000, (res.residual, res.n_evals)
        resid = psi(spec, np.round(res.alpha, 12)).as_vector() - target
        assert np.max(np.abs(resid)) <= 1e-4

    def test_shipped_k2l2_interior_target(self):
        """A target that multistart Nelder-Mead left unsolved after 4112 evaluations."""
        spec = load_spec(SPECS / "uplink_k2l2.json")
        self._assert_solved(spec, psi(spec, [0.67583134, 0.2143232, 0.30945203]).as_vector())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k2l3_targets(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_uplink_spec(rng, 2, 3)
        self._assert_solved(spec, psi(spec, rng.uniform(size=4)).as_vector())

    @pytest.mark.parametrize("K, L, seed", [(3, 3, 0), (2, 4, 1), (4, 3, 2)])
    def test_targets_at_six_and_seven_users_and_relays(self, K, L, seed):
        """K + L = 6 ranks all 1365 live cells in one batch; K + L = 7 reads 23115 in 23."""
        rng = np.random.default_rng(seed)
        spec = random_uplink_spec(rng, K, L)
        self._assert_solved(spec, psi(spec, rng.uniform(size=K + L - 1)).as_vector())

    def test_batches_rank_as_one_pass(self, monkeypatch):
        """Read 8 cells at a time, the 117 live cells at K = 2, L = 3 rank as in one pass, and
        a budget of 15 keeps the best 15 although cells are then dropped unfitted."""
        rng = np.random.default_rng(3)
        spec = random_uplink_spec(rng, 2, 3)
        tvec = psi(spec, rng.uniform(size=4)).as_vector()
        js, xs = _rank_cells(spec, tvec, 5000)
        monkeypatch.setattr(splitting, "CORNER_ROWS", 8 * 16)
        js8, xs8 = _rank_cells(spec, tvec, 5000)
        assert len(js) == 117 and np.array_equal(js, js8) and np.allclose(xs, xs8, atol=1e-12)
        js15, xs15 = _rank_cells(spec, tvec, 15)
        assert np.array_equal(js15, js[:15]) and np.allclose(xs15, xs[:15], atol=1e-12)

    def test_scan_reads_one_batch_per_evaluation(self, monkeypatch):
        """A budget of 3 psi calls reads 3 batches of cells and keeps the best 3 cells."""
        spec = random_uplink_spec(np.random.default_rng(4), 2, 3)
        read, corner_points = [], splitting._corner_points

        def counted(spec, cells, corners):
            read.append(len(cells))
            return corner_points(spec, cells, corners)

        monkeypatch.setattr(splitting, "CORNER_ROWS", 8 * 16)
        monkeypatch.setattr(splitting, "_corner_points", counted)
        js, _ = _rank_cells(spec, psi(spec, [0.3, 0.6, 0.2, 0.9]).as_vector(), 3)
        assert read == [8, 8, 8] and len(js) == 3
