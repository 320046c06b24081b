"""Ensemble-mixer tests: closed forms vs brute-force averaging and quadrature."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import squeezedx as sx
from squeezedx import mixing, states

OSC = sx.OscillatorConfig()
SGR2 = OSC.ground_variance
SGR = np.sqrt(SGR2)
T = OSC.period


def pure_squeeze(A0, phi_sq=0.0):
    return sx.SqueezeDynamics(A0, np.sqrt(A0**2 - 1.0), phi_sq)


def mixed(A0=1.0, phi_sq=0.0, X_amp=0.0, phi_c=0.0, sigma_a=0.0):
    base = sx.GaussianStateSpec(
        OSC,
        pure_squeeze(A0, phi_sq) if A0 > 1 else sx.SqueezeDynamics(1.0, 0.0, phi_sq),
        sx.CenterTrajectory(X_amp, phi_c))
    return sx.MixedGaussianSpec(base, sigma_a=sigma_a)


def complex_gemm_members(spec, grid, t, dx0, dp0):
    """The ensemble members as whole complex columns, row factor included: the
    member builder before the real rank-k sum."""
    osc = spec.base.osc
    m_om = osc.mass * osc.angular_frequency
    A, B = sx.quadrature_shape(spec.base.squeeze, osc.angular_frequency, t)
    xbar, pbar = sx.center_state(spec.base.center, osc, t)
    c, s = np.cos(osc.angular_frequency * t), np.sin(osc.angular_frequency * t)
    xc = xbar + dx0 * c + dp0 * s / m_om
    pc = pbar + dp0 * c - dx0 * m_om * s
    w = 4.0 * osc.ground_variance * A
    k = 2.0 * B * xc / w + pc / osc.hbar
    n, h = grid.n_points, grid.spacing
    L = math.isqrt(n - 1) + 1
    rows = n // L
    coarse = np.exp(1j * (grid.x_min + np.arange(-(-n // L)) * L * h)[:, None] * k)
    fine = np.exp(1j * (np.arange(L) * h)[:, None] * k)
    psi = np.empty((n, k.size), dtype=complex)
    np.multiply(coarse[:rows, None], fine, out=psi[:rows * L].reshape(rows, L, k.size))
    np.multiply(coarse[rows:], fine[:n - rows * L], out=psi[rows * L:])
    x = grid.points()
    psi *= ((2.0 * np.pi * osc.ground_variance * A) ** -0.25
            * np.exp(-1j * B * x * x / w))[:, None]
    amp = np.subtract.outer(x, xc)
    np.square(amp, out=amp)
    amp *= -1.0 / w
    psi *= np.exp(amp, out=amp)
    return psi


def complex_gemm_sum(spec, grid, t, dx0, dp0, weights):
    """sum_m weights_m |psi_m><psi_m| as one complex GEMM per block: the reference
    for mixing._ensemble_sum."""
    weights = np.broadcast_to(weights, dx0.shape)
    step = max(1, mixing.BLOCK_VALUES // grid.n_points)
    rho = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for i in range(0, dx0.size, step):
        psi = complex_gemm_members(spec, grid, t, dx0[i:i + step], dp0[i:i + step])
        scaled = psi * weights[i:i + step]
        rho += scaled @ np.conjugate(psi, out=psi).T
    return rho


def whole_block_members(spec, grid, t, dx0, dp0, half_log_w, plane, out):
    """mixing._member_block before its strips: the plane waves of the whole block in one
    (N, M) complex buffer ``plane``, then each step on the whole block.  The strip builder's
    reference, bit for bit."""
    osc = spec.base.osc
    m_om = osc.mass * osc.angular_frequency
    A, B = sx.quadrature_shape(spec.base.squeeze, osc.angular_frequency, t)
    xbar, pbar = sx.center_state(spec.base.center, osc, t)
    c, s = np.cos(osc.angular_frequency * t), np.sin(osc.angular_frequency * t)
    xc = xbar + dx0 * c + dp0 * s / m_om
    pc = pbar + dp0 * c - dx0 * m_om * s
    w = 4.0 * osc.ground_variance * A
    k = 2.0 * B * xc / w + pc / osc.hbar
    n, h, m = grid.n_points, grid.spacing, k.size
    L = math.isqrt(n - 1) + 1
    rows = n // L
    coarse = np.exp(1j * (grid.x_min + np.arange(-(-n // L)) * L * h)[:, None] * k)
    fine = np.exp(1j * (np.arange(L) * h)[:, None] * k)
    np.multiply(coarse[:rows, None], fine, out=plane[:rows * L].reshape(rows, L, m))
    np.multiply(coarse[rows:], fine[:n - rows * L], out=plane[rows * L:])
    gauss = out[:, m:]
    r = 1.0 / math.sqrt(w)
    np.subtract.outer(grid.points() * r, xc * r, out=gauss)
    np.square(gauss, out=gauss)
    np.subtract(half_log_w, gauss, out=gauss)
    np.exp(gauss, out=gauss)
    np.multiply(gauss, plane.real, out=out[:, :m])
    gauss *= plane.imag


def whole_matrix_sum(spec, grid, t, dx0, dp0, log_w):
    """mixing._ensemble_sum before its strips and tiles: ``whole_block_members`` for each
    block of mixing.BLOCK_VALUES, and R R^H applied through whole N x N matrices."""
    n = grid.n_points
    members = mixing._tiles(dx0.size, n, mixing.BLOCK_VALUES)
    half_log_w = np.broadcast_to(0.5 * log_w, dx0.shape)
    re, im = np.zeros((n, n)), np.zeros((n, n))
    for block in members:
        m = block.stop - block.start
        X = np.empty((n, 2 * m))
        whole_block_members(spec, grid, t, dx0[block], dp0[block], half_log_w[block],
                            np.empty((n, m), dtype=complex), X)
        re += X @ X.T
        im += X[:, m:] @ X[:, :m].T
    im -= im.T
    R = mixing._row_factor(spec, grid, t)
    rr = np.outer(R.real, R.real) + np.outer(R.imag, R.imag)
    ri = np.outer(R.imag, R.real)
    ri -= ri.T
    rho = np.empty((n, n), dtype=complex)
    rho.real = rr * re - ri * im
    rho.imag = rr * im + ri * re
    return rho


def ensemble_members(ms, method, count):
    """dx0, dp0, weights and log weights of ``count``**2 Gauss-Hermite nodes or ``count``
    Monte Carlo samples."""
    m_om = OSC.mass * OSC.angular_frequency
    if method == "gauss-hermite":
        xi, w = np.polynomial.hermite.hermgauss(count)
        wt = w / np.sqrt(np.pi)
        dx0, dp0 = np.meshgrid(np.sqrt(2.0) * ms.sigma_a * xi,
                               np.sqrt(2.0) * m_om * ms.sigma_a * xi, indexing="ij")
        log_wt = np.log(wt)
        return dx0.ravel(), dp0.ravel(), np.outer(wt, wt).ravel(), np.add.outer(log_wt, log_wt).ravel()
    rng = np.random.default_rng(count)
    dx0 = rng.normal(0.0, ms.sigma_a, count)
    dp0 = rng.normal(0.0, m_om * ms.sigma_a, count)
    return dx0, dp0, 1.0 / count, -math.log(count)


# The real rank-k sum and the complex GEMM sum each add their k blocks one after another, and
# recursive summation of k terms errs by at most (k - 1) u sum |x_i| (Higham, "Accuracy and
# Stability of Numerical Algorithms", 2nd ed., section 4.2): linear in k.  So the two sums
# agree to 1e-14 of the peak up to RANK_K_BLOCKS blocks, where the largest difference in 30
# draws was 5.0e-15 of the peak (2.3e-15 at 1,024 blocks), and to a bound in proportion to k
# past it: 65,536 one-member blocks measured up to 1.03e-14.
RANK_K_BLOCKS = 2**14


def rank_k_bound(peak: float, blocks: int) -> float:
    return 1e-14 * peak * max(1.0, blocks / RANK_K_BLOCKS)


# Both sums cost in proportion to their block count: 65,536 one-member blocks at n = 92 took
# 16.7 s, 16,900 at n = 16 2.4 s.  So the strategy draws at most DRAWN_BLOCKS blocks, and one
# explicit example of PAST_RANK_K_BLOCKS one-member blocks at n = 16 runs the bound's growth.
DRAWN_BLOCKS = 2**11
PAST_RANK_K_BLOCKS = 130**2


def block_count(n: int, method: str, count: int, block_values: int) -> int:
    """Blocks of the ensemble sum over ``count``**2 Gauss-Hermite nodes or ``count`` samples."""
    members = count * count if method == "gauss-hermite" else count
    return len(mixing._tiles(members, n, block_values))


# (n, method, count, block_values, tile_values) of a sum of at most 2**9 blocks: one-member
# blocks, strips and tiles of one row, many blocks, and the defaults
STRIP_SHAPES = st.tuples(
    st.integers(16, 97), st.sampled_from(["gauss-hermite", "monte-carlo"]), st.integers(1, 40),
    st.one_of(st.just(1), st.just(mixing.BLOCK_VALUES), st.integers(2, 40 * 97)),
    st.one_of(st.just(1), st.just(mixing.TILE_VALUES), st.integers(2, 2**12)),
).filter(lambda shape: block_count(*shape[:4]) <= 2**9)

# (n, method, count, block_values) of an ensemble sum of at most DRAWN_BLOCKS blocks
ENSEMBLE_SHAPES = st.tuples(
    st.integers(16, 97), st.sampled_from(["gauss-hermite", "monte-carlo"]), st.integers(1, 300),
    st.one_of(st.just(mixing.BLOCK_VALUES), st.integers(1, 64 * 97)),
).filter(lambda shape: block_count(*shape) <= DRAWN_BLOCKS)


def member_columns(spec, grid, t, dx0, dp0, weights):
    """The members psi_m from mixing._member_block: each column C_m + i S_m times the
    shared row factor, divided by sqrt(w_m)."""
    n, m = grid.n_points, dx0.size
    out = np.empty((n, 2 * m))
    mixing._member_block(spec, grid, t, dx0, dp0, 0.5 * np.log(weights), out)
    a = (out[:, :m] + 1j * out[:, m:]) / np.sqrt(weights)
    return mixing._row_factor(spec, grid, t)[:, None] * a


class TestMixedGaussianSpec:
    def test_rejects_non_pure_base(self):
        base = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(2.0, 0.5))
        with pytest.raises(sx.InvariantError, match="pure"):
            sx.MixedGaussianSpec(base, sigma_a=0.1)

    def test_rejects_negative_spread(self):
        # sigma_a**2 hides the sign, so the sign is judged on its own
        base = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        with pytest.raises(sx.InvariantError, match=r"^mixing invariant sigma_a >= 0 with "
                                                    r"sigma_a\^2/sigma_gr\^2 and P finite "
                                                    r"violated: sigma_a=-0\.1$"):
            sx.MixedGaussianSpec(base, sigma_a=-0.1)

    @pytest.mark.parametrize("sigma_a", [math.nan, math.inf, 1e200], ids=["nan", "inf", "1e200"])
    def test_rejects_a_spread_whose_square_is_not_finite(self, sigma_a):
        # inf used to build A0 = inf, and 1e200 to raise OverflowError from sigma_a**2 in
        # reparameterize, purity_product and ensemble_average_density
        base = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        with pytest.raises(sx.InvariantError, match=r"sigma_a\^2/sigma_gr\^2 and P finite "
                                                    rf"violated: sigma_a={re.escape(repr(sigma_a))}$"):
            sx.MixedGaussianSpec(base, sigma_a=sigma_a)

    def test_rejects_a_spread_whose_purity_product_is_not_finite(self):
        # sigma_a^2/sigma_gr^2 = 2e300 is finite, but P = (1 + 2e300)^2 is not: it used to build
        base = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        with pytest.raises(sx.InvariantError, match=r"^mixing invariant sigma_a >= 0 with "
                                                    r"sigma_a\^2/sigma_gr\^2 and P finite "
                                                    r"violated: sigma_a=1e\+150$"):
            sx.MixedGaussianSpec(base, sigma_a=1e150)

    @given(A0=st.floats(1.0, 4.0), s=st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_purity_product_formula(self, A0, s):
        # P = 1 + (sigma_a/sigma_gr)^4 + 2 A0 (sigma_a/sigma_gr)^2
        ms = mixed(A0=A0, sigma_a=s * SGR)
        expected = 1.0 + s**4 + 2.0 * A0 * s**2
        assert ms.purity_product == pytest.approx(expected, rel=1e-10)
        assert ms.purity_product >= 1.0 - 1e-12


class TestReparameterize:
    def test_sigma_zero_is_identity(self):
        ms = mixed(A0=1.25, phi_sq=0.4, X_amp=SGR, sigma_a=0.0)
        assert sx.reparameterize(ms) == ms.base

    def test_ground_base_with_sigma_gr(self):
        rp = sx.reparameterize(mixed(sigma_a=SGR))
        assert rp.squeeze.A0 == pytest.approx(2.0, rel=1e-14)
        assert rp.purity_product == pytest.approx(4.0, rel=1e-14)

    def test_squeezed_base_with_half_variance_spread(self):
        rp = sx.reparameterize(mixed(A0=1.25, sigma_a=np.sqrt(0.5 * SGR2)))
        assert rp.squeeze.A0 == pytest.approx(1.75, rel=1e-14)
        assert rp.purity_product == pytest.approx(2.5, rel=1e-14)

    def test_preserves_dA_phi_sq_and_center(self):
        ms = mixed(A0=1.6, phi_sq=0.9, X_amp=1.3 * SGR, phi_c=0.2, sigma_a=0.8 * SGR)
        rp = sx.reparameterize(ms)
        assert rp.squeeze.dA == ms.base.squeeze.dA
        assert rp.squeeze.phi_sq == ms.base.squeeze.phi_sq
        assert rp.center == ms.base.center

    @given(s1=st.floats(0.0, 2.0), s2=st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_P_monotone_in_sigma_a(self, s1, s2):
        p1 = mixed(A0=1.5, sigma_a=s1 * SGR).purity_product
        p2 = mixed(A0=1.5, sigma_a=s2 * SGR).purity_product
        if s1 + 1e-6 < s2:  # strict growth needs a gap floats can resolve
            assert p1 < p2

    @given(A0=st.floats(1.0, 4.0), s=st.floats(0.0, 2.0), t=st.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_total_variance_identity(self, A0, s, t):
        # sigma_gr^2 A(t) + sigma_a^2 = sigma_gr^2 (A(t) + sigma_a^2/sigma_gr^2)
        ms = mixed(A0=A0, sigma_a=s * SGR)
        rp = sx.reparameterize(ms)
        A_base, _ = sx.quadrature_shape(ms.base.squeeze, 1.0, t)
        A_rep, _ = sx.quadrature_shape(rp.squeeze, 1.0, t)
        assert SGR2 * A_rep == pytest.approx(SGR2 * A_base + ms.sigma_a**2, rel=1e-12)


class TestEvalMixedDensity:
    def test_P_one_reduces_to_pure_density(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25, 0.4),
                                    sx.CenterTrajectory(SGR, 0.9))
        grid = sx.GridSpec.for_state(spec, n_points=256)
        t = 0.9
        dm = sx.eval_mixed_density(spec, grid, t)
        dp = sx.eval_pure_density(spec, grid, t)
        assert np.abs(dm.values - dp.values).max() <= 1e-12

    def test_diagonal_gaussian_independent_of_P(self):
        ms = mixed(A0=1.25, X_amp=SGR, sigma_a=SGR)
        rp = sx.reparameterize(ms)
        grid = sx.GridSpec.for_state(rp, n_points=256)
        t = 1.3
        dm = sx.eval_mixed_density(rp, grid, t)
        A, _ = sx.quadrature_shape(rp.squeeze, 1.0, t)
        x_c, _ = sx.center_state(rp.center, OSC, t)
        x = grid.points()
        gauss = np.exp(-(x - x_c) ** 2 / (2 * SGR2 * A)) / np.sqrt(2 * np.pi * SGR2 * A)
        assert np.abs(np.diagonal(dm.values).real - gauss).max() <= 1e-13

    def test_purity_for_P4(self):
        rp = sx.reparameterize(mixed(sigma_a=SGR))
        grid = sx.GridSpec.for_state(rp, n_points=256)
        assert sx.purity(sx.eval_mixed_density(rp, grid, 0.35)) == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("s_ratio", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_unit_trace_across_P_range(self, s_ratio):
        # covers P from 1 to 1 + 81 + 2*1.5*9 = 109ish at the top ratio
        ms = mixed(A0=1.5, X_amp=SGR, sigma_a=s_ratio * SGR)
        rp = sx.reparameterize(ms)
        grid = sx.GridSpec.for_state(rp, n_points=512)
        rng = np.random.default_rng(17)
        for t in rng.uniform(0.0, T, 4):
            dm = sx.eval_mixed_density(rp, grid, float(t))
            assert abs(dm.trace() - 1.0) <= 1e-8

    def test_mixed_moments_and_uncertainty_floor(self):
        # sigma_x^2 = sigma_gr^2 A(t) and sigma_x sigma_p >= (hbar/2) sqrt(P),
        # quadrature-verified; equality at shape extrema (B = 0)
        ms = mixed(A0=1.4, phi_sq=0.6, sigma_a=0.9 * SGR)
        rp = sx.reparameterize(ms)
        P = rp.purity_product
        grid = sx.GridSpec.for_state(rp, n_points=512)
        rng = np.random.default_rng(23)
        for t in rng.uniform(0.0, T, 5):
            dm = sx.eval_mixed_density(rp, grid, float(t))
            m = sx.moments(dm, OSC)
            A, B = sx.quadrature_shape(rp.squeeze, 1.0, float(t))
            assert m.var_x == pytest.approx(SGR2 * A, rel=1e-9)
            assert m.uncertainty_product >= 0.5 * OSC.hbar * np.sqrt(P) * (1 - 1e-9)
            assert m.uncertainty_product == pytest.approx(
                0.5 * OSC.hbar * np.sqrt(P + B**2), rel=1e-8)
        t_min = (np.pi - rp.squeeze.phi_sq) / 2.0
        dm = sx.eval_mixed_density(rp, grid, t_min)
        m = sx.moments(dm, OSC)
        assert m.uncertainty_product == pytest.approx(0.5 * OSC.hbar * np.sqrt(P), rel=1e-9)


class TestEnsembleAverage:
    def test_sigma_zero_returns_pure_density(self):
        ms = mixed(A0=1.25, X_amp=SGR, sigma_a=0.0)
        grid = sx.GridSpec.for_state(ms.base, n_points=128)
        dp = sx.eval_pure_density(ms.base, grid, 0.7)
        # every member sits on the base trajectory; the sum only adds rounding
        for ens in (sx.ensemble_average_density(ms, grid, 0.7, 16),
                    sx.ensemble_average_density(ms, grid, 0.7, 32),
                    sx.ensemble_average_density(ms, grid, 0.7, method="monte-carlo",
                                                n_samples=1000)):
            assert np.abs(ens.values - dp.values).max() <= 1e-13 * np.abs(dp.values).max()

    def test_ground_base_unit_spread_at_t0(self):
        ms = mixed(sigma_a=SGR)
        rp = sx.reparameterize(ms)
        grid = sx.GridSpec.for_state(rp, n_points=256)
        ens = sx.ensemble_average_density(ms, grid, 0.0, 32)
        cf = sx.eval_mixed_density(rp, grid, 0.0)
        err = np.abs(ens.values - cf.values).max() / np.abs(cf.values).max()
        assert err <= 1e-8

    def test_time_shifted_agreement(self):
        # the averaged matrix keeps solving the dynamics at later times
        ms = mixed(sigma_a=SGR)
        rp = sx.reparameterize(ms)
        grid = sx.GridSpec.for_state(rp, n_points=256)
        ens = sx.ensemble_average_density(ms, grid, 1.3, 32)
        cf = sx.eval_mixed_density(rp, grid, 1.3)
        err = np.abs(ens.values - cf.values).max() / np.abs(cf.values).max()
        assert err <= 1e-8

    def test_agreement_at_random_times_over_a_period(self):
        ms = mixed(A0=1.25, phi_sq=0.4, X_amp=SGR, phi_c=1.0, sigma_a=SGR)
        rp = sx.reparameterize(ms)
        grid = sx.GridSpec.for_state(rp, n_points=256)
        rng = np.random.default_rng(29)
        worst = 0.0
        for t in rng.uniform(0.0, T, 10):
            ens = sx.ensemble_average_density(ms, grid, float(t), 32)
            cf = sx.eval_mixed_density(rp, grid, float(t))
            worst = max(worst, float(np.abs(ens.values - cf.values).max()
                                     / np.abs(cf.values).max()))
        assert worst <= 1e-8

    def test_wide_spread_needs_more_nodes_and_then_agrees(self):
        # at sigma_a = 2 sigma_gr the 32-node rule is not converged: the
        # node-doubling guard must fire, and a 96-node rule must agree
        ms = mixed(A0=1.25, phi_sq=0.4, X_amp=SGR, phi_c=1.0, sigma_a=2 * SGR)
        rp = sx.reparameterize(ms)
        r = rp.support_radius(8.0)
        grid = sx.GridSpec(-r, r, 256)
        with pytest.raises(sx.ConvergenceError, match="increase n_nodes") as guard:
            sx.ensemble_average_density(ms, grid, 1.3, 32)
        # the error carries the drift its message prints
        assert guard.value.drift > mixing.CONVERGENCE_TOL
        assert f"moves the result by {guard.value.drift:.3e} of peak" in str(guard.value)
        for t in (0.0, 1.3):
            ens = sx.ensemble_average_density(ms, grid, t, 96, check_convergence=False)
            cf = sx.eval_mixed_density(rp, grid, t)
            err = np.abs(ens.values - cf.values).max() / np.abs(cf.values).max()
            assert err <= 1e-8

    def test_most_nodes_a_scenario_allows_sum_without_a_warning(self):
        # the guard's 256-node rule has pair weights w_i w_j below the float range
        ms = mixed(A0=1.25, phi_sq=0.4, X_amp=SGR, sigma_a=0.5 * SGR)
        rp = sx.reparameterize(ms)
        grid = sx.GridSpec.for_state(rp, n_points=64)
        ens = sx.ensemble_average_density(ms, grid, 0.4, 128)
        cf = sx.eval_mixed_density(rp, grid, 0.4)
        assert np.abs(ens.values - cf.values).max() <= 1e-8 * np.abs(cf.values).max()

    @pytest.mark.parametrize("n_nodes", [8, 129, 10**5])
    def test_rejects_node_counts_outside_16_to_128_before_building_a_rule(self, monkeypatch,
                                                                           n_nodes):
        # hermgauss(10**5) would build a 10**5 x 10**5 companion matrix: 80 GB
        def refuse(n):
            raise AssertionError(f"hermgauss({n}) called")
        ms = mixed(sigma_a=SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms), n_points=128)
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
        with pytest.raises(sx.InvariantError, match=rf"^n_nodes={n_nodes} is outside 16\.\.128$"):
            sx.ensemble_average_density(ms, grid, 0.0, n_nodes)

    def test_rejects_no_samples(self):
        ms = mixed(sigma_a=SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms), n_points=128)
        for n_samples in (0, -5):
            with pytest.raises(sx.InvariantError, match="n_samples >= 1"):
                sx.ensemble_average_density(ms, grid, 0.0, method="monte-carlo",
                                            n_samples=n_samples)

    @pytest.mark.parametrize("n_samples", [mixing.MAX_MC_SAMPLES + 1, 10**10])
    def test_rejects_too_many_samples_before_drawing(self, monkeypatch, n_samples):
        def refuse(seed):
            raise AssertionError("a generator was made")
        ms = mixed(sigma_a=SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms), n_points=128)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(sx.InvariantError, match=rf"at most 131072: got {n_samples}$"):
            sx.ensemble_average_density(ms, grid, 0.0, method="monte-carlo",
                                        n_samples=n_samples)

    def test_monte_carlo_mode_agrees_at_statistical_tolerance(self):
        ms = mixed(A0=1.25, phi_sq=0.4, X_amp=SGR, phi_c=1.0, sigma_a=SGR)
        rp = sx.reparameterize(ms)
        grid = sx.GridSpec.for_state(rp, n_points=256)
        ens = sx.ensemble_average_density(ms, grid, 1.3, method="monte-carlo")
        cf = sx.eval_mixed_density(rp, grid, 1.3)
        rms = np.sqrt(np.mean(np.abs(ens.values - cf.values) ** 2))
        assert rms / np.abs(cf.values).max() <= 1e-3

    def test_monte_carlo_is_seed_deterministic(self):
        ms = mixed(sigma_a=0.5 * SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms), n_points=64)
        a = sx.ensemble_average_density(ms, grid, 0.4, method="monte-carlo",
                                        n_samples=2000, seed=7)
        b = sx.ensemble_average_density(ms, grid, 0.4, method="monte-carlo",
                                        n_samples=2000, seed=7)
        assert np.array_equal(a.values, b.values)


class TestPointBound:
    @pytest.mark.parametrize("build", [
        lambda ms, grid: sx.eval_pure_density(ms.base, grid, 0.0),
        lambda ms, grid: sx.eval_mixed_density(sx.reparameterize(ms), grid, 0.0),
        lambda ms, grid: sx.ensemble_average_density(ms, grid, 0.0, method="gauss-hermite"),
        lambda ms, grid: sx.ensemble_average_density(ms, grid, 0.0, method="monte-carlo"),
    ], ids=["pure", "mixed", "gauss-hermite", "monte-carlo"])
    def test_refuses_an_oversize_grid_before_any_matrix_rule_or_draw(self, monkeypatch, build):
        # at 10**5 points the N x N matrix of each builder would take 149 GiB
        def refuse(*args, **kwargs):
            raise AssertionError("reached past the point bound")
        ms = mixed(sigma_a=SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms),
                                     n_points=states.MAX_DENSITY_POINTS + 1)
        monkeypatch.setattr(states, "_own_pages", refuse)
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(sx.InvariantError, match=r"^n_points=4097 exceeds 4096$"):
            build(ms, grid)


class TestMemberColumns:
    # the last mixed state's momenta need 1252 points, and its farthest member's 1268; its
    # N x N projector comparisons take about 7.5 s
    @pytest.mark.parametrize("A0, phi_sq, X_ratio, n_points", [
        (1.5, 0.0, 1.0, 512), (1.5, np.pi, 20.0, 512),
        pytest.param(5.0, np.pi - 0.01, 30.0, 1280, marks=pytest.mark.slow)])
    def test_columns_are_the_members(self, A0, phi_sq, X_ratio, n_points):
        # each column is the pure state whose center starts at the member's
        # initial center, up to a phase: compare the projectors
        ms = mixed(A0=A0, phi_sq=phi_sq, X_amp=X_ratio * SGR, sigma_a=SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms), n_points=n_points)
        m_om = OSC.mass * OSC.angular_frequency
        rng = np.random.default_rng(41)
        dx0 = rng.normal(0.0, ms.sigma_a, 40)
        dp0 = rng.normal(0.0, m_om * ms.sigma_a, 40)
        weights = rng.uniform(1e-3, 1.0, 40)
        x0, p0 = sx.center_state(ms.base.center, OSC, 0.0)
        members = [sx.GaussianStateSpec(OSC, ms.base.squeeze, sx.CenterTrajectory(
            float(np.hypot(x, p / m_om)), float(np.arctan2(-p / m_om, x))))
            for x, p in zip(x0 + dx0, p0 + dp0)]
        worst_projector = worst_value = 0.0
        for t in np.linspace(0.0, T, 9):
            psi = member_columns(ms, grid, t, dx0, dp0, weights)
            ref = np.stack([sx.eval_pure_wavefunction(m, grid, t).values for m in members], 1)
            for col, want in zip(psi.T, ref.T):
                expected = np.outer(want, want.conj())
                err = np.abs(np.outer(col, col.conj()) - expected).max()
                worst_projector = max(worst_projector, err / np.abs(expected).max())
            # value by value, after aligning each column's phase at its peak,
            # so that the far tails (the last, ragged plane-wave rows) count too
            peak = np.abs(ref).argmax(axis=0), np.arange(ref.shape[1])
            got = psi * np.conj(psi[peak] / np.abs(psi[peak]))
            want = ref * np.conj(ref[peak] / np.abs(ref[peak]))
            live = np.abs(want) > 1e-280
            worst_value = max(worst_value, (np.abs(got - want)[live] / np.abs(want)[live]).max())
        assert worst_projector <= 1e-11
        assert worst_value <= 1e-10


class TestEnsembleBlocks:
    def test_blocks_agree_with_one_block(self, monkeypatch):
        ms = mixed(A0=1.25, phi_sq=0.4, X_amp=SGR, phi_c=1.0, sigma_a=SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms), n_points=128)
        runs = {
            "gh": lambda: sx.ensemble_average_density(ms, grid, 1.3, 32,
                                                      check_convergence=False),
            "mc": lambda: sx.ensemble_average_density(ms, grid, 1.3, method="monte-carlo",
                                                      n_samples=2000, seed=3),
        }
        one = {name: run().values for name, run in runs.items()}

        widths = []
        member_block = mixing._member_block

        def counted(spec, grid, t, dx0, *args):
            widths.append(dx0.size)
            member_block(spec, grid, t, dx0, *args)

        monkeypatch.setattr(mixing, "_member_block", counted)
        monkeypatch.setattr(mixing, "BLOCK_VALUES", 300 * grid.n_points)
        for name, members in (("gh", 32 * 32), ("mc", 2000)):
            widths.clear()
            blocked = runs[name]().values
            assert widths == [300] * (members // 300) + [members % 300]
            peak = np.abs(one[name]).max()
            assert np.abs(blocked - one[name]).max() <= 1e-14 * peak

    @given(shape=ENSEMBLE_SHAPES,
           A0=st.floats(1.0, 3.0), phi_sq=st.floats(0.0, np.pi), X_ratio=st.floats(0.0, 3.0),
           phi_c=st.floats(0.0, 2 * np.pi), s_ratio=st.floats(0.1, 1.5), t=st.floats(0.0, T))
    @example(shape=(64, "gauss-hermite", 17, 100 * 64), A0=1.5, phi_sq=0.4,
             X_ratio=1.0, phi_c=1.0, s_ratio=1.0, t=1.3)  # GH, even n, ragged last block
    @example(shape=(63, "monte-carlo", 250, 31), A0=1.25, phi_sq=2.0,
             X_ratio=2.0, phi_c=0.3, s_ratio=0.6, t=4.0)  # MC, odd n, BLOCK_VALUES below n
    @example(shape=(37, "monte-carlo", 1, mixing.BLOCK_VALUES), A0=2.0,
             phi_sq=0.0, X_ratio=0.5, phi_c=0.0, s_ratio=0.8, t=0.7)  # one member
    @example(shape=(16, "gauss-hermite", math.isqrt(PAST_RANK_K_BLOCKS), 1), A0=1.5,
             phi_sq=0.4, X_ratio=1.0, phi_c=1.0, s_ratio=1.0, t=1.3)  # the bound's growth
    @settings(max_examples=40, deadline=None)
    def test_real_rank_k_sum_equals_the_complex_gemm_sum(self, shape, A0, phi_sq, X_ratio, phi_c,
                                                          s_ratio, t):
        n, method, count, block_values = shape
        ms = mixed(A0=A0, phi_sq=phi_sq, X_amp=X_ratio * SGR, phi_c=phi_c, sigma_a=s_ratio * SGR)
        # the sums take any grid: n points across the 12-std span, resolved or not
        r = sx.reparameterize(ms).support_radius(12.0)
        grid = sx.GridSpec(-r, r, n)
        dx0, dp0, weights, log_w = ensemble_members(ms, method, count)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixing, "BLOCK_VALUES", block_values)
            rho = mixing._ensemble_sum(ms, grid, t, dx0, dp0, log_w)
            ref = complex_gemm_sum(ms, grid, t, dx0, dp0, weights)
        assert np.abs(rho - ref).max() <= rank_k_bound(np.abs(ref).max(), block_count(*shape))
        assert np.array_equal(rho, rho.conj().T)

    @given(shape=STRIP_SHAPES,
           A0=st.floats(1.0, 3.0), phi_sq=st.floats(0.0, np.pi), X_ratio=st.floats(0.0, 3.0),
           phi_c=st.floats(0.0, 2 * np.pi), s_ratio=st.floats(0.1, 1.5), t=st.floats(0.0, T))
    # n = 63: L = 8 and a last coarse row of 7 points; strips of one coarse row, below budget
    @example(shape=(63, "monte-carlo", 40, 1, 1), A0=1.25, phi_sq=2.0, X_ratio=2.0, phi_c=0.3,
             s_ratio=0.6, t=4.0)
    @example(shape=(64, "gauss-hermite", 17, 100 * 64, 3 * 8 * 100), A0=1.5, phi_sq=0.4,
             X_ratio=1.0, phi_c=1.0, s_ratio=1.0, t=1.3)  # 3 blocks, strips of 3 coarse rows
    @example(shape=(97, "gauss-hermite", 32, mixing.BLOCK_VALUES, mixing.TILE_VALUES),
             A0=1.0, phi_sq=0.0, X_ratio=0.0, phi_c=0.0, s_ratio=1.0, t=0.0)  # the defaults
    @settings(max_examples=40, deadline=None)
    def test_strips_and_tiles_equal_the_whole_block_bit_for_bit(self, shape, A0, phi_sq,
                                                                 X_ratio, phi_c, s_ratio, t):
        n, method, count, block_values, strip_values = shape
        ms = mixed(A0=A0, phi_sq=phi_sq, X_amp=X_ratio * SGR, phi_c=phi_c, sigma_a=s_ratio * SGR)
        r = sx.reparameterize(ms).support_radius(12.0)
        grid = sx.GridSpec(-r, r, n)
        dx0, dp0, _, log_w = ensemble_members(ms, method, count)
        half_log_w = np.broadcast_to(0.5 * log_w, dx0.shape)
        want = np.empty((n, 2 * dx0.size))
        whole_block_members(ms, grid, t, dx0, dp0, half_log_w,
                            np.empty((n, dx0.size), dtype=complex), want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixing, "TILE_VALUES", strip_values)
            got = np.empty_like(want)
            mixing._member_block(ms, grid, t, dx0, dp0, half_log_w, got)
            mp.setattr(mixing, "BLOCK_VALUES", block_values)
            rho = mixing._ensemble_sum(ms, grid, t, dx0, dp0, log_w)
            ref = whole_matrix_sum(ms, grid, t, dx0, dp0, log_w)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(rho.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("defect", ["dropped-central-member", "flipped-im-sign"])
    def test_the_rank_k_bound_at_its_loosest_fails_a_planted_defect(self, defect):
        # PAST_RANK_K_BLOCKS, the explicit example's, are the most blocks the test above sums
        ms = mixed(A0=1.5, phi_sq=0.4, X_amp=SGR, phi_c=1.0, sigma_a=SGR)
        r = sx.reparameterize(ms).support_radius(12.0)
        grid = sx.GridSpec(-r, r, 64)
        dx0, dp0, weights, log_w = ensemble_members(ms, "gauss-hermite", 17)
        ref = complex_gemm_sum(ms, grid, 1.3, dx0, dp0, weights)
        if defect == "dropped-central-member":  # node (8, 8) of 17 x 17
            keep = np.arange(dx0.size) != dx0.size // 2
            rho = mixing._ensemble_sum(ms, grid, 1.3, dx0[keep], dp0[keep], log_w[keep])
        else:  # Im rho with its sign flipped
            rho = mixing._ensemble_sum(ms, grid, 1.3, dx0, dp0, log_w).conj()
        assert np.abs(rho - ref).max() > rank_k_bound(np.abs(ref).max(), PAST_RANK_K_BLOCKS)

    def test_monte_carlo_memory_is_bounded_by_the_block(self):
        ms = mixed(A0=1.25, phi_sq=0.4, X_amp=SGR, phi_c=1.0, sigma_a=SGR)
        grid = sx.GridSpec.for_state(sx.reparameterize(ms), n_points=256)
        tracemalloc.start()
        try:
            sx.ensemble_average_density(ms, grid, 1.3, method="monte-carlo", n_samples=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one member block is 4 MiB; building it all at once would take 78 MiB
        assert peak <= 48 * 2**20
        # the [C | S] buffer is 4 MiB, allocated once, and the plane waves take one strip;
        # the complex GEMM sum, with its per-block copies, peaked at 31.2 MiB, and a whole
        # (N, M) plane-wave buffer beside an 8 MiB [C | S] at 21.0 MiB
        assert peak <= 10 * 2**20


class TestGaussianIdentities:
    def quad_shifted(self, x, a, s1, s2):
        def f(y):
            return (np.exp(-((x + y) ** 2 + a * (x + y)) / (2 * s1)) / np.sqrt(2 * np.pi * s1)
                    * np.exp(-y**2 / (2 * s2)) / np.sqrt(2 * np.pi * s2))
        re = quad(lambda y: f(y).real, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12,
                  limit=200)[0]
        im = quad(lambda y: f(y).imag, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12,
                  limit=200)[0]
        return re + 1j * im

    def quad_exponential(self, x, a, s):
        def f(y):
            return np.exp(a * (x + y)) * np.exp(-y**2 / (2 * s)) / np.sqrt(2 * np.pi * s)
        re = quad(lambda y: f(y).real, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12,
                  limit=200)[0]
        im = quad(lambda y: f(y).imag, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12,
                  limit=200)[0]
        return re + 1j * im

    def test_shifted_delta_limit(self):
        got = sx.gaussian_identity_shifted(0.4, 0.0, 1.7, 1e-12)
        expected = np.exp(-0.4**2 / (2 * 1.7)) / np.sqrt(2 * np.pi * 1.7)
        assert abs(got - expected) / abs(expected) <= 1e-10

    def test_shifted_unit_convolution(self):
        assert sx.gaussian_identity_shifted(0.0, 0.0, 1.0, 1.0) == pytest.approx(
            1.0 / np.sqrt(4 * np.pi), rel=1e-14)

    def test_shifted_complex_example_vs_quadrature(self):
        a, s1, s2, x = 0.7 + 0.3j, 0.8, 0.5, 0.2
        got = sx.gaussian_identity_shifted(x, a, s1, s2)
        oracle = self.quad_shifted(x, a, s1, s2)
        assert abs(got - oracle) / abs(oracle) <= 1e-10

    def test_exponential_trivial(self):
        assert sx.gaussian_identity_exponential(0.3, 0.0, 1.0) == 1.0

    def test_exponential_lognormal_mean(self):
        assert sx.gaussian_identity_exponential(0.0, 1.0, 1.0) == pytest.approx(
            np.exp(0.5), rel=1e-14)

    def test_exponential_characteristic_function(self):
        got = sx.gaussian_identity_exponential(0.5, 2.0j, 0.6)
        assert got == pytest.approx(np.exp(1j) * np.exp(-1.2), rel=1e-14)
        oracle = self.quad_exponential(0.5, 2.0j, 0.6)
        assert abs(got - oracle) / abs(oracle) <= 1e-10

    def test_rejects_nonpositive_variances(self):
        with pytest.raises(sx.InvariantError):
            sx.gaussian_identity_shifted(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(sx.InvariantError):
            sx.gaussian_identity_exponential(0.0, 0.0, 0.0)

    @given(ar=st.floats(-3.0, 3.0), ai=st.floats(-3.0, 3.0),
           s1=st.floats(0.25, 4.0), s2=st.floats(0.25, 4.0), x=st.floats(-2.0, 2.0))
    # quad's default epsrel of 1.49e-8 left this reference 1.09e-10 off the closed form
    @example(ar=0.0, ai=1.41015625, s1=0.9985402947533428, s2=3.4609375, x=0.0)
    @settings(max_examples=25, deadline=None)
    def test_shifted_identity_random_parameters(self, ar, ai, s1, s2, x):
        # parameter box kept where double-precision quadrature is reliable;
        # the acceptance suite covers the full box with an mpmath oracle
        a = ar + 1j * ai
        got = sx.gaussian_identity_shifted(x, a, s1, s2)
        oracle = self.quad_shifted(x, a, s1, s2)
        assert abs(got - oracle) <= 1e-10 * max(abs(oracle), 1e-30)
