"""Analytic-core tests: closed forms against independent oracles."""

import dataclasses
import mmap
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

import squeezedx as sx
from squeezedx import states

OSC = sx.OscillatorConfig()
SGR2 = OSC.ground_variance
SGR = np.sqrt(SGR2)


def pure_squeeze(A0, phi_sq=0.0):
    return sx.SqueezeDynamics(A0, np.sqrt(A0**2 - 1.0), phi_sq)


def two_transform_moments(dm, osc):
    """Density moments with one transform of rho per derivative order.

    ``moments`` transforms rho once and feeds both derivatives from it; the
    results must be the same floats.
    """
    grid, rho, hbar = dm.grid, dm.values, osc.hbar
    x = grid.points()

    def trapz(values):
        return float(np.trapezoid(values, dx=grid.spacing))

    def derivative_diagonal(order):
        ik = (1j * grid.wavenumbers()[:, None]) ** order
        return np.diagonal(np.fft.ifft(ik * np.fft.fft(rho, axis=0), axis=0))

    diag = np.diagonal(rho).real
    mean_x = trapz(x * diag)
    var_x = trapz((x - mean_x) ** 2 * diag)
    d1 = derivative_diagonal(1)
    mean_p = trapz((-1j * hbar * d1).real)
    var_p = trapz((-(hbar**2) * derivative_diagonal(2)).real) - mean_p**2
    cov_xp = trapz(((x - mean_x) * (-1j * hbar) * d1).real)
    return mean_x, mean_p, var_x, var_p, cov_xp, float(np.sqrt(var_x * var_p))


def whole_matrix_derivative_diagonals(rho, grid):
    """Diagonals of d/dx rho and d^2/dx^2 rho from one whole-matrix FFT of rho."""
    ik = 1j * grid.wavenumbers()[:, None]
    rho_k = np.fft.fft(rho, axis=0)
    return tuple(np.diagonal(np.fft.ifft(ik ** order * rho_k, axis=0)).copy() for order in (1, 2))


def one_transform_moments(dm, osc):
    """Density moments in the plain whole-matrix expression that ``moments`` walks in tiles."""
    grid, rho, hbar = dm.grid, dm.values, osc.hbar
    x = grid.points()

    def trapz(values):
        return float(np.trapezoid(values, dx=grid.spacing))

    diag = np.diagonal(rho).real
    mean_x = trapz(x * diag)
    var_x = trapz((x - mean_x) ** 2 * diag)
    d1, d2 = whole_matrix_derivative_diagonals(rho, grid)
    mean_p = trapz((-1j * hbar * d1).real)
    var_p = trapz((-(hbar**2) * d2).real) - mean_p**2
    cov_xp = trapz(((x - mean_x) * (-1j * hbar) * d1).real)
    return mean_x, mean_p, var_x, var_p, cov_xp


def whole_matrix_density(spec, grid, t, P):
    """The Gaussian density as one whole-matrix expression: the untiled build."""
    osc = spec.osc
    s2 = osc.ground_variance
    A, B = sx.quadrature_shape(spec.squeeze, osc.angular_frequency, t)
    x_c, p_c = sx.center_state(spec.center, osc, t)
    x = grid.points()
    s = 0.5 * (x[:, None] + x[None, :]) - x_c
    d = x[:, None] - x[None, :]
    return (np.exp(-(s * s + 0.25 * P * d * d) / (2.0 * s2 * A)
                   - 1j * B * s * d / (2.0 * s2 * A)
                   + 1j * p_c * d / osc.hbar)
            / np.sqrt(2.0 * np.pi * s2 * A))


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@st.composite
def resolved_gaussian_states(draw):
    """(spec, grid): a Gaussian state with P >= 1 on a grid of n >= 24 points that resolves it.

    The grid spans X_amp + 8.5 maximal standard deviations each side, with the points the
    automatic grid takes from n, more than n where its momenta need them; its spacing stays
    below 0.8 of the narrowest x standard deviation, so the trapezoid trace of the density is
    1 well within NORM_TOL.
    """
    n = draw(st.integers(24, 300))
    P = draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0)))
    # width ratio sqrt((A0 + dA) / (A0 - dA)), capped so that n points resolve the state
    r = draw(st.floats(1.0, 1.0 + (n - 24) / 40))
    A0 = np.sqrt(P) * 0.5 * (r + 1.0 / r)
    dA = np.sqrt(P) * 0.5 * (r - 1.0 / r)
    squeeze = sx.SqueezeDynamics(A0, dA, draw(st.floats(0.0, 2 * np.pi)))
    center = sx.CenterTrajectory(draw(st.floats(0.0, 0.5)) * SGR, draw(st.floats(0.0, 2 * np.pi)))
    spec = sx.GaussianStateSpec(OSC, squeeze, center)
    r = spec.support_radius(8.5)
    grid = dataclasses.replace(sx.GridSpec.for_state(spec, n_points=n), x_min=-r, x_max=r)
    assume(grid.spacing <= 0.8 * np.sqrt(SGR2 * (A0 - dA)))
    return spec, grid


# A pure state and a mixed one (sigma_a = 0.5 on the same base) 30 units from the origin.
# On 256 points across +-support_radius(12) x is covered and the momenta are not: there the
# mixed moments read mean_p = -1.380 at t = pi/4 (true -21.213) and var_p = 82.12 at
# t = pi/2 (true 0.75).
ALIASED_PURE = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0), sx.CenterTrajectory(30.0))
ALIASED_MIXED = sx.MixedGaussianSpec(ALIASED_PURE, 0.5)


def random_hermitian(n, rng):
    """An exactly Hermitian complex matrix: (M + M^H) / 2 rounds the same on both sides."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def hermiticity_defect_in_error(values):
    """The max |rho - rho^H| that DensityMatrixSample reports when it rejects ``values``."""
    n = values.shape[0]
    with pytest.raises(sx.InvariantError, match="Hermiticity") as info:
        sx.DensityMatrixSample(grid=sx.GridSpec(-1.0, 1.0, n), values=values, time=0.0)
    return float(re.search(r"= (\S+)$", str(info.value)).group(1))


def row_tile_plants(n, rng):
    """One asymmetric position above and one below the diagonal in every row tile.

    DensityMatrixSample checks Hermiticity TILE_VALUES // n rows at a time (at
    least one row).  No two plants share a position or sit at each other's mirror.
    """
    lines = max(1, states.TILE_VALUES // n)
    plants, taken = [], set()
    for a in range(0, n, lines):
        rows = range(a, min(a + lines, n))
        for above in (True, False):
            # rows with a position on this side of the diagonal
            side = [i for i in rows if (i < n - 1 if above else i > 0)]
            if not side:
                continue
            while True:
                i = int(rng.choice(side))
                j = int(rng.integers(i + 1, n) if above else rng.integers(0, i))
                if (i, j) not in taken and (j, i) not in taken:
                    break
            plants.append((i, j))
            taken.add((i, j))
    return plants


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

class TestTypeInvariants:
    def test_oscillator_rejects_nonpositive_constants(self):
        # the last three keep m, omega, hbar > 0 but put sigma_gr^2 or the
        # period out of float range (2 m omega underflows to 0 in the first)
        for kwargs in ({"mass": 0.0}, {"angular_frequency": -1.0}, {"hbar": 0.0},
                       {"mass": 5e-324, "angular_frequency": 0.1},
                       {"mass": 1e-308, "hbar": 1e308}, {"angular_frequency": 1e-320}):
            with pytest.raises(sx.InvariantError):
                sx.OscillatorConfig(**kwargs)

    def test_ground_variance(self):
        osc = sx.OscillatorConfig(mass=2.0, angular_frequency=3.0, hbar=0.5)
        assert osc.ground_variance == pytest.approx(0.5 / (2 * 2.0 * 3.0), rel=1e-15)

    def test_squeeze_rejects_A0_below_dA(self):
        with pytest.raises(sx.InvariantError, match="A0 > dA"):
            sx.SqueezeDynamics(0.5, 0.75)

    def test_squeeze_rejects_negative_dA(self):
        with pytest.raises(sx.InvariantError, match="dA >= 0"):
            sx.SqueezeDynamics(1.5, -0.1)

    def test_squeeze_rejects_product_below_one(self):
        with pytest.raises(sx.InvariantError, match=r"\(A0\+dA\)\(A0-dA\) >= 1"):
            sx.SqueezeDynamics(0.9, 0.0)

    def test_squeeze_accepts_mixed_parameter_sets(self):
        sq = sx.SqueezeDynamics(2.0, 0.5)
        assert sq.purity_product == pytest.approx(3.75)
        assert not sq.is_pure

    def test_center_rejects_negative_amplitude(self):
        with pytest.raises(sx.InvariantError, match="X_amp >= 0"):
            sx.CenterTrajectory(X_amp=-1.0)

    def test_state_spec_purity_product_must_agree(self):
        sq = pure_squeeze(1.25)
        spec = sx.GaussianStateSpec(OSC, sq, sx.CenterTrajectory())
        assert spec.purity_product == sq.purity_product
        assert spec.is_pure

    def test_grid_invariants(self):
        with pytest.raises(sx.InvariantError, match="x_min < x_max"):
            sx.GridSpec(1.0, -1.0, 64)
        with pytest.raises(sx.InvariantError, match="n_points >= 16"):
            sx.GridSpec(-1.0, 1.0, 8)

    def test_grid_coverage_check(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25), sx.CenterTrajectory())
        with pytest.raises(sx.CoverageError, match="coverage"):
            sx.GridSpec(-2.0, 2.0, 64).require_coverage(spec)
        sx.GridSpec.for_state(spec).require_coverage(spec)

    @pytest.mark.parametrize("evaluate, mixed", [
        (lambda spec, grid: sx.eval_pure_wavefunction(spec, grid, np.pi / 4), False),
        (lambda spec, grid: sx.eval_pure_density(spec, grid, np.pi / 4), False),
        (lambda spec, grid: sx.schrodinger_residual(spec, grid, np.pi / 4), False),
        (lambda spec, grid: sx.eval_mixed_density(sx.reparameterize(spec), grid, np.pi / 4), True),
        (lambda spec, grid: sx.ensemble_average_density(spec, grid, np.pi / 4), True),
    ], ids=["eval_pure_wavefunction", "eval_pure_density", "schrodinger_residual",
            "eval_mixed_density", "ensemble_average_density"])
    def test_every_evaluator_refuses_a_grid_that_aliases_the_momenta(self, evaluate, mixed):
        spec = ALIASED_MIXED if mixed else ALIASED_PURE
        target = sx.reparameterize(spec) if mixed else spec
        r = target.support_radius(12.0)
        # the same span with the points the momentum rule asks for passes both rules
        sx.GridSpec.for_state(target, 256).require_coverage(target)
        with pytest.raises(sx.CoverageError, match=r"^grid x_min=.* resolves momenta up to "
                                                   r"pi hbar/h = .*; it needs n_points >= "):
            evaluate(spec, sx.GridSpec(-r, r, 256))

    def test_for_state_takes_the_fewest_points_from_its_floor_that_resolve_the_momenta(self):
        spec = sx.reparameterize(ALIASED_MIXED)
        grid = sx.GridSpec.for_state(spec, 256)
        assert (grid.x_min, grid.x_max) == (-spec.support_radius(12.0), spec.support_radius(12.0))
        # the momentum support 36.9282 needs 950.592 points
        assert grid.n_points == 951
        with pytest.raises(sx.CoverageError, match="it needs n_points >= 950.592"):
            dataclasses.replace(grid, n_points=950).require_coverage(spec)
        assert sx.GridSpec.for_state(spec, 1000).n_points == 1000
        # about 6e19 points would resolve X_amp = 1e10: no count does, the floor is kept, and
        # require_coverage refuses the grid
        far = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0), sx.CenterTrajectory(1e10))
        grid = sx.GridSpec.for_state(far, 1024)
        assert grid.n_points == 1024
        with pytest.raises(sx.CoverageError, match="resolves momenta"):
            grid.require_coverage(far)

    @pytest.mark.parametrize("mass, widened", [(1.0, False), (1e10, False), (1e16, True)])
    def test_for_state_keeps_psi_below_the_entry_gate_at_its_edges_in_any_units(
            self, mass, widened):
        # |psi| peaks at (2 pi sigma_gr^2 (A0 - dA))^(-1/4): 237 at m = 1e10 and 7.5e3 at
        # m = 1e16, where 12 maximal standard deviations leave 1.742e-12 at an edge
        osc = sx.OscillatorConfig(mass=mass)
        spec = sx.GaussianStateSpec(osc, sx.SqueezeDynamics(1.0), sx.CenterTrajectory(
            3.0 * np.sqrt(osc.ground_variance)))
        grid = sx.GridSpec.for_state(spec, 256)
        radius = spec.support_radius(states.GRID_SIGMAS)
        assert grid.x_max > radius if widened else grid.x_max == radius
        edges = sx.eval_pure_wavefunction(spec, grid, 0.0).values[[0, -1]]
        assert np.abs(edges).max() < states.EDGE_START_TOL

    def test_wavefunction_sample_rejects_unnormalized(self):
        grid = sx.GridSpec(-8.0, 8.0, 128)
        bad = np.exp(-grid.points() ** 2)
        with pytest.raises(sx.InvariantError, match="norm"):
            sx.WavefunctionSample(grid=grid, values=bad.astype(complex), time=0.0)

    def test_samples_reject_nan(self):
        grid = sx.GridSpec(-5.0, 5.0, 16)
        with pytest.raises(sx.InvariantError, match="norm"):
            sx.WavefunctionSample(grid=grid, values=np.full(16, np.nan, complex), time=0.0)
        with pytest.raises(sx.InvariantError, match="Hermiticity"):
            sx.DensityMatrixSample(grid=grid, values=np.full((16, 16), np.nan, complex), time=0.0)

    def test_density_diagonal_imaginary_part_is_judged_by_the_hermiticity_bound(self):
        # on the diagonal |rho_ii - conj(rho_ii)| = 2 |Im rho_ii|, so the bound 1e-10 * max(peak, 1)
        # rejects |Im rho_ii| above half of it; a negative real part has its own clause
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        dm = sx.eval_pure_density(spec, sx.GridSpec.for_state(spec, n_points=64), 0.0)
        unit = 1e-10 * max(float(np.abs(dm.values).max()), 1.0)
        for im, ok in ((0.4 * unit, True), (0.75 * unit, False)):
            values = dm.values.copy()
            values[np.diag_indices(64)] += 1j * im
            if ok:
                sx.DensityMatrixSample(grid=dm.grid, values=values, time=0.0)
            else:
                with pytest.raises(sx.InvariantError, match="Hermiticity"):
                    sx.DensityMatrixSample(grid=dm.grid, values=values, time=0.0)
        values = dm.values.copy()
        values[0, 0] = -1e-9
        with pytest.raises(sx.InvariantError, match="density diagonal must be non-negative"):
            sx.DensityMatrixSample(grid=dm.grid, values=values, time=0.0)

    @pytest.mark.parametrize("n", [16, 129, 300])
    def test_hermiticity_check_sees_every_row_tile(self, n):
        # each plant in turn carries the largest defect, so a tile, or a side of
        # the diagonal, the check skipped would report a smaller value than the
        # full-matrix one
        rng = np.random.default_rng(n)
        base = random_hermitian(n, rng)
        plants = row_tile_plants(n, rng)
        for largest in plants:
            values = base.copy()
            for i, j in plants:
                values[i, j] += 1j * (1e-3 if (i, j) == largest else 1e-6 * (1.0 + rng.random()))
            herm = hermiticity_defect_in_error(values)
            assert herm == float(np.abs(values - values.conj().T).max())
            assert herm > 0.5e-3

    @pytest.mark.parametrize("n", [16, 129, 300])
    @pytest.mark.parametrize("above", [True, False])
    def test_hermiticity_check_rejects_one_nan_in_the_last_block(self, n, above):
        values = random_hermitian(n, np.random.default_rng(n))
        values[(n - 2, n - 1) if above else (n - 1, n - 2)] = np.nan
        with pytest.raises(sx.InvariantError, match="Hermiticity"):
            sx.DensityMatrixSample(grid=sx.GridSpec(-1.0, 1.0, n), values=values, time=0.0)


# ---------------------------------------------------------------------------
# quadrature_shape
# ---------------------------------------------------------------------------

class TestQuadratureShape:
    def test_ground_state_shape_is_constant(self):
        sq = sx.SqueezeDynamics(1.0)
        for t in (0.0, 0.37, 2.2, 17.0):
            A, B = sx.quadrature_shape(sq, 1.0, t)
            assert A == pytest.approx(1.0, abs=1e-15)
            assert B == pytest.approx(0.0, abs=1e-15)

    def test_extremes_of_breathing(self):
        sq = sx.SqueezeDynamics(1.25, 0.75, 0.0)
        A, B = sx.quadrature_shape(sq, 1.0, 0.0)
        assert (A, B) == (2.0, 0.0)
        A, B = sx.quadrature_shape(sq, 1.0, np.pi / 2)
        assert A == pytest.approx(0.5, abs=1e-14)
        assert B == pytest.approx(0.0, abs=1e-14)

    @given(A0=st.floats(1.0, 5.0), t=st.floats(0.0, 50.0), phi=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_range_and_periodicity(self, A0, t, phi):
        sq = pure_squeeze(A0, phi)
        A, B = sx.quadrature_shape(sq, 1.0, t)
        assert sq.A0 - sq.dA - 1e-12 <= A <= sq.A0 + sq.dA + 1e-12
        A2, B2 = sx.quadrature_shape(sq, 1.0, t + np.pi)
        assert A2 == pytest.approx(A, abs=1e-10 * max(1.0, abs(A)))
        assert B2 == pytest.approx(B, abs=1e-10 * max(1.0, abs(B) + 1.0))


class TestSqueezeFromInitialVariance:
    def test_ground(self):
        sq = sx.squeeze_from_initial_variance(SGR2, OSC)
        assert (sq.A0, sq.dA, sq.phi_sq) == (1.0, 0.0, 0.0)

    def test_wide_start(self):
        sq = sx.squeeze_from_initial_variance(2 * SGR2, OSC)
        assert (sq.A0, sq.dA, sq.phi_sq) == (1.25, 0.75, 0.0)

    def test_narrow_start(self):
        sq = sx.squeeze_from_initial_variance(0.5 * SGR2, OSC)
        assert (sq.A0, sq.dA) == (1.25, 0.75)
        assert sq.phi_sq == np.pi

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(sx.InvariantError):
            sx.squeeze_from_initial_variance(0.0, OSC)
        with pytest.raises(sx.InvariantError):  # D / sigma_gr^2 underflows to 0
            sx.squeeze_from_initial_variance(5e-324, sx.OscillatorConfig(mass=1e-11))

    @given(d_ratio=st.floats(0.05, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_reproduces_requested_initial_variance(self, d_ratio):
        sq = sx.squeeze_from_initial_variance(d_ratio * SGR2, OSC)
        A0t, B0 = sx.quadrature_shape(sq, 1.0, 0.0)
        assert sq.is_pure
        assert A0t == pytest.approx(d_ratio, rel=1e-12)
        assert B0 == pytest.approx(0.0, abs=1e-12 * sq.dA if sq.dA else 1e-15)


# ---------------------------------------------------------------------------
# center motion
# ---------------------------------------------------------------------------

class TestCenterState:
    def test_zero_amplitude(self):
        c = sx.CenterTrajectory()
        for t in (0.0, 1.3, 9.9):
            assert sx.center_state(c, OSC, t) == (0.0, 0.0)

    def test_turning_points(self):
        c = sx.CenterTrajectory(X_amp=1.0, phi_c=0.0)
        x, p = sx.center_state(c, OSC, 0.0)
        assert (x, p) == (1.0, 0.0) or (x == 1.0 and abs(p) < 1e-16)
        x, p = sx.center_state(c, OSC, np.pi / 2)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(-OSC.mass * OSC.angular_frequency, rel=1e-15)

    @given(X=st.floats(0.001, 10.0), phi=st.floats(0.0, 2 * np.pi), t=st.floats(0.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_ellipse_invariant(self, X, phi, t):
        c = sx.CenterTrajectory(X_amp=X, phi_c=phi)
        x, p = sx.center_state(c, OSC, t)
        m_om = OSC.mass * OSC.angular_frequency
        assert x**2 + (p / m_om) ** 2 == pytest.approx(X**2, rel=1e-12)


# ---------------------------------------------------------------------------
# accumulated phase
# ---------------------------------------------------------------------------

class TestAccumulatedPhase:
    def test_ground_state_phase_is_half_omega_t(self):
        sq = sx.SqueezeDynamics(1.0)
        c = sx.CenterTrajectory()
        t = np.linspace(0.0, 30.0, 301)
        phi = sx.accumulated_phase(sq, c, OSC, t)
        assert np.abs(phi - t / 2).max() == 0.0

    def test_half_period_increment_is_quarter_turn(self):
        sq = sx.SqueezeDynamics(1.25, 0.75, 0.0)
        c = sx.CenterTrajectory()
        d = (sx.accumulated_phase(sq, c, OSC, np.pi) - sx.accumulated_phase(sq, c, OSC, 0.0))
        assert d == pytest.approx(np.pi / 2, abs=1e-12)

    def test_matches_adaptive_quadrature_of_phase_rate(self):
        # dphi/dt = omega / (2 A); the closed form must integrate it.
        sq = sx.SqueezeDynamics(1.25, 0.75, 0.0)
        c = sx.CenterTrajectory()
        t1 = 0.3
        oracle, err = quad(lambda u: 0.5 / (sq.A0 + sq.dA * np.cos(2 * u + sq.phi_sq)),
                           0.0, t1, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-12
        got = sx.accumulated_phase(sq, c, OSC, t1) - sx.accumulated_phase(sq, c, OSC, 0.0)
        assert got == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("phi_sq", [0.0, 0.4, np.pi, 1.5 * np.pi, 5.9])
    def test_matches_quadrature_for_generic_starts(self, phi_sq):
        sq = pure_squeeze(2.5, phi_sq)
        c = sx.CenterTrajectory()
        for t1 in (0.21, 1.7, 4.4):
            oracle, _ = quad(lambda u: 0.5 / (sq.A0 + sq.dA * np.cos(2 * u + sq.phi_sq)),
                             0.0, t1, epsabs=1e-13, epsrel=1e-13, limit=200)
            got = sx.accumulated_phase(sq, c, OSC, t1) - sx.accumulated_phase(sq, c, OSC, 0.0)
            assert got == pytest.approx(oracle, abs=1e-9)

    def test_principal_branch_at_zero(self):
        sq = pure_squeeze(1.8, 0.9)
        c = sx.CenterTrajectory()
        phi0 = sx.accumulated_phase(sq, c, OSC, 0.0)
        assert phi0 == pytest.approx(0.5 * np.arctan((sq.A0 - sq.dA) * np.tan(sq.phi_sq / 2)))
        assert -np.pi / 2 < phi0 <= np.pi / 2

    def test_continuous_through_singular_start(self):
        # phi_sq = pi puts t = 0 on a tangent singularity; the phase must
        # still increase smoothly at rate omega / (2 A(0)).
        sq = sx.squeeze_from_initial_variance(0.5 * SGR2, OSC)
        c = sx.CenterTrajectory()
        t = np.array([0.0, 1e-8, 1e-6, 1e-4])
        phi = sx.accumulated_phase(sq, c, OSC, t)
        rate = 1.0 / (2.0 * (sq.A0 - sq.dA))
        assert np.all(np.diff(phi) > 0)
        assert np.diff(phi) == pytest.approx(rate * np.diff(t), rel=1e-3)

    def test_equivalent_to_branch_counting_form(self):
        # away from singular points the smooth form equals the explicit
        # atan + floor((omega t + phi_sq/2)/pi + 1/2) * pi/2 construction
        rng = np.random.default_rng(3)
        for _ in range(50):
            sq = pure_squeeze(rng.uniform(1.0, 5.0), rng.uniform(0.0, 2 * np.pi))
            t = rng.uniform(0.0, 20.0)
            c = sq.A0 - sq.dA
            theta = t + sq.phi_sq / 2
            k = np.floor(theta / np.pi + 0.5)
            k0 = np.floor(sq.phi_sq / 2 / np.pi + 0.5)
            explicit = 0.5 * np.arctan(c * np.tan(theta)) + (k - k0) * np.pi / 2
            got = sx.accumulated_phase(sq, sx.CenterTrajectory(), OSC, t)
            assert got == pytest.approx(explicit, abs=1e-9)

    def test_rejects_mixed_parameters(self):
        # one purity gate: the phase, a mixed-state base and the wavefunction say the same
        mixed = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(2.0, 0.5))
        for call in (
                lambda: sx.accumulated_phase(mixed.squeeze, sx.CenterTrajectory(), OSC, 1.0),
                lambda: sx.MixedGaussianSpec(mixed, sigma_a=0.1),
                lambda: sx.eval_pure_wavefunction(mixed, sx.GridSpec(-40.0, 40.0, 64), 0.0)):
            with pytest.raises(sx.InvariantError,
                               match=r"requires a pure state \(P = 1\): P = 3\.75$"):
                call()

    @given(A0=st.floats(1.0, 5.0), phi=st.floats(0.0, 2 * np.pi), t=st.floats(0.0, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_phase_law_for_random_pure_squeezes(self, A0, phi, t):
        sq = pure_squeeze(A0, phi)
        c = sx.CenterTrajectory()
        d = (sx.accumulated_phase(sq, c, OSC, t + np.pi)
             - sx.accumulated_phase(sq, c, OSC, t))
        assert d == pytest.approx(np.pi / 2, abs=1e-9)


# ---------------------------------------------------------------------------
# wavefunction and density evaluation
# ---------------------------------------------------------------------------

class TestEvalPureWavefunction:
    def test_ground_state_matches_textbook_form(self):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        grid = sx.GridSpec.for_state(spec, n_points=512)
        t = 0.83
        wf = sx.eval_pure_wavefunction(spec, grid, t)
        x = grid.points()
        expected = (np.exp(-1j * t / 2) / (2 * np.pi * SGR2) ** 0.25
                    * np.exp(-x**2 / (4 * SGR2)))
        assert np.abs(wf.values - expected).max() < 1e-14

    def test_normalized_for_generic_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A0 = rng.uniform(1.0, 4.0)
            spec = sx.GaussianStateSpec(
                OSC, pure_squeeze(A0, rng.uniform(0, 2 * np.pi)),
                sx.CenterTrajectory(rng.uniform(0, 4 * SGR), rng.uniform(0, 2 * np.pi)))
            grid = sx.GridSpec.for_state(spec, n_points=1024)
            wf = sx.eval_pure_wavefunction(spec, grid, rng.uniform(0, 7.0))
            assert abs(wf.norm() - 1.0) < 1e-8

    def test_squeezed_width_at_quarter_period(self):
        sq = sx.SqueezeDynamics(1.25, 0.75, 0.0)
        spec = sx.GaussianStateSpec(OSC, sq)
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        wf = sx.eval_pure_wavefunction(spec, grid, np.pi / 2)
        m = sx.moments(wf, OSC)
        assert m.var_x == pytest.approx(0.5 * SGR2, rel=1e-10)
        assert m.cov_xp == pytest.approx(0.0, abs=1e-12)

    def test_rejects_mixed_spec(self):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(2.0, 0.5))
        grid = sx.GridSpec(-40.0, 40.0, 64)
        with pytest.raises(sx.InvariantError, match="pure"):
            sx.eval_pure_wavefunction(spec, grid, 0.0)

    def test_rejects_inadequate_grid(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25))
        with pytest.raises(sx.CoverageError):
            sx.eval_pure_wavefunction(spec, sx.GridSpec(-2.0, 2.0, 64), 0.0)


class TestEvalPureDensity:
    SPEC = sx.GaussianStateSpec(OSC, pure_squeeze(1.6, 0.7),
                                sx.CenterTrajectory(1.2 * SGR, 0.5))

    def test_diagonal_is_position_distribution(self):
        grid = sx.GridSpec.for_state(self.SPEC, n_points=256)
        t = 1.1
        dm = sx.eval_pure_density(self.SPEC, grid, t)
        A, _ = sx.quadrature_shape(self.SPEC.squeeze, 1.0, t)
        x_c, _ = sx.center_state(self.SPEC.center, OSC, t)
        x = grid.points()
        gauss = np.exp(-(x - x_c) ** 2 / (2 * SGR2 * A)) / np.sqrt(2 * np.pi * SGR2 * A)
        assert np.abs(np.diagonal(dm.values).real - gauss).max() < 1e-14

    def test_equals_outer_product_of_wavefunction(self):
        grid = sx.GridSpec.for_state(self.SPEC, n_points=256)
        t = 0.45
        dm = sx.eval_pure_density(self.SPEC, grid, t)
        wf = sx.eval_pure_wavefunction(self.SPEC, grid, t)
        outer = np.outer(wf.values, np.conj(wf.values))
        assert np.abs(dm.values - outer).max() < 1e-12

    def test_double_quadrature_purity_is_one(self):
        grid = sx.GridSpec.for_state(self.SPEC, n_points=256)
        dm = sx.eval_pure_density(self.SPEC, grid, 2.7)
        assert sx.purity(dm) == pytest.approx(1.0, abs=1e-6)


def state_on(n, A0=1.0, dA=0.0):
    """A pure state centered at 0 on an n-point grid 8.5 maximal standard deviations wide."""
    spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(A0, dA, 0.3))
    r = spec.support_radius(8.5)
    return spec, sx.GridSpec(-r, r, n)


class TestTiledKernels:
    """The tiled density build and derivative diagonals against their whole-matrix expressions."""

    @given(state=resolved_gaussian_states(), t=st.floats(0.0, 20.0),
           lines=st.sampled_from([None, 0, 1, 2, 7, 16, 64]), extra=st.integers(0, 10**4))
    @example(state=state_on(25), t=0.7, lines=None, extra=0)  # odd n inside one tile
    @example(state=state_on(301, 1.25, 0.75), t=2.0, lines=16, extra=0)  # ragged last tile
    @example(state=state_on(1024), t=0.0, lines=None, extra=0)  # the default budget
    @settings(max_examples=60, deadline=None)
    def test_equal_whole_matrix_expressions_bit_for_bit(self, state, t, lines, extra):
        spec, grid = state
        n = grid.n_points
        # lines per tile, or fewer than one line of values (0), or the shipped budget (None)
        budget = states.TILE_VALUES if lines is None else max(1, lines * n + extra % n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(states, "TILE_VALUES", budget)
            dm = states._gaussian_density(spec, grid, t, spec.purity_product)
            diag, d1, d2 = states._diagonals(dm)
            peak, herm = states._peak_and_hermiticity_defect(dm.values)
        rho = whole_matrix_density(spec, grid, t, spec.purity_product)
        assert np.array_equal(bits(np.array([peak, herm])), bits(np.array(
            [np.abs(rho).max(), np.abs(rho - rho.conj().T).max()])))
        assert np.array_equal(bits(dm.values), bits(rho))
        assert np.array_equal(bits(diag), bits(np.diagonal(rho).real))
        for got, want in zip((d1, d2), whole_matrix_derivative_diagonals(rho, grid)):
            assert np.array_equal(bits(got), bits(want))
        # the 2-D derivatives differentiate each column as the 1-D wavefunction path does
        columns = [states._spectral_derivatives(rho[:, j], grid) for j in range(n)]
        for got, want in zip(states._spectral_derivatives(rho, grid), zip(*columns)):
            assert np.array_equal(bits(got), bits(np.stack(want, axis=1)))

    def test_the_matrix_has_its_own_mapping_so_freeing_it_returns_its_pages(self):
        spec, grid = state_on(64, 1.25, 0.75)
        values = sx.eval_pure_density(spec, grid, 0.7).values
        owner = values
        while isinstance(owner, (np.ndarray, memoryview)):
            owner = owner.base if isinstance(owner, np.ndarray) else owner.obj
        assert isinstance(owner, mmap.mmap)
        assert values.flags.c_contiguous and values.flags.writeable

    def test_a_row_holds_one_matrix_and_a_few_tiles(self, monkeypatch):
        spec, grid = state_on(1024, 1.25, 0.75)
        # the matrix from malloc, where tracemalloc sees it
        monkeypatch.setattr(states, "_own_pages", lambda n: np.empty((n, n), dtype=complex))
        tracemalloc.start()
        try:
            sx.moments(sx.eval_pure_density(spec, grid, 0.7), OSC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix is 16 MiB; whole-matrix temporaries took the peak to 56 MiB
        assert peak <= 24 * 2**20


def column_diagonals(sample):
    """``states._diagonals`` of a density as it was before it read conjugated rows: rho's
    columns differentiated along axis 0 (whole-matrix; TestTiledKernels holds the column
    tiles to it bit for bit)."""
    return (np.diagonal(sample.values).real,
            *whole_matrix_derivative_diagonals(sample.values, sample.grid))


def moment_bits(m):
    return [v.hex() for v in dataclasses.astuple(m)]


NONUNIT_OSC = sx.OscillatorConfig(mass=2.0, angular_frequency=1.5, hbar=0.7)


class TestRealArithmeticKernels:
    """The density build and its derivative diagonals against the complex exponent and the
    column derivatives they replaced, bit for bit: signed zeros count."""

    # (osc, A0, dA, phi_sq, X_amp in sigma_gr, sigma_a in sigma_gr, n, half-width in max std)
    # At t = 2 the phase 2 omega t + phi_sq has a negative sine, so a dA = 0 state has
    # B = -0.0 there; on +-40 max std the corner entries underflow to zero.  Sixteen points
    # cover no state to 8 std devs, but hold the ground state's trace to NORM_TOL on +-6.5.
    CASES = {
        "ground-n16": (OSC, 1.0, 0.0, 0.0, 0.0, 0.0, 16, 6.5),
        "squeezed-n129": (OSC, 1.25, 0.75, 0.4, 0.0, 0.0, 129, 8.5),
        "displaced-nonunit-n300": (NONUNIT_OSC, 1.25, 0.75, 0.7, 2.0, 0.0, 300, 12.0),
        "mixed-displaced-n300": (OSC, 1.5, 1.25 ** 0.5, 0.4, 1.4, 0.85, 300, 12.0),
        "mixed-dA0-nonunit-n129": (NONUNIT_OSC, 1.0, 0.0, 0.0, 0.0, 0.9, 129, 8.5),
        "displaced-n1024": (OSC, 1.25, 0.75, 0.7, 2.8, 0.0, 1024, 12.0),
        "mixed-dA0-n1024": (OSC, 1.0, 0.0, 0.0, 1.0, 0.5, 1024, 12.0),
        "ground-underflow-n1024": (OSC, 1.0, 0.0, 0.0, 0.0, 0.0, 1024, 40.0),
    }

    @staticmethod
    def state(osc, A0, dA, phi_sq, X_amp, sigma_a, n, sigmas):
        sgr = np.sqrt(osc.ground_variance)
        base = sx.GaussianStateSpec(osc, sx.SqueezeDynamics(A0, dA, phi_sq),
                                    sx.CenterTrajectory(X_amp * sgr, 0.3))
        spec = sx.reparameterize(sx.MixedGaussianSpec(base, sigma_a * sgr))
        r = spec.support_radius(sigmas)
        return spec, sx.GridSpec(-r, r, n)

    @pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equal_the_complex_exponent_and_column_derivatives(self, case, t):
        spec, grid = self.state(*self.CASES[case])
        A, B = sx.quadrature_shape(spec.squeeze, spec.osc.angular_frequency, t)
        if spec.squeeze.dA == 0.0 and t == 2.0:
            assert B == 0.0 and np.signbit(B)
        with pytest.MonkeyPatch.context() as mp:
            if grid.n_points == 16:  # the fewest a grid may have: no state's 8 std devs fit
                mp.setattr(sx.GridSpec, "require_coverage", lambda grid, spec: None)
            dm = states._gaussian_density(spec, grid, t, spec.purity_product)
        want = whole_matrix_density(spec, grid, t, spec.purity_product)
        assert np.array_equal(bits(dm.values), bits(want))
        if case == "ground-underflow-n1024":
            assert dm.values[0, 0] == 0.0 and dm.values[0, -1] == 0.0
        for got, ref in zip(states._diagonals(dm), column_diagonals(dm)):
            assert np.array_equal(bits(got), bits(ref))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(states, "_diagonals", column_diagonals)
            ref = sx.moments(dm, spec.osc)
        assert moment_bits(sx.moments(dm, spec.osc)) == moment_bits(ref)

    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_moments_of_a_gauss_hermite_density_equal_the_column_moments(self, t):
        base = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.5, 1.25 ** 0.5, 0.4),
                                    sx.CenterTrajectory(1.0, 0.3))
        mixed = sx.MixedGaussianSpec(base, 0.6)
        spec = sx.reparameterize(mixed)
        r = spec.support_radius(12.0)
        dm = sx.ensemble_average_density(mixed, sx.GridSpec(-r, r, 256), t, 32)
        # exactly Hermitian, so its columns are its conjugated rows
        assert np.array_equal(dm.values, dm.values.conj().T)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(states, "_diagonals", column_diagonals)
            ref = sx.moments(dm, OSC)
        assert moment_bits(sx.moments(dm, OSC)) == moment_bits(ref)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

class TestMoments:
    def test_ground_state(self):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        grid = sx.GridSpec.for_state(spec, n_points=512)
        m = sx.moments(sx.eval_pure_wavefunction(spec, grid, 0.0), OSC)
        assert m.var_x == pytest.approx(SGR2, rel=1e-12)
        assert m.var_p == pytest.approx(OSC.hbar**2 / (4 * SGR2), rel=1e-10)
        assert m.uncertainty_product == pytest.approx(OSC.hbar / 2, rel=1e-10)

    def test_minimum_uncertainty_at_shape_extrema(self):
        sq = pure_squeeze(2.2, 0.9)
        spec = sx.GaussianStateSpec(OSC, sq)
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        for n in (1, 2, 5):
            t = (n * np.pi - sq.phi_sq) / 2.0
            m = sx.moments(sx.eval_pure_wavefunction(spec, grid, t), OSC)
            assert abs(m.uncertainty_product - OSC.hbar / 2) <= 1e-8 * OSC.hbar

    def test_second_moments_match_quadrature_confirmed_closed_forms(self):
        # quadrature values drive the assertions; the closed forms
        # var_p = hbar^2 (1+B^2) / (4 sgr^2 A) and cov = -hbar B / 2 must agree
        rng = np.random.default_rng(5)
        for _ in range(6):
            sq = pure_squeeze(rng.uniform(1, 4), rng.uniform(0, 2 * np.pi))
            spec = sx.GaussianStateSpec(
                OSC, sq, sx.CenterTrajectory(rng.uniform(0, 3 * SGR), rng.uniform(0, 2 * np.pi)))
            grid = sx.GridSpec.for_state(spec, n_points=1024)
            t = rng.uniform(0, 7)
            m = sx.moments(sx.eval_pure_wavefunction(spec, grid, t), OSC)
            A, B = sx.quadrature_shape(sq, 1.0, t)
            x_c, p_c = sx.center_state(spec.center, OSC, t)
            assert m.mean_x == pytest.approx(x_c, abs=1e-10 * SGR)
            assert m.mean_p == pytest.approx(p_c, abs=1e-10)
            assert m.var_x == pytest.approx(SGR2 * A, rel=1e-10)
            assert m.var_p == pytest.approx(OSC.hbar**2 * (1 + B**2) / (4 * SGR2 * A), rel=1e-9)
            assert m.cov_xp == pytest.approx(-OSC.hbar * B / 2, abs=1e-10)
            assert m.uncertainty_product == pytest.approx(
                0.5 * OSC.hbar * np.sqrt(1 + B**2), rel=1e-9)

    @pytest.mark.parametrize("osc", [OSC, sx.OscillatorConfig(mass=2.0, hbar=0.5)])
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("A0, phi_sq, X_amp, phi_c, t", [
        (1.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.5, 0.4, 1.3), (1.7, 1.1, 1.0, 0.3, 0.8),
        (2.2, 0.9, 0.0, 0.0, 2.1), (1.3, 2.5, 2.0, 4.0, 5.0), (2.5, 4.2, 0.7, 1.9, 3.7)])
    def test_density_moments_agree_with_wavefunction_moments(self, osc, n, A0, phi_sq, X_amp,
                                                             phi_c, t):
        # X_amp in units of sigma_gr; the worst gap seen over these states is 7.6e-13 (var_p)
        center = sx.CenterTrajectory(X_amp * np.sqrt(osc.ground_variance), phi_c)
        spec = sx.GaussianStateSpec(osc, pure_squeeze(A0, phi_sq), center)
        grid = sx.GridSpec.for_state(spec, n_points=n)
        mw = sx.moments(sx.eval_pure_wavefunction(spec, grid, t), osc)
        md = sx.moments(sx.eval_pure_density(spec, grid, t), osc)
        assert md.var_x == pytest.approx(mw.var_x, rel=1e-12, abs=0)
        assert md.var_p == pytest.approx(mw.var_p, rel=1e-12, abs=0)
        assert md.mean_x == pytest.approx(mw.mean_x, rel=0, abs=1e-12)
        assert md.mean_p == pytest.approx(mw.mean_p, rel=0, abs=1e-12)
        assert md.cov_xp == pytest.approx(mw.cov_xp, rel=0, abs=1e-12)

    @pytest.mark.parametrize("osc", [OSC, sx.OscillatorConfig(mass=2.0, hbar=0.5)])
    def test_density_moments_equal_two_transform_reference(self, osc):
        pure = sx.GaussianStateSpec(osc, pure_squeeze(1.7, 1.1), sx.CenterTrajectory(1.2, 0.3))
        mixed = sx.reparameterize(sx.MixedGaussianSpec(pure, 0.8 * np.sqrt(osc.ground_variance)))
        for spec, evaluate in ((pure, sx.eval_pure_density), (mixed, sx.eval_mixed_density)):
            grid = sx.GridSpec.for_state(spec, n_points=256)
            for t in (0.0, 0.8, 2.9):
                dm = evaluate(spec, grid, t)
                m = sx.moments(dm, osc)
                assert (m.mean_x, m.mean_p, m.var_x, m.var_p, m.cov_xp,
                        m.uncertainty_product) == two_transform_moments(dm, osc)

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_density_moments_equal_one_transform_reference_and_leave_rho_alone(self, n):
        pure = sx.GaussianStateSpec(OSC, pure_squeeze(1.7, 1.1), sx.CenterTrajectory(1.2, 0.3))
        mixed = sx.reparameterize(sx.MixedGaussianSpec(pure, 0.8 * SGR))
        for spec, evaluate in ((pure, sx.eval_pure_density), (mixed, sx.eval_mixed_density)):
            dm = evaluate(spec, sx.GridSpec.for_state(spec, n_points=n), 0.8)
            before = dm.values.copy()
            m = sx.moments(dm, OSC)
            got = (m.mean_x, m.mean_p, m.var_x, m.var_p, m.cov_xp)
            assert [v.hex() for v in got] == [v.hex() for v in one_transform_moments(dm, OSC)]
            assert dm.values.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

class TestOdeResiduals:
    def test_ground_state_residuals_vanish(self):
        r1, r2, r3 = sx.ode_residuals(sx.SqueezeDynamics(1.0), OSC, 0.9)
        assert max(r1, r2, r3) < 1e-9

    def test_generic_pure_set(self):
        r1, r2, r3 = sx.ode_residuals(sx.SqueezeDynamics(1.25, 0.75, 0.4), OSC, 1.1)
        assert max(r1, r2, r3) <= 1e-6

    def test_negative_control_violates_pure_constraint(self):
        _, r2, _ = sx.ode_residuals(sx.SqueezeDynamics(2.0, 0.5), OSC, 0.77)
        assert r2 > 0.1

    @given(A0=st.floats(1.0, 5.0), phi=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=30, deadline=None)
    def test_pure_constraint_iff_r2_vanishes(self, A0, phi):
        ts = np.linspace(0.0, 2 * np.pi, 100)
        sq = pure_squeeze(A0, phi)
        _, r2, _ = sx.ode_residuals(sq, OSC, ts)
        assert float(np.max(r2)) <= 1e-6

    @given(P=st.floats(1.01, 5.0), dA=st.floats(0.0, 1.5), t=st.floats(0.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_r2_measures_constraint_violation(self, P, dA, t):
        # converse direction: for non-pure sets r2 equals |P - 1| at every t
        sq = sx.SqueezeDynamics(np.sqrt(P + dA**2), dA)
        _, r2, _ = sx.ode_residuals(sq, OSC, t)
        assert r2 == pytest.approx(P - 1.0, abs=1e-6)
        assert r2 > 1e-3


class TestScalarTime:
    """A scalar time gives numpy float64 values equal to the array evaluation's."""

    OSC = sx.OscillatorConfig(mass=1.3, angular_frequency=1.85, hbar=0.7)
    SQ = sx.SqueezeDynamics(1.25, 0.75, 0.4)
    CENTER = sx.CenterTrajectory(0.9, 2.0)
    TIMES = np.array([0.0, 1e-9, 0.3, 0.7, 2.7155266295336338, 6.1850105367549055, 41.0])

    @pytest.mark.parametrize("closed_form", [
        lambda t: sx.quadrature_shape(TestScalarTime.SQ, 1.85, t),
        lambda t: sx.center_state(TestScalarTime.CENTER, TestScalarTime.OSC, t),
        lambda t: (sx.accumulated_phase(TestScalarTime.SQ, TestScalarTime.CENTER,
                                        TestScalarTime.OSC, t),),
        lambda t: sx.ode_residuals(TestScalarTime.SQ, TestScalarTime.OSC, t),
    ], ids=["quadrature_shape", "center_state", "accumulated_phase", "ode_residuals"])
    def test_scalar_matches_array_element(self, closed_form):
        columns = closed_form(self.TIMES)
        for i, t in enumerate(self.TIMES):
            for scalar, column in zip(closed_form(float(t)), columns):
                assert type(scalar) is np.float64
                assert abs(scalar - column[i]) <= 2 * np.spacing(abs(column[i]))


class TestConcurrency:
    def test_evaluation_is_thread_safe(self):
        # pure functions of value types: concurrent calls must agree
        from concurrent.futures import ThreadPoolExecutor
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.6, 0.7),
                                    sx.CenterTrajectory(SGR, 0.3))
        grid = sx.GridSpec.for_state(spec, n_points=256)
        times = [0.1 * k for k in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(
                lambda t: sx.eval_pure_wavefunction(spec, grid, t).values, times))
        for t, values in zip(times, parallel):
            assert np.array_equal(values, sx.eval_pure_wavefunction(spec, grid, t).values)


class TestSchrodingerResidual:
    def test_ground_state(self):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        assert sx.schrodinger_residual(spec, grid, 1.1) <= 1e-7

    def test_squeezed_vacuum(self):
        sq = sx.SqueezeDynamics(1.25, 0.75, 0.0)
        spec = sx.GaussianStateSpec(OSC, sq)
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        assert sx.schrodinger_residual(spec, grid, 0.7) <= 1e-5

    def test_displaced_squeezed_state(self):
        sq = sx.SqueezeDynamics(1.25, 0.75, 0.0)
        spec = sx.GaussianStateSpec(OSC, sq, sx.CenterTrajectory(3 * SGR, 1.0))
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        assert sx.schrodinger_residual(spec, grid, 0.7) <= 1e-5
