"""Numeric-oracle tests: propagators, fidelity, purity, energy."""

import re

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

import squeezedx as sx
from squeezedx import oracle

OSC = sx.OscillatorConfig()
SGR2 = OSC.ground_variance
SGR = np.sqrt(SGR2)
T = OSC.period

SCHEMES = ("spectral-split-step", "implicit-unitary")


def pure_squeeze(A0, phi_sq=0.0):
    return sx.SqueezeDynamics(A0, np.sqrt(A0**2 - 1.0), phi_sq)


def reference_cayley(psi, grid, osc, dt, n_steps):
    """The implicit-unitary step with (1 + lam H) solved afresh by solve_banded each step."""
    n, h = grid.n_points, grid.spacing
    kin = osc.hbar**2 / (2.0 * osc.mass * h * h)
    diag = 2.0 * kin + 0.5 * osc.mass * osc.angular_frequency**2 * grid.points() ** 2
    off = -kin
    lam = 0.5j * dt / osc.hbar
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = lam * off
    ab[1, :] = 1.0 + lam * diag
    ab[2, :-1] = lam * off
    psi = psi.astype(complex, copy=True)
    rhs = np.empty(n, dtype=complex)
    for _ in range(n_steps):
        rhs[:] = (1.0 - lam * diag) * psi
        rhs[:-1] -= lam * off * psi[1:]
        rhs[1:] -= lam * off * psi[:-1]
        psi = solve_banded((1, 1), ab, rhs)
    return psi


def swinging_packet():
    """A packet at -3 sigma_gr with only 5 sigma of headroom on the right: clean at t=0,
    it must trip the edge guard as it swings over."""
    x0 = -3.0 * SGR
    grid = sx.GridSpec(x0 - 12.0 * SGR, -x0 + 5.0 * SGR, 768)
    x = grid.points()
    psi = np.exp(-(x - x0) ** 2 / (4 * SGR2)).astype(complex)
    psi /= np.sqrt(np.trapezoid(np.abs(psi) ** 2, dx=grid.spacing))
    return sx.WavefunctionSample(grid=grid, values=psi, time=0.0)


class TestPropagatorConfig:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(sx.InvariantError, match="scheme"):
            sx.PropagatorConfig(scheme="euler", dt=0.1, n_steps=1)

    def test_rejects_bad_steps(self):
        with pytest.raises(sx.InvariantError, match="dt > 0"):
            sx.PropagatorConfig(dt=0.0, n_steps=1)
        with pytest.raises(sx.InvariantError, match="n_steps >= 1"):
            sx.PropagatorConfig(dt=0.1, n_steps=0)

    def test_bounds_the_step_count(self):
        assert sx.PropagatorConfig(dt=1e-3, n_steps=oracle.MAX_STEPS).n_steps == 2**20
        with pytest.raises(sx.InvariantError, match=r"n_steps <= 1048576 violated: n_steps=1048577"):
            sx.PropagatorConfig(dt=1e-3, n_steps=oracle.MAX_STEPS + 1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_propagate_refuses_a_huge_step_count_before_any_step(self, scheme, monkeypatch):
        def refuse(*args):
            raise AssertionError("a step kernel ran")
        monkeypatch.setattr(oracle, "_propagate_split_step", refuse)
        monkeypatch.setattr(oracle, "_propagate_cayley", refuse)
        with pytest.raises(sx.InvariantError, match="n_steps <= 1048576"):
            sx.propagate(swinging_packet(), OSC,
                         sx.PropagatorConfig(scheme=scheme, dt=1e-3, n_steps=10**12))

    def test_a_state_time_on_no_step_is_refused(self):
        # the time of the state's step on the trajectory's clock is round(time / dt)
        psi = swinging_packet()
        far = sx.WavefunctionSample(grid=psi.grid, values=psi.values, time=1.0)
        with pytest.raises(sx.InvariantError, match=r"time t=1\.0 is on no step of dt=1e-320"):
            sx.propagate(far, OSC, sx.PropagatorConfig(dt=1e-320, n_steps=1))


class TestPropagate:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ground_state_is_stationary_over_a_period(self, scheme):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        out = sx.propagate(psi0, OSC, sx.PropagatorConfig(scheme=scheme, dt=T / 8192, n_steps=8192))
        assert sx.fidelity(out, psi0) >= 1.0 - 1e-8
        assert abs(out.norm() - 1.0) <= 1e-10

    def test_coherent_state_center_follows_classical_motion(self):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0),
                                    sx.CenterTrajectory(2 * SGR, 0.4))
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        out = sx.propagate(psi0, OSC, sx.PropagatorConfig(dt=T / 4096, n_steps=1500))
        m = sx.moments(out, OSC)
        x_c, p_c = sx.center_state(spec.center, OSC, out.time)
        assert abs(m.mean_x - x_c) <= 1e-6 * SGR
        assert abs(m.mean_p - p_c) <= 1e-6

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_squeezed_vacuum_one_period_matches_analytic(self, scheme):
        sq = sx.squeeze_from_initial_variance(2 * SGR2, OSC)
        spec = sx.GaussianStateSpec(OSC, sq)
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        out = sx.propagate(psi0, OSC, sx.PropagatorConfig(scheme=scheme, dt=T / 8192, n_steps=8192))
        ana = sx.eval_pure_wavefunction(spec, grid, out.time)
        assert sx.fidelity(out, ana) >= 1.0 - 1e-6

    def test_rejects_state_touching_the_boundary(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25))
        # 8-sigma coverage passes the grid invariant but leaves ~1e-7 edge
        # amplitude, which the propagator's 1e-12 entry gate must reject
        r = spec.support_radius(8.0)
        grid = sx.GridSpec(-r, r, 512)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        with pytest.raises(sx.BoundaryError, match="edge amplitude"):
            sx.propagate(psi0, OSC, sx.PropagatorConfig(dt=T / 256, n_steps=8))

    @pytest.mark.parametrize("osc", [
        OSC, sx.OscillatorConfig(mass=1e20, hbar=1e-20),
        sx.OscillatorConfig(mass=9.109e-31, angular_frequency=1e15, hbar=1.0546e-34),
    ], ids=["natural", "m=1e20,hbar=1e-20", "electron-si"])
    def test_the_entry_gate_refuses_each_unit_image_alike(self, osc):
        # a ground state on +-8 sigma_gr keeps 8.453e-08 l^(-1/2) at its edges, l^2 =
        # hbar/(m omega); the gate reads its 1e-12 in the same unit, so every image is refused
        # with the message of natural units, both figures scaled by l^(-1/2)
        spec = sx.GaussianStateSpec(osc, sx.SqueezeDynamics(1.0))
        r = spec.support_radius(8.0)
        psi0 = sx.eval_pure_wavefunction(spec, sx.GridSpec(-r, r, 128), 0.0)
        with pytest.raises(sx.BoundaryError) as caught:
            sx.propagate(psi0, osc, sx.PropagatorConfig(dt=osc.period / 256, n_steps=8))
        edge, tol = re.fullmatch(r"boundary contamination in the initial state: edge amplitude "
                                 r"(\S+) exceeds (\S+); enlarge the grid", str(caught.value)).groups()
        unit = (2.0 * osc.ground_variance) ** -0.25
        assert float(edge) / unit == pytest.approx(8.453e-08, rel=1e-3)
        assert float(tol) / unit == pytest.approx(1e-12, rel=1e-5)
        if osc == OSC:
            assert (edge, tol) == ("8.453e-08", "1e-12")

    def test_continued_state_is_held_to_the_step_guard(self):
        # after T/4 this state has 1.951e-10 at an edge: above the entry gate, below the guard
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.25, 0.75, np.pi))
        psi0 = sx.eval_pure_wavefunction(spec, sx.GridSpec(-9.5, 9.5, 512), 0.0)
        cfg = sx.PropagatorConfig(dt=T / 4096, n_steps=1024)
        psi = sx.propagate(psi0, OSC, cfg)
        assert 1e-10 < max(abs(psi.values[0]), abs(psi.values[-1])) < 1e-8
        assert sx.propagate(psi, OSC, cfg).time == 2 * 1024 * cfg.dt
        fresh = sx.WavefunctionSample(grid=psi.grid, values=psi.values, time=psi.time)
        with pytest.raises(sx.BoundaryError, match="in the initial state"):
            sx.propagate(fresh, OSC, cfg)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_detects_contamination_mid_run(self, scheme):
        with pytest.raises(sx.BoundaryError, match="at .* step"):
            sx.propagate(swinging_packet(), OSC, sx.PropagatorConfig(
                scheme=scheme, dt=T / 1024, n_steps=512))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_an_edge_error_names_the_same_step_however_the_trajectory_is_split(self, scheme):
        # one call, then calls of 37 steps: each names the step on the trajectory's clock
        sample = swinging_packet()
        with pytest.raises(sx.BoundaryError) as whole:
            sx.propagate(sample, OSC, sx.PropagatorConfig(scheme=scheme, dt=T / 1024, n_steps=512))
        step = int(re.search(r"step (\d+):", str(whole.value)).group(1))
        assert step > 37
        with pytest.raises(sx.BoundaryError) as split:
            for _ in range(512 // 37 + 1):
                sample = sx.propagate(sample, OSC, sx.PropagatorConfig(
                    scheme=scheme, dt=T / 1024, n_steps=37))
        assert str(split.value) == str(whole.value)

    def test_implicit_scheme_conserves_norm_for_any_dt(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25))
        grid = sx.GridSpec.for_state(spec, n_points=512)
        psi = sx.eval_pure_wavefunction(spec, grid, 0.0)
        for _ in range(5):
            psi = sx.propagate(psi, OSC, sx.PropagatorConfig(
                scheme="implicit-unitary", dt=0.3, n_steps=1))
            assert abs(psi.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("scheme,kinetic", [("spectral-split-step", "spectral"),
                                                ("implicit-unitary", "fd3")])
    def test_energy_conserved_over_a_period(self, scheme, kinetic):
        # each scheme is measured with its own discrete Hamiltonian
        sq = pure_squeeze(1.25, 0.3)
        spec = sx.GaussianStateSpec(OSC, sq, sx.CenterTrajectory(SGR, 0.7))
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        e0 = sx.energy_expectation(psi0, OSC, kinetic=kinetic)
        out = sx.propagate(psi0, OSC, sx.PropagatorConfig(scheme=scheme, dt=T / 8192, n_steps=8192))
        e1 = sx.energy_expectation(out, OSC, kinetic=kinetic)
        assert abs(e1 - e0) / e0 <= 1e-8

    def test_fd3_energy_is_the_three_point_quadratic_form(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25, 0.3), sx.CenterTrajectory(SGR, 0.7))
        grid = sx.GridSpec.for_state(spec, n_points=96)
        psi = sx.eval_pure_wavefunction(spec, grid, 0.4).values
        h, x = grid.spacing, grid.points()
        laplacian = (np.diag(np.full(grid.n_points - 1, 1.0), 1) - 2.0 * np.eye(grid.n_points)
                     + np.diag(np.full(grid.n_points - 1, 1.0), -1)) / (h * h)
        hamiltonian = -0.5 * laplacian + np.diag(0.5 * x * x)  # hbar = m = omega = 1
        e = sx.energy_expectation(sx.WavefunctionSample(grid, psi, 0.4), OSC, kinetic="fd3")
        assert abs(e - h * np.vdot(psi, hamiltonian @ psi).real) <= 1e-12 * e

    def test_schemes_cross_validate_at_reference_resolution(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25, 0.3))
        r = spec.support_radius(11.0)
        grid = sx.GridSpec(-r, r, 4096)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        a = sx.propagate(psi0, OSC, sx.PropagatorConfig(
            scheme="spectral-split-step", dt=T / 8192, n_steps=8192))
        b = sx.propagate(psi0, OSC, sx.PropagatorConfig(
            scheme="implicit-unitary", dt=T / 8192, n_steps=8192))
        assert sx.fidelity(a, b) >= 1.0 - 1e-8

    def test_implicit_scheme_is_second_order_in_time(self):
        # L2 distance to the analytic state scales as dt^2, so halving dt
        # divides it by ~4 (infidelity itself scales as dt^4 for a unitary
        # scheme; distance is the quantity with the quoted order)
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.25, 0.3))
        r = spec.support_radius(11.0)
        grid = sx.GridSpec(-r, r, 4096)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        dists = []
        for n_steps in (128, 256):
            out = sx.propagate(psi0, OSC, sx.PropagatorConfig(
                scheme="implicit-unitary", dt=T / n_steps, n_steps=n_steps))
            ana = sx.eval_pure_wavefunction(spec, grid, out.time)
            overlap = abs(np.trapezoid(np.conj(ana.values) * out.values, dx=grid.spacing))
            dists.append(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
        ratio = dists[0] / dists[1]
        assert 3.2 <= ratio <= 4.8


class TestFactoredCayley:
    @pytest.mark.parametrize("spec,n", [
        # the benchmark's implicit-unitary scenario and a displaced coherent state
        (sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.25, 0.75, 0.7)), 1024),
        (sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0), sx.CenterTrajectory(2 * SGR, 0.4)),
         256),
    ])
    def test_matches_solve_banded_bit_for_bit(self, spec, n):
        grid = sx.GridSpec.for_state(spec, n_points=n)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        out = sx.propagate(psi0, OSC, sx.PropagatorConfig(
            scheme="implicit-unitary", dt=T / 8192, n_steps=500))
        assert np.array_equal(out.values, reference_cayley(psi0.values, grid, OSC, T / 8192, 500))

    def _psi0(self):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        return sx.eval_pure_wavefunction(spec, sx.GridSpec.for_state(spec, n_points=64), 0.0)

    def test_singular_factor_raises(self, monkeypatch):
        def zgttrf(dl, d, du):
            return dl, d, du, du[:-1], np.zeros(len(d), np.int32), 1

        # the propagator imports scipy.linalg.lapack at its first step, so patch the module
        monkeypatch.setattr(lapack, "zgttrf", zgttrf)
        with pytest.raises(sx.InvariantError, match="singular"):
            sx.propagate(self._psi0(), OSC, sx.PropagatorConfig(
                scheme="implicit-unitary", dt=T / 64, n_steps=4))

    def test_failed_solve_raises_and_stops(self, monkeypatch):
        solves = []

        def zgttrs(*args, **kwargs):
            solves.append(1)
            return args[-1], 1

        monkeypatch.setattr(lapack, "zgttrs", zgttrs)
        with pytest.raises(sx.InvariantError, match="implicit step 1: zgttrs info = 1"):
            sx.propagate(self._psi0(), OSC, sx.PropagatorConfig(
                scheme="implicit-unitary", dt=T / 64, n_steps=4))
        assert len(solves) == 1


class TestEdgeGuard:
    @pytest.mark.parametrize("where", [0, -1, slice(None)])
    def test_nan_edge_fails(self, where):
        psi = np.zeros(16, complex)
        psi[where] = np.nan
        with pytest.raises(sx.BoundaryError, match="at split step 3: edge amplitude nan"):
            oracle._check_edges(psi, oracle.EDGE_GUARD, "split", 3)
        with pytest.raises(sx.BoundaryError, match="in the initial state"):
            oracle._check_edges(psi, oracle.EDGE_START_TOL)


class TestFidelity:
    def _ground(self, n=512):
        spec = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        grid = sx.GridSpec.for_state(spec, n_points=n)
        return sx.eval_pure_wavefunction(spec, grid, 0.0), grid

    def test_self_fidelity_is_one(self):
        wf, _ = self._ground()
        assert abs(sx.fidelity(wf, wf) - 1.0) <= 1e-10

    def test_global_phase_invariance(self):
        wf, grid = self._ground()
        rotated = sx.WavefunctionSample(grid=grid, values=wf.values * np.exp(0.77j), time=0.0)
        assert abs(sx.fidelity(wf, rotated) - 1.0) <= 1e-10

    def test_symmetry(self):
        wf, grid = self._ground()
        sq = sx.squeeze_from_initial_variance(2 * SGR2, OSC)
        other = sx.eval_pure_wavefunction(sx.GaussianStateSpec(OSC, sq), grid, 0.0)
        assert sx.fidelity(wf, other) == pytest.approx(sx.fidelity(other, wf), rel=1e-12)

    def test_ground_vs_squeezed_overlap_closed_form(self):
        # independent oracle: |<g|s>|^2 = 2 s1 s2 / (s1^2 + s2^2) for two
        # zero-mean real Gaussians; here s2^2 = 2 s1^2 gives 2 sqrt(2) / 3
        wf, grid = self._ground()
        sq = sx.squeeze_from_initial_variance(2 * SGR2, OSC)
        other = sx.eval_pure_wavefunction(sx.GaussianStateSpec(OSC, sq), grid, 0.0)
        s1, s2 = np.sqrt(SGR2), np.sqrt(2 * SGR2)
        oracle = 2 * s1 * s2 / (s1**2 + s2**2)
        assert oracle == pytest.approx(2 * np.sqrt(2) / 3, rel=1e-15)
        assert sx.fidelity(wf, other) == pytest.approx(oracle, abs=1e-10)

    def test_grid_mismatch_raises(self):
        wf, _ = self._ground(512)
        other, _ = self._ground(256)
        with pytest.raises(sx.GridMismatchError):
            sx.fidelity(wf, other)


class TestPurity:
    def test_pure_state(self):
        spec = sx.GaussianStateSpec(OSC, pure_squeeze(1.6, 0.4))
        grid = sx.GridSpec.for_state(spec, n_points=256)
        assert sx.purity(sx.eval_pure_density(spec, grid, 0.9)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("P,expected,tol", [(4.0, 0.5, 1e-5), (1.21, 1 / 1.1, 1e-5)])
    def test_mixed_state_purity_is_inverse_sqrt_P(self, P, expected, tol):
        base = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        sigma_a = SGR * np.sqrt(np.sqrt(P) - 1.0)
        mspec = sx.MixedGaussianSpec(base, sigma_a=sigma_a)
        spec = sx.reparameterize(mspec)
        assert spec.purity_product == pytest.approx(P, rel=1e-12)
        grid = sx.GridSpec.for_state(spec, n_points=256)
        dm = sx.eval_mixed_density(spec, grid, 0.6)
        assert abs(sx.purity(dm) - expected) <= tol
