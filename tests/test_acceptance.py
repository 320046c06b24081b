"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
as they print).  Tolerances are fixed here, not calibrated at runtime.

Known red: criterion 6 at sigma_a = 2 sigma_gr.  A 32-node-per-axis
Gauss-Hermite tensor rule cannot reach 1e-8 peak-relative agreement for a
spread that wide.  On this test's base and grid (n=256, margin 8, its 10
seeded times) the max peak-relative error falls with nodes per axis as
32: 4.2e-4, 48: 9.0e-6, 64: 1.9e-7, 96: 8.5e-11, 128: 3.8e-14, so the
ensemble converges to the closed form and both sides are right.

The floor comes from the momentum axis.  Splitting the rule at t=0, 32
position nodes with 128 momentum nodes give 5.6e-10, while 128 position
nodes with 32 momentum nodes still give 4.2e-4.  Each member enters through
the plane wave exp(i p_c (x - x')/hbar), and 32 momentum nodes cannot
resolve it across the grid's separations x - x'; the narrowness of the
member Gaussian is not the cause.  Even a ground-state base (B = 0) leaves
a 32-node floor of 4.0e-6 on the same n=256, margin-8 grid.

The library promises 1e-8 only behind the node-doubling guard in
ensemble_average_density, which fires here at 32 nodes;
tests/test_mixing.py::test_wide_spread_needs_more_nodes_and_then_agrees
checks that promise at 96 nodes.  This sub-case is asserted at its stated
32-node/1e-8 form anyway and fails honestly rather than being loosened.
"""

import time

import numpy as np
import pytest

import squeezedx as sx
from squeezedx.scenario import parse_config, run_scenario

OSC = sx.OscillatorConfig()
SGR2 = OSC.ground_variance
SGR = np.sqrt(SGR2)
T = OSC.period


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_pure_spec(rng, x_max_sgr=5.0):
    A0 = rng.uniform(1.0, 5.0)
    sq = sx.SqueezeDynamics(A0, np.sqrt(A0**2 - 1.0), rng.uniform(0.0, 2 * np.pi))
    center = sx.CenterTrajectory(rng.uniform(0.0, x_max_sgr * SGR), rng.uniform(0.0, 2 * np.pi))
    return sx.GaussianStateSpec(OSC, sq, center)


def test_criterion_1_analytic_vs_numeric_evolution():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 1.0
    for _ in range(10):
        spec = random_pure_spec(rng)
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        psi0 = sx.eval_pure_wavefunction(spec, grid, 0.0)
        out = sx.propagate(psi0, OSC, sx.PropagatorConfig(
            scheme="spectral-split-step", dt=T / 8192, n_steps=8192))
        ana = sx.eval_pure_wavefunction(spec, grid, out.time)
        worst = min(worst, sx.fidelity(out, ana))
    elapsed = time.time() - t0
    report("1 (analytic-vs-numeric evolution)",
           worst >= 1.0 - 1e-6 and elapsed < 30.0,
           f"min fidelity {worst:.12f} (tol 1-1e-6) over 10 specs, {elapsed:.1f}s (<30s)")


def test_criterion_2_ode_certification():
    rng = np.random.default_rng(102)
    ts = rng.uniform(0.0, 4 * T, 100)
    worst = 0.0
    for _ in range(5):
        A0 = rng.uniform(1.0, 5.0)
        sq = sx.SqueezeDynamics(A0, np.sqrt(A0**2 - 1.0), rng.uniform(0.0, 2 * np.pi))
        r1, r2, r3 = sx.ode_residuals(sq, OSC, ts)
        worst = max(worst, float(np.max([r1, r2, r3])))
    _, r2_bad, _ = sx.ode_residuals(sx.SqueezeDynamics(2.0, 0.5), OSC, 0.61)
    report("2 (ODE certification)",
           worst <= 1e-6 and r2_bad > 0.1,
           f"max pure residual {worst:.3e} (tol 1e-6) at 100 random t; "
           f"negative control r2 = {r2_bad:.3f} (> 0.1)")


def test_criterion_3_schrodinger_residual():
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        spec = random_pure_spec(rng)
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        for t in rng.uniform(0.0, T, 5):
            worst = max(worst, sx.schrodinger_residual(spec, grid, float(t)))
    elapsed = time.time() - t0
    report("3 (Schroedinger residual)",
           worst <= 1e-5 and elapsed < 20.0,
           f"max residual {worst:.3e} (tol 1e-5) over 20 specs x 5 times, {elapsed:.1f}s (<20s)")


def test_criterion_4_phase_law():
    rng = np.random.default_rng(104)
    c0 = sx.CenterTrajectory()
    worst = 0.0
    for _ in range(10):
        A0 = rng.uniform(1.0, 5.0)
        sq = sx.SqueezeDynamics(A0, np.sqrt(A0**2 - 1.0), rng.uniform(0.0, 2 * np.pi))
        t = rng.uniform(0.0, 3 * T)
        d = (sx.accumulated_phase(sq, c0, OSC, t + np.pi / OSC.angular_frequency)
             - sx.accumulated_phase(sq, c0, OSC, t))
        worst = max(worst, abs(d - np.pi / 2))
    ts = np.linspace(0.0, 3 * T, 97)
    ground_err = float(np.abs(
        sx.accumulated_phase(sx.SqueezeDynamics(1.0), c0, OSC, ts)
        - OSC.angular_frequency * ts / 2).max())
    report("4 (phase law)",
           worst <= 1e-9 and ground_err <= 1e-12,
           f"max |dphi - pi/2| = {worst:.3e} (tol 1e-9); "
           f"ground |phi - wt/2| = {ground_err:.3e} (tol 1e-12)")


def test_criterion_5_uncertainty_structure():
    rng = np.random.default_rng(105)
    prod_err = 0.0
    var_err = 0.0
    for _ in range(5):
        A0 = rng.uniform(1.0, 5.0)
        sq = sx.SqueezeDynamics(A0, np.sqrt(A0**2 - 1.0), rng.uniform(0.0, 2 * np.pi))
        spec = sx.GaussianStateSpec(OSC, sq)
        grid = sx.GridSpec.for_state(spec, n_points=1024)
        for n in (1, 2, 3, 4):  # the four minimum-uncertainty instants per period
            t = (n * np.pi - sq.phi_sq) / (2.0 * OSC.angular_frequency)
            m = sx.moments(sx.eval_pure_wavefunction(spec, grid, t), OSC)
            prod_err = max(prod_err, abs(m.uncertainty_product - OSC.hbar / 2))
        for t in np.linspace(0.0, T, 64, endpoint=False):
            A, _ = sx.quadrature_shape(sq, OSC.angular_frequency, float(t))
            m = sx.moments(sx.eval_pure_wavefunction(spec, grid, float(t)), OSC)
            var_err = max(var_err, abs(m.var_x - SGR2 * A) / (SGR2 * A))
    report("5 (uncertainty structure)",
           prod_err <= 1e-8 * OSC.hbar and var_err <= 1e-8,
           f"max |sx*sp - hbar/2| = {prod_err:.3e} (tol 1e-8 hbar) at shape extrema; "
           f"max rel var_x error = {var_err:.3e} (tol 1e-8) at 64 sample times")


class TestCriterion6MixedStateEquivalence:
    """Gauss-Hermite 32 nodes/axis vs closed form, then Monte Carlo."""

    BASE = dict(A0=1.25, phi_sq=0.4, X_amp=SGR, phi_c=1.0)

    def _mixed(self, sigma_ratio):
        sq = sx.SqueezeDynamics(self.BASE["A0"], np.sqrt(self.BASE["A0"]**2 - 1.0),
                                self.BASE["phi_sq"])
        base = sx.GaussianStateSpec(OSC, sq, sx.CenterTrajectory(
            self.BASE["X_amp"], self.BASE["phi_c"]))
        return sx.MixedGaussianSpec(base, sigma_a=sigma_ratio * SGR)

    @pytest.mark.parametrize("sigma_ratio", [0.5, 1.0, 2.0])
    def test_gauss_hermite_32_nodes(self, sigma_ratio):
        rng = np.random.default_rng(106)
        ms = self._mixed(sigma_ratio)
        rp = sx.reparameterize(ms)
        r = rp.support_radius(8.0)
        grid = sx.GridSpec(-r, r, 256)
        t0 = time.time()
        worst = 0.0
        for t in rng.uniform(0.0, T, 10):
            ens = sx.ensemble_average_density(ms, grid, float(t), 32,
                                              check_convergence=False)
            cf = sx.eval_mixed_density(rp, grid, float(t))
            worst = max(worst, float(np.abs(ens.values - cf.values).max()
                                     / np.abs(cf.values).max()))
        elapsed = time.time() - t0
        report(f"6a (ensemble equivalence, GH32, sigma_a={sigma_ratio}*sigma_gr)",
               worst <= 1e-8 and elapsed < 60.0,
               f"max peak-relative error {worst:.3e} (tol 1e-8) at 10 random times, "
               f"{elapsed:.1f}s")

    @pytest.mark.parametrize("sigma_ratio", [0.5, 1.0, 2.0])
    def test_monte_carlo_mode(self, sigma_ratio):
        ms = self._mixed(sigma_ratio)
        rp = sx.reparameterize(ms)
        r = rp.support_radius(8.0)
        grid = sx.GridSpec(-r, r, 256)
        t0 = time.time()
        t = 1.3
        ens = sx.ensemble_average_density(ms, grid, t, method="monte-carlo",
                                          n_samples=100_000, seed=12345)
        cf = sx.eval_mixed_density(rp, grid, t)
        rms = float(np.sqrt(np.mean(np.abs(ens.values - cf.values) ** 2))
                    / np.abs(cf.values).max())
        elapsed = time.time() - t0
        report(f"6b (ensemble equivalence, MC 1e5, sigma_a={sigma_ratio}*sigma_gr)",
               rms <= 1e-3 and elapsed < 60.0,
               f"peak-relative rms {rms:.3e} (tol 1e-3), seed 12345, {elapsed:.1f}s")


def test_criterion_7_purity_law():
    worst = 0.0
    details = []
    for P in (1.0, 1.21, 2.5, 4.0, 25.0):
        base = sx.GaussianStateSpec(OSC, sx.SqueezeDynamics(1.0))
        sigma_a = SGR * np.sqrt(np.sqrt(P) - 1.0)
        spec = sx.reparameterize(sx.MixedGaussianSpec(base, sigma_a=sigma_a))
        assert spec.purity_product == pytest.approx(P, rel=1e-10)
        grid = sx.GridSpec.for_state(spec, n_points=512)
        got = sx.purity(sx.eval_mixed_density(spec, grid, 0.45))
        err = abs(got - 1.0 / np.sqrt(P))
        worst = max(worst, err)
        details.append(f"P={P}: {got:.6f}")
    report("7 (purity law)", worst <= 1e-5,
           f"max |purity - 1/sqrt(P)| = {worst:.3e} (tol 1e-5); " + "; ".join(details))


def _mp_oracle_shifted(x, a, s1, s2):
    """Adaptive quadrature of the printed integrand; precision follows the
    oscillatory cancellation exp(Im(a)^2 s2 / (8 s1 (s1+s2)))."""
    import mpmath as mp
    cancel_nats = a.imag**2 * s2 / (8.0 * s1 * (s1 + s2))
    with mp.workdps(int(28 + 0.4343 * cancel_nats)):
        a_, x_ = mp.mpc(a), mp.mpf(x)
        s1_, s2_ = mp.mpf(s1), mp.mpf(s2)
        y0 = float(-s2 * (x + a.real / 2) / (s1 + s2))
        w = float(np.sqrt(s1 * s2 / (s1 + s2)))
        half = max(16, int(np.ceil(np.sqrt(2.0 * cancel_nats + 60.0))))
        pts = [mp.mpf(y0 + k * w) for k in range(-half, half + 1, 2)]
        f = lambda y: (mp.e**(-((x_ + y)**2 + a_ * (x_ + y)) / (2 * s1_) - y**2 / (2 * s2_))
                       / (2 * mp.pi * mp.sqrt(s1_ * s2_)))
        return complex(mp.quad(f, pts))


def _mp_oracle_exponential(x, a, s):
    """Adaptive quadrature of the printed integrand; precision follows the
    oscillatory cancellation exp(Im(a)^2 s / 2)."""
    import mpmath as mp
    cancel_nats = 0.5 * a.imag**2 * s
    with mp.workdps(int(28 + 0.4343 * cancel_nats)):
        a_, x_, s_ = mp.mpc(a), mp.mpf(x), mp.mpf(s)
        y0 = float(a.real * s)
        w = float(np.sqrt(s))
        half = max(16, int(np.ceil(np.sqrt(2.0 * cancel_nats + 60.0))))
        pts = [mp.mpf(y0 + k * w) for k in range(-half, half + 1, 2)]
        f = lambda y: mp.e**(a_ * (x_ + y) - y**2 / (2 * s_)) / mp.sqrt(2 * mp.pi * s_)
        return complex(mp.quad(f, pts))


@pytest.mark.slow
def test_criterion_8_gaussian_integral_lemmas():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
        if abs(a) > 5:
            a = 5 * a / abs(a)
        x = rng.uniform(-2, 2)
        s1, s2 = rng.uniform(0.1, 10.0, 2)
        got = sx.gaussian_identity_shifted(x, a, s1, s2)
        worst = max(worst, abs(got - _mp_oracle_shifted(x, a, s1, s2)) / abs(got))
        s = rng.uniform(0.1, 10.0)
        got2 = sx.gaussian_identity_exponential(x, a, s)
        worst = max(worst, abs(got2 - _mp_oracle_exponential(x, a, s)) / abs(got2))
    report("8 (Gaussian integral lemmas)", worst <= 1e-10,
           f"max relative disagreement with adaptive quadrature {worst:.3e} "
           f"(tol 1e-10) over 100 random complex parameter draws")


@pytest.mark.slow
def test_criterion_9_cli_determinism(tmp_path):
    from pathlib import Path
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    byte_identical = True
    for name in ("ground_state", "squeezed_vacuum", "mixed_p4"):
        scs = parse_config((scenarios / f"{name}.json").read_text())
        res1 = run_scenario(scs[0], tmp_path / "a")
        res2 = run_scenario(scs[0], tmp_path / "b")
        ok = res1.verified and res2.verified
        for f1, f2 in zip(res1.files, res2.files):
            ok = ok and f1.read_bytes() == f2.read_bytes()
        byte_identical = byte_identical and ok

    from squeezedx import cli
    code_parse = cli.main(["run", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path)])
    bad = tmp_path / "bad.json"
    bad.write_text('{"name":"b","squeeze":{"A0":0.5,"dA":0.75},"outputs":["verify"]}')
    code_invariant = cli.main(["run", str(bad), "--out-dir", str(tmp_path)])
    report("9 (CLI determinism and exit codes)",
           byte_identical and code_parse == 2 and code_invariant == 3,
           f"bundled scenarios byte-identical across reruns: {byte_identical}; "
           f"parse error exit {code_parse} (=2); invariant violation exit {code_invariant} (=3)")
