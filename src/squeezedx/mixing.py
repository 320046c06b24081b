"""Mixed Gaussian states built two independent ways.

A mixed state here is a pure squeezed state whose center (x_c, p_c) is
smeared by an isotropic classical Gaussian: x_c with variance sigma_a^2 and
p_c/(m omega) with the same variance.  The closed form absorbs the smearing
into a purity factor P and a shifted mean shape parameter,

    A0 -> A0 + sigma_a^2/sigma_gr^2,
    P  = (A0' + dA)(A0' - dA) = 1 + (sigma_a/sigma_gr)^4 + 2 A0 (sigma_a/sigma_gr)^2,

so the density matrix keeps the pure-state form except for P multiplying the
separation Gaussian.  ``ensemble_average_density`` rebuilds the same matrix by
brute-force quadrature over the center distribution and is the independent
oracle for that claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvariantError
from .states import (
    DensityMatrixSample,
    GaussianStateSpec,
    GridSpec,
    SqueezeDynamics,
    _gaussian_density,
    center_state,
    eval_pure_density,
    quadrature_shape,
)

__all__ = [
    "MixedGaussianSpec",
    "reparameterize",
    "eval_mixed_density",
    "ensemble_average_density",
    "gaussian_identity_shifted",
    "gaussian_identity_exponential",
]

# Largest peak-relative change node doubling may make to a Gauss-Hermite result.
CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class MixedGaussianSpec:
    """A pure base state plus a classical Gaussian spread of its center.

    The mean center follows the base trajectory.  sigma_a = 0 reduces
    exactly to the pure case.
    """

    base: GaussianStateSpec
    sigma_a: float = 0.0

    def __post_init__(self):
        if not self.base.is_pure:
            raise InvariantError(
                f"mixed-state base must be pure (P = 1): P = {self.base.purity_product!r}"
            )
        if not self.sigma_a >= 0.0:
            raise InvariantError(f"mixing invariant sigma_a >= 0 violated: sigma_a={self.sigma_a}")

    @property
    def spread_ratio(self) -> float:
        """sigma_a^2 / sigma_gr^2, the dimensionless added variance."""
        return self.sigma_a**2 / self.base.osc.ground_variance

    @property
    def A0_tilde(self) -> float:
        return self.base.squeeze.A0 + self.spread_ratio

    @property
    def purity_product(self) -> float:
        return reparameterize(self).purity_product


def reparameterize(spec: MixedGaussianSpec) -> GaussianStateSpec:
    """Fold the classical spread into the shape parameters.

    A0 grows by sigma_a^2/sigma_gr^2; dA, phi_sq and the (mean) center are
    unchanged, so the result's P is (A0'+dA)(A0'-dA).  Idempotent for
    sigma_a = 0.
    """
    sq = spec.base.squeeze
    return GaussianStateSpec(
        osc=spec.base.osc,
        squeeze=SqueezeDynamics(A0=spec.A0_tilde, dA=sq.dA, phi_sq=sq.phi_sq),
        center=spec.base.center,
    )


def eval_mixed_density(spec: GaussianStateSpec, grid: GridSpec, t: float) -> DensityMatrixSample:
    """Closed-form Gaussian density matrix with purity factor P.

    Identical to the pure factored form except that P multiplies the
    separation Gaussian; P = 1 therefore reproduces eval_pure_density
    elementwise.
    """
    return _gaussian_density(spec, grid, t, spec.purity_product)


def _member_matrix(spec: MixedGaussianSpec, x: np.ndarray, t: float,
                   dx0: np.ndarray, dp0: np.ndarray) -> np.ndarray:
    """Wavefunction columns for ensemble members with initial center offsets.

    Each offset rotates classically to time t before evaluation; the global
    phase is irrelevant because members enter as |psi><psi|.
    """
    base = spec.base
    osc = base.osc
    m_om = osc.mass * osc.angular_frequency
    s2 = osc.ground_variance
    A, B = quadrature_shape(base.squeeze, osc.angular_frequency, t)
    xbar, pbar = center_state(base.center, osc, t)
    c, s = np.cos(osc.angular_frequency * t), np.sin(osc.angular_frequency * t)
    xc = xbar + dx0 * c + dp0 * s / m_om
    pc = pbar + dp0 * c - dx0 * m_om * s
    u = x[:, None] - xc[None, :]
    return ((2.0 * np.pi * s2 * A) ** -0.25
            * np.exp(-u * u * (1.0 + 1j * B) / (4.0 * s2 * A)
                     + 1j * pc[None, :] * x[:, None] / osc.hbar))


def _gauss_hermite_density(spec: MixedGaussianSpec, grid: GridSpec, t: float,
                           n_nodes: int) -> np.ndarray:
    xi, w = np.polynomial.hermite.hermgauss(n_nodes)
    wt = w / np.sqrt(np.pi)
    m_om = spec.base.osc.mass * spec.base.osc.angular_frequency
    scale_x = np.sqrt(2.0) * spec.sigma_a
    scale_p = np.sqrt(2.0) * m_om * spec.sigma_a
    dx0, dp0 = np.meshgrid(scale_x * xi, scale_p * xi, indexing="ij")
    weights = np.outer(wt, wt).ravel()
    psi = _member_matrix(spec, grid.points(), t, dx0.ravel(), dp0.ravel())
    return (psi * weights[None, :]) @ psi.conj().T


def _monte_carlo_density(spec: MixedGaussianSpec, grid: GridSpec, t: float,
                         n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m_om = spec.base.osc.mass * spec.base.osc.angular_frequency
    dx0 = rng.normal(0.0, spec.sigma_a, n_samples)
    dp0 = rng.normal(0.0, m_om * spec.sigma_a, n_samples)
    x = grid.points()
    rho = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    chunk = 8192
    for k in range(0, n_samples, chunk):
        psi = _member_matrix(spec, x, t, dx0[k:k + chunk], dp0[k:k + chunk])
        rho += psi @ psi.conj().T
    return rho / n_samples


def ensemble_average_density(spec: MixedGaussianSpec, grid: GridSpec, t: float,
                             n_nodes: int = 32, *, method: str = "gauss-hermite",
                             n_samples: int = 100_000, seed: int = 12345,
                             check_convergence: bool = True) -> DensityMatrixSample:
    """Brute-force average of pure density matrices over the center spread.

    Gauss-Hermite tensor quadrature (n_nodes per axis, >= 16) by default;
    ``method="monte-carlo"`` draws ``n_samples`` centers with a fixed seed
    instead.  With ``check_convergence`` the Gauss-Hermite result is compared
    against a node-doubled rule and a ConvergenceError is raised if they
    disagree beyond CONVERGENCE_TOL relative to the matrix peak.
    """
    target = reparameterize(spec)
    grid.require_coverage(target)
    if spec.sigma_a == 0.0:
        return eval_pure_density(spec.base, grid, t)
    if method == "monte-carlo":
        rho = _monte_carlo_density(spec, grid, t, n_samples, seed)
    elif method == "gauss-hermite":
        if n_nodes < 16:
            raise InvariantError(f"ensemble quadrature requires n_nodes >= 16 per axis: got {n_nodes}")
        rho = _gauss_hermite_density(spec, grid, t, n_nodes)
        if check_convergence:
            rho_fine = _gauss_hermite_density(spec, grid, t, 2 * n_nodes)
            peak = np.abs(rho_fine).max()
            drift = np.abs(rho - rho_fine).max() / peak
            if drift > CONVERGENCE_TOL:
                raise ConvergenceError(
                    f"ensemble quadrature not converged at {n_nodes} nodes/axis: "
                    f"node doubling moves the result by {drift:.3e} of peak "
                    f"(tolerance {CONVERGENCE_TOL:g}); increase n_nodes"
                )
    else:
        raise InvariantError(f"unknown ensemble method {method!r}")
    return DensityMatrixSample(grid=grid, values=rho, time=t)


# ---------------------------------------------------------------------------
# Gaussian integral identities (testable lemmas)
# ---------------------------------------------------------------------------

def gaussian_identity_shifted(x: float, a: complex, sigma1_sq: float,
                              sigma2_sq: float) -> complex:
    """Closed form of the shifted-Gaussian smoothing integral.

    int dy N(y; 0, s2) * exp(-((x+y)^2 + a (x+y)) / (2 s1)) / sqrt(2 pi s1)
      = exp(-(x^2 + a x) / (2 (s1+s2))) / sqrt(2 pi (s1+s2))
        * exp(a^2 s2 / (8 s1 (s1+s2)))

    for complex a and positive variances.
    """
    if not (sigma1_sq > 0 and sigma2_sq > 0):
        raise InvariantError(
            f"identity requires positive variances: sigma1^2={sigma1_sq}, sigma2^2={sigma2_sq}"
        )
    total = sigma1_sq + sigma2_sq
    a = complex(a)
    return (np.exp(-(x * x + a * x) / (2.0 * total)) / np.sqrt(2.0 * np.pi * total)
            * np.exp(a * a * sigma2_sq / (8.0 * sigma1_sq * total)))


def gaussian_identity_exponential(x: float, a: complex, sigma_sq: float) -> complex:
    """Closed form of int dy exp(a (x+y)) N(y; 0, sigma^2) = exp(a x + a^2 sigma^2 / 2)."""
    if not sigma_sq > 0:
        raise InvariantError(f"identity requires a positive variance: sigma^2={sigma_sq}")
    a = complex(a)
    return np.exp(a * x) * np.exp(0.5 * a * a * sigma_sq)
