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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvariantError
from .states import (
    DensityMatrixSample,
    GaussianStateSpec,
    GridSpec,
    SqueezeDynamics,
    TILE_VALUES,
    _gaussian_density,
    _peak_relative_error,
    _require_pure,
    _tiles,
    center_state,
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
# Fewest Gauss-Hermite nodes per axis an ensemble average may use.
MIN_ENSEMBLE_NODES = 16
# Most member values (points x members) in one block: 4 MiB of real [C | S] columns.
BLOCK_VALUES = 2**18
# Monte Carlo seed when none is given.
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class MixedGaussianSpec:
    """A pure base state plus a classical Gaussian spread of its center.

    The mean center follows the base trajectory, and sigma_a = 0 is exactly the
    pure case.  The one judge of a state: its squeeze is pure, its spread in range.
    """

    base: GaussianStateSpec
    sigma_a: float = 0.0

    def __post_init__(self):
        _require_pure(self.base, "squeeze (mixing comes from sigma_a)")
        s = self.sigma_a  # s * s, not s**2, which raises OverflowError past the float range
        if not (s >= 0.0 and math.isfinite(s * s / self.base.osc.ground_variance)
                and math.isfinite(self.purity_product)):
            raise InvariantError("mixing invariant sigma_a >= 0 with sigma_a^2/sigma_gr^2 and P "
                                 f"finite violated: sigma_a={s!r}")

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
    A0 = sq.A0 + spec.sigma_a**2 / spec.base.osc.ground_variance
    return GaussianStateSpec(
        osc=spec.base.osc,
        squeeze=SqueezeDynamics(A0=A0, dA=sq.dA, phi_sq=sq.phi_sq),
        center=spec.base.center,
    )


def eval_mixed_density(spec: GaussianStateSpec, grid: GridSpec, t: float) -> DensityMatrixSample:
    """Closed-form Gaussian density matrix with purity factor P.

    Identical to the pure factored form except that P multiplies the
    separation Gaussian; P = 1 therefore reproduces eval_pure_density
    elementwise.
    """
    return _gaussian_density(spec, grid, t, spec.purity_product)


def _row_factor(spec: MixedGaussianSpec, grid: GridSpec, t: float) -> np.ndarray:
    """R(x) = (2 pi sigma_gr^2 A)^(-1/4) exp(-iBx^2/w), the factor every member shares."""
    osc = spec.base.osc
    A, B = quadrature_shape(spec.base.squeeze, osc.angular_frequency, t)
    x = grid.points()
    return ((2.0 * np.pi * osc.ground_variance * A) ** -0.25
            * np.exp(-1j * B * x * x / (4.0 * osc.ground_variance * A)))


def _member_block(spec: MixedGaussianSpec, grid: GridSpec, t: float, dx0: np.ndarray,
                  dp0: np.ndarray, half_log_w: np.ndarray, out: np.ndarray) -> None:
    """Write ensemble members, less their shared row factor, into ``out`` = [C | S].

    Each initial center offset rotates classically to time t.  With
    w = 4 sigma_gr^2 A, a member's exponent -(x-x_c)^2 (1+iB)/w + i p_c x/hbar
    splits into a real Gaussian exp(-(x-x_c)^2/w), the row factor
    exp(-iBx^2/w) of ``_row_factor``, a plane wave exp(ikx) with
    k = 2B x_c/w + p_c/hbar, and a constant exp(-iB x_c^2/w).  The constant is
    dropped: like the global phase, it cancels because members enter as
    |psi><psi|.  Member m's column a_m = sqrt(w_m) exp(-(x-x_c)^2/w) exp(ikx)
    carries its weight in the Gaussian's exponent (``half_log_w`` = log(w_m)/2);
    its real part goes to column m of ``out`` and its imaginary part to
    column M + m, for M members.  With L = ceil(sqrt(N)), the plane wave at
    x_0 + (aL + b)h is a coarse table entry (a) times a fine one (b), so a member
    costs about 2 sqrt(N) complex exponentials, not N.  Strips of whole coarse rows hold
    at most TILE_VALUES plane waves (or one row), with a whole block's arithmetic.
    """
    base = spec.base
    osc = base.osc
    m_om = osc.mass * osc.angular_frequency
    A, B = quadrature_shape(base.squeeze, osc.angular_frequency, t)
    xbar, pbar = center_state(base.center, osc, t)
    c, s = np.cos(osc.angular_frequency * t), np.sin(osc.angular_frequency * t)
    xc = xbar + dx0 * c + dp0 * s / m_om
    pc = pbar + dp0 * c - dx0 * m_om * s
    w = 4.0 * osc.ground_variance * A
    k = 2.0 * B * xc / w + pc / osc.hbar

    n, h, m = grid.n_points, grid.spacing, k.size
    L = math.isqrt(n - 1) + 1
    coarse = np.exp(1j * (grid.x_min + np.arange(-(-n // L)) * L * h)[:, None] * k)
    fine = np.exp(1j * (np.arange(L) * h)[:, None] * k)
    r = 1.0 / math.sqrt(w)
    x = grid.points() * r
    for strip in _tiles(coarse.shape[0], L * m, TILE_VALUES):
        a, b = strip.start * L, min(strip.stop * L, n)  # the last coarse row may be ragged
        plane = (coarse[strip, None] * fine).reshape(-1, m)[:b - a]
        gauss = out[a:b, m:]  # the Gaussian, then S in place
        np.subtract.outer(x[a:b], xc * r, out=gauss)
        np.square(gauss, out=gauss)
        np.subtract(half_log_w, gauss, out=gauss)
        np.exp(gauss, out=gauss)
        np.multiply(gauss, plane.real, out=out[a:b, :m])
        gauss *= plane.imag


def _ensemble_sum(spec: MixedGaussianSpec, grid: GridSpec, t: float,
                  dx0: np.ndarray, dp0: np.ndarray, log_w: np.ndarray | float) -> np.ndarray:
    """sum_m w_m |psi_m><psi_m| for log weights ``log_w``, BLOCK_VALUES member values at a time.

    Every psi_m is R a_m, with R the shared row factor and a_m = C_m + i S_m
    a column of ``_member_block``, so the sum is R R^H times
    sum_m a_m a_m^H = X X^T + i(S C^T - (S C^T)^T) for each block X = [C | S].
    X X^T is a real symmetric rank-k update (BLAS syrk); R R^H is applied once,
    at the end, one row tile at a time.  The block buffer and the two real N x N
    sums are allocated once per call, and the result is exactly Hermitian.
    """
    n = grid.n_points
    members = _tiles(dx0.size, n, BLOCK_VALUES)
    half_log_w = np.broadcast_to(0.5 * log_w, dx0.shape)
    blocks = np.empty(2 * n * members[0].stop)
    re, im = np.zeros((2, n, n))
    for block in members:
        m = block.stop - block.start
        X = blocks[:2 * n * m].reshape(n, 2 * m)
        _member_block(spec, grid, t, dx0[block], dp0[block], half_log_w[block], X)
        re += X @ X.T
        im += X[:, m:] @ X[:, :m].T
    del blocks, X  # before rho, the peak of a call
    # R R^H and the member sum in real arithmetic, each part exactly (anti)symmetric
    R = _row_factor(spec, grid, t)
    rho = np.empty((n, n), dtype=complex)
    for rows in _tiles(n, n, TILE_VALUES):
        rr = np.outer(R.real[rows], R.real) + np.outer(R.imag[rows], R.imag)
        ri = np.outer(R.imag[rows], R.real) - np.outer(R.real[rows], R.imag)
        anti = im[rows] - im[:, rows].T
        rho[rows].real = rr * re[rows] - ri * anti
        rho[rows].imag = rr * anti + ri * re[rows]
    return rho


def _gauss_hermite_density(spec: MixedGaussianSpec, grid: GridSpec, t: float,
                           n_nodes: int) -> np.ndarray:
    xi, w = np.polynomial.hermite.hermgauss(n_nodes)
    log_wt = np.log(w / np.sqrt(np.pi))  # summed per pair: w_i w_j underflows at 256 nodes
    m_om = spec.base.osc.mass * spec.base.osc.angular_frequency
    scale_x = np.sqrt(2.0) * spec.sigma_a
    scale_p = np.sqrt(2.0) * m_om * spec.sigma_a
    dx0, dp0 = np.meshgrid(scale_x * xi, scale_p * xi, indexing="ij")
    return _ensemble_sum(spec, grid, t, dx0.ravel(), dp0.ravel(),
                         np.add.outer(log_wt, log_wt).ravel())


def ensemble_average_density(spec: MixedGaussianSpec, grid: GridSpec, t: float,
                             n_nodes: int = 32, *, method: str = "gauss-hermite",
                             n_samples: int = 100_000, seed: int = DEFAULT_SEED,
                             check_convergence: bool = True) -> DensityMatrixSample:
    """Brute-force average of pure density matrices over the center spread.

    Gauss-Hermite tensor quadrature (n_nodes per axis, >= MIN_ENSEMBLE_NODES)
    by default; ``method="monte-carlo"`` draws ``n_samples`` centers with a
    fixed seed instead.  Either way the members are summed in blocks as a
    real symmetric rank-k update (see ``_ensemble_sum``).  With
    ``check_convergence`` the Gauss-Hermite result is compared against a
    node-doubled rule and a ConvergenceError is raised if they disagree beyond
    CONVERGENCE_TOL relative to the matrix peak.
    """
    grid.require_coverage(reparameterize(spec))
    if method == "monte-carlo":
        if n_samples < 1:
            raise InvariantError(f"Monte Carlo ensemble requires n_samples >= 1: got {n_samples}")
        rng = np.random.default_rng(seed)  # dx0, then dp0 with spread m omega sigma_a
        m_om = spec.base.osc.mass * spec.base.osc.angular_frequency
        rho = _ensemble_sum(spec, grid, t, rng.normal(0.0, spec.sigma_a, n_samples),
                            rng.normal(0.0, m_om * spec.sigma_a, n_samples), -math.log(n_samples))
    elif method == "gauss-hermite":
        if n_nodes < MIN_ENSEMBLE_NODES:
            raise InvariantError(f"ensemble quadrature requires n_nodes >= {MIN_ENSEMBLE_NODES} "
                                 f"per axis: got {n_nodes}")
        rho = _gauss_hermite_density(spec, grid, t, n_nodes)
        if check_convergence:
            drift = _peak_relative_error(rho, _gauss_hermite_density(spec, grid, t, 2 * n_nodes))
            if drift > CONVERGENCE_TOL:
                raise ConvergenceError(
                    f"ensemble quadrature not converged at {n_nodes} nodes/axis: "
                    f"node doubling moves the result by {drift:.3e} of peak "
                    f"(tolerance {CONVERGENCE_TOL:g}); increase n_nodes", float(drift))
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
