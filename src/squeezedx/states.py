"""Closed-form position-space dynamics of Gaussian oscillator states.

Conventions used throughout (natural units make all of these O(1)):

    ground variance   sigma_gr^2 = hbar / (2 m omega)
    shape parameters  A(t) = A0 + dA*cos(2*omega*t + phi_sq)
                      B(t) = dA*sin(2*omega*t + phi_sq)
    purity product    P = (A0 + dA)*(A0 - dA),  P = 1 for pure states
    center            x_c(t) = X_amp*cos(omega*t + phi_c)
                      p_c(t) = -m*omega*X_amp*sin(omega*t + phi_c)

A pure state with these parameters is the normalized Gaussian

    psi(x, t) = (2*pi*sigma_gr^2*A)^(-1/4)
                * exp(-(x - x_c)^2 * (1 + i*B) / (4*sigma_gr^2*A))
                * exp(i*p_c*x/hbar) * exp(-i*phi(t))

whose accumulated phase phi(t) is available in closed form (see
``accumulated_phase``).  Everything here is a pure function of value
types; nothing mutates shared state.
"""

from __future__ import annotations

import mmap
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CoverageError, InvariantError

__all__ = [
    "OscillatorConfig",
    "SqueezeDynamics",
    "CenterTrajectory",
    "GaussianStateSpec",
    "GridSpec",
    "WavefunctionSample",
    "DensityMatrixSample",
    "Moments",
    "quadrature_shape",
    "squeeze_from_initial_variance",
    "center_state",
    "accumulated_phase",
    "eval_pure_wavefunction",
    "eval_pure_density",
    "moments",
    "ode_residuals",
    "schrodinger_residual",
]

# Rounding allowance on the purity product P = (A0+dA)(A0-dA): P >= 1 - tol
# is admissible and |P - 1| <= tol marks a pure state.
REDUNDANCY_TOL = 1e-12

# Trapezoid norm of a wavefunction, or trace of a density, must be 1 to within this.
NORM_TOL = 1e-8

# Central-difference step of the residual diagnostics, in units of 1/omega.
FD_STEP = 1e-6

# Grids must extend at least this many maximal standard deviations past
# the classical turning points of the state they sample.
COVERAGE_SIGMAS = 8.0

# The automatic grid's least half-width past the turning points, in maximal standard
# deviations; and the most |psi| a propagation may start from at a grid edge.
GRID_SIGMAS = 12.0
EDGE_START_TOL = 1e-12


@dataclass(frozen=True)
class OscillatorConfig:
    """Physical constants of the 1-D harmonic oscillator."""

    mass: float = 1.0
    angular_frequency: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        # 2 m omega can underflow to 0 even when m and omega are positive; the
        # squares and products are those the closed forms and the oracles form
        m, omega, hbar = self.mass, self.angular_frequency, self.hbar
        if not (m > 0 and omega > 0 and hbar > 0 and 2.0 * m * omega > 0.0
                and all(0.0 < q < np.inf for q in (
                    self.ground_variance, self.period, hbar * hbar, hbar * hbar / m,
                    omega * omega, m * omega * omega, m * omega * omega / hbar))):
            raise InvariantError(
                "oscillator constants need m, omega, hbar > 0 with hbar/(2 m omega), the period, "
                "hbar^2, hbar^2/m, omega^2, m omega^2 and m omega^2/hbar positive and finite: "
                f"got m={m}, omega={omega}, hbar={hbar}")

    @property
    def ground_variance(self) -> float:
        """sigma_gr^2 = hbar / (2 m omega), the ground-state x variance."""
        return self.hbar / (2.0 * self.mass * self.angular_frequency)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.angular_frequency


@dataclass(frozen=True)
class SqueezeDynamics:
    """Parameters of the 2*omega shape oscillation: A0, dA, phi_sq."""

    A0: float
    dA: float = 0.0
    phi_sq: float = 0.0

    def __post_init__(self):
        if not self.dA >= 0.0:
            raise InvariantError(f"squeeze invariant dA >= 0 violated: dA={self.dA}")
        if not self.A0 > self.dA:
            raise InvariantError(
                f"squeeze invariant A0 > dA violated: A0={self.A0}, dA={self.dA}"
            )
        if self.purity_product < 1.0 - REDUNDANCY_TOL:
            raise InvariantError(
                "squeeze invariant (A0+dA)(A0-dA) >= 1 violated: "
                f"product={self.purity_product}"
            )

    @property
    def purity_product(self) -> float:
        """P = (A0 + dA)(A0 - dA); equals 1 exactly for pure states."""
        return (self.A0 + self.dA) * (self.A0 - self.dA)

    @property
    def is_pure(self) -> bool:
        return abs(self.purity_product - 1.0) <= REDUNDANCY_TOL


@dataclass(frozen=True)
class CenterTrajectory:
    """Classical center motion: amplitude X_amp and initial phase phi_c."""

    X_amp: float = 0.0
    phi_c: float = 0.0

    def __post_init__(self):
        if not self.X_amp >= 0.0:
            raise InvariantError(f"center invariant X_amp >= 0 violated: X_amp={self.X_amp}")


@dataclass(frozen=True)
class GaussianStateSpec:
    """Full description of a (possibly mixed) Gaussian oscillator state.

    The purity product P = (A0+dA)(A0-dA) comes from ``squeeze``; P = 1
    marks a pure state.
    """

    osc: OscillatorConfig
    squeeze: SqueezeDynamics
    center: CenterTrajectory = field(default_factory=CenterTrajectory)

    @property
    def purity_product(self) -> float:
        return self.squeeze.purity_product

    @property
    def is_pure(self) -> bool:
        return self.squeeze.is_pure

    def support_radius(self, n_sigmas: float = COVERAGE_SIGMAS) -> float:
        """X_amp plus ``n_sigmas`` maximal standard deviations sqrt(sigma_gr^2 (A0 + dA))."""
        return self.center.X_amp + n_sigmas * np.sqrt(
            self.osc.ground_variance * (self.squeeze.A0 + self.squeeze.dA))


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid with inclusive endpoints."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.x_max - self.x_min < np.inf:
            raise InvariantError("grid invariant x_min < x_max with a finite width x_max - x_min "
                                 f"violated: [{self.x_min}, {self.x_max}]")
        if self.n_points < 16:
            raise InvariantError(f"grid invariant n_points >= 16 violated: n_points={self.n_points}")

    @classmethod
    def for_state(cls, spec: GaussianStateSpec, n_points: int = 1024) -> "GridSpec":
        """Symmetric grid with the fewest points from ``n_points`` up that resolve the momenta of
        ``spec``, or ``n_points`` if none below sys.maxsize does.

        It spans GRID_SIGMAS std devs past X_amp, or more where |psi|, which peaks at (2 pi
        sigma_gr^2 (A0 - dA))^(-1/4) (about 4e4 for an electron in SI units), would stay above
        EDGE_START_TOL / 10 at the edges.  ``require_coverage`` judges the grid where it is used.
        """
        sq = spec.squeeze  # the log of the peak as a sum, since the product may underflow
        log_peak = -0.25 * (np.log(2.0 * np.pi * spec.osc.ground_variance) + np.log(sq.A0 - sq.dA))
        radius = spec.support_radius(max(GRID_SIGMAS, 2.0 * np.sqrt(
            max(0.0, log_peak - np.log(EDGE_START_TOL / 10.0)))))
        grid = cls(-radius, radius, n_points)
        n = bisect_left(range(sys.maxsize), grid._momenta(spec)[1], lo=n_points,
                        key=lambda k: replace(grid, n_points=k)._momenta(spec)[0])
        return grid if n == sys.maxsize else replace(grid, n_points=n)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def wavenumbers(self) -> np.ndarray:
        """FFT wavenumbers for the periodic extension of period n*h."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def _momenta(self, spec: GaussianStateSpec) -> tuple:
        """Nyquist momentum pi hbar/h of this grid, and momentum support m omega R of ``spec``."""
        m_omega = spec.osc.mass * spec.osc.angular_frequency
        return np.pi * spec.osc.hbar / self.spacing, m_omega * float(spec.support_radius())

    def require_coverage(self, spec: GaussianStateSpec) -> None:
        """Refuse a grid short of the support radius R, or whose pi hbar/h is below m omega R."""
        radius = spec.support_radius()
        if not (-self.x_min >= radius and self.x_max >= radius):
            raise CoverageError(
                "grid coverage invariant violated: |x_min|, x_max must be >= "
                f"X_amp + {COVERAGE_SIGMAS:g}*max std = {radius:.6g}, "
                f"got [{self.x_min:.6g}, {self.x_max:.6g}]"
            )
        nyquist, support = self._momenta(spec)
        if not nyquist >= support:
            need = 1.0 + (self.x_max - self.x_min) * support / (np.pi * spec.osc.hbar)
            raise CoverageError(
                f"grid x_min={self.x_min:.6g}, x_max={self.x_max:.6g}, "
                f"n_points={self.n_points} resolves momenta up to pi hbar/h = {nyquist:.6g}, "
                f"below the state's momentum support m omega (X_amp + {COVERAGE_SIGMAS:g} max std) "
                f"= {support:.6g}; it needs n_points >= {need:.6g}")


def _trapz(values: np.ndarray, grid: GridSpec):
    return np.trapezoid(values, dx=grid.spacing)


@dataclass(frozen=True)
class WavefunctionSample:
    """Complex wavefunction values on a grid at one instant."""

    grid: GridSpec
    values: np.ndarray
    time: float

    def __post_init__(self):
        if self.values.shape != (self.grid.n_points,):
            raise InvariantError(
                f"wavefunction sample shape {self.values.shape} does not match grid "
                f"n_points={self.grid.n_points}"
            )
        norm = self.norm()
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvariantError(
                f"wavefunction norm invariant violated: trapezoid norm = {norm!r}, "
                f"must be 1 within {NORM_TOL:g}"
            )

    def norm(self) -> float:
        return float(_trapz(np.abs(self.values) ** 2, self.grid))


# Most complex values (256 KiB) in one tile of an N x N walk.  Building, differentiating
# and checking a density go through it one tile of consecutive rows or columns at a time;
# each element's arithmetic is that of a whole-matrix expression, so the tiling moves no bit.
TILE_VALUES = 2**14


# Most points of an N x N density, pure or mixed.  One complex matrix at 4096 points takes
# 256 MiB, and a timeseries row adds only tiles to it (row peak measured with tracemalloc at
# 2048 points: 65.0 MiB for a 64 MiB matrix).
MAX_DENSITY_POINTS = 4096


def _require_points(n_points: int) -> None:
    """Raise unless an N x N matrix on ``n_points`` points stays within MAX_DENSITY_POINTS."""
    if n_points > MAX_DENSITY_POINTS:
        raise InvariantError(f"n_points={n_points} exceeds {MAX_DENSITY_POINTS}")


def _tiles(count: int, size: int, budget: int) -> list:
    """Slices of ``count`` items of ``size`` values each, at most ``budget`` values (but at
    least one item) per slice; the last slice may be shorter."""
    step = max(1, budget // size)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _peak_relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """max |values - reference| / max |reference|, maxima of N x N matrices over row tiles."""
    tiles = _tiles(len(reference), len(reference), TILE_VALUES)
    return float(np.max([np.abs(values[rows] - reference[rows]).max() for rows in tiles])
                 / np.max([np.abs(reference[rows]).max() for rows in tiles]))


def _own_pages(n: int) -> np.ndarray:
    """An n x n complex array in its own anonymous memory mapping, unmapped when it is freed.

    From malloc a freed matrix can stay resident in the arena of the thread that freed it,
    and the next command's matrices then add to it: on a 2-core KVM guest the benchmark's
    pure_dynamics peak RSS ranged 101-131 MiB between runs of one build, 100.5 MiB every
    run with this mapping.
    """
    return np.frombuffer(mmap.mmap(-1, n * n * 16, flags=mmap.MAP_PRIVATE),
                         dtype=complex).reshape(n, n)


def _peak_and_hermiticity_defect(values: np.ndarray) -> tuple:
    """max |rho| and max |rho - rho^H| (2 |Im rho_ii| on the diagonal), one row tile at a time.

    |rho_ij - conj(rho_ji)| = |rho_ji - conj(rho_ij)| holds bitwise, and every
    pair j >= i lies in row i's tile, so the tiles give exactly the
    full-matrix values.  The tile maxima are reduced by numpy, so a NaN
    anywhere propagates to the result.
    """
    n = values.shape[0]
    peaks, defects = [], []
    for rows in _tiles(n, n, TILE_VALUES):
        tile, a = values[rows], rows.start
        peaks.append(np.abs(tile).max())
        defects.append(np.abs(tile[:, a:] - values[a:, rows].conj().T).max())
    return float(np.max(peaks)), float(np.max(defects))


@dataclass(frozen=True)
class DensityMatrixSample:
    """Complex density matrix rho(x, x') sampled on grid x grid."""

    grid: GridSpec
    values: np.ndarray
    time: float

    def __post_init__(self):
        n = self.grid.n_points
        if self.values.shape != (n, n):
            raise InvariantError(
                f"density sample shape {self.values.shape} does not match grid ({n}, {n})"
            )
        scale, herm = _peak_and_hermiticity_defect(self.values)
        if not herm <= 1e-10 * max(scale, 1.0):
            raise InvariantError(
                f"density Hermiticity invariant violated: max |rho - rho^H| = {herm!r}"
            )
        if not np.diagonal(self.values).real.min() >= -1e-10 * scale:
            raise InvariantError("density diagonal must be non-negative")
        tr = self.trace()
        if not abs(tr - 1.0) <= NORM_TOL:
            raise InvariantError(
                f"density trace invariant violated: trapezoid trace = {tr!r}, "
                f"must be 1 within {NORM_TOL:g}"
            )

    def trace(self) -> float:
        return float(_trapz(np.diagonal(self.values).real, self.grid))


@dataclass(frozen=True)
class Moments:
    """First and second moments of a state in x and p."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float

    @property
    def uncertainty_product(self) -> float:
        return float(np.sqrt(self.var_x * self.var_p))


# ---------------------------------------------------------------------------
# shape, center, and phase closed forms
# ---------------------------------------------------------------------------

def quadrature_shape(sq: SqueezeDynamics, omega: float, t):
    """A(t), B(t) of the 2*omega shape oscillation.

    ``t`` may be a scalar or an array; a scalar gives numpy float64 scalars.
    """
    arg = 2.0 * omega * np.asarray(t, dtype=float) + sq.phi_sq
    return sq.A0 + sq.dA * np.cos(arg), sq.dA * np.sin(arg)


def squeeze_from_initial_variance(D: float, osc: OscillatorConfig) -> SqueezeDynamics:
    """Pure-state squeeze parameters for an initial real Gaussian of x variance D.

    The state starts at a shape extremum, so A(0) = D/sigma_gr^2, B(0) = 0,
    and the pure-state constraint fixes (A0, dA) uniquely with dA >= 0;
    narrow initial states (D < sigma_gr^2) get phi_sq = pi.
    """
    a_init = D / osc.ground_variance
    if not 0.0 < a_init < np.inf:
        raise InvariantError(f"initial variance must be a positive, finite multiple of "
                             f"sigma_gr^2 = {osc.ground_variance}: D={D}")
    A0 = 0.5 * (a_init + 1.0 / a_init)
    dA = 0.5 * abs(a_init - 1.0 / a_init)
    phi_sq = 0.0 if a_init >= 1.0 else np.pi
    return SqueezeDynamics(A0=A0, dA=dA, phi_sq=phi_sq)


def center_state(center: CenterTrajectory, osc: OscillatorConfig, t):
    """Classical center (x_c, p_c) at time(s) t; a scalar t gives numpy float64 scalars."""
    omega = osc.angular_frequency
    arg = omega * np.asarray(t, dtype=float) + center.phi_c
    return center.X_amp * np.cos(arg), -osc.mass * omega * center.X_amp * np.sin(arg)


def _vacuum_phase(sq: SqueezeDynamics, omega: float, t):
    """Continuous phase of the zero-center state, phi(0) on the principal branch.

    The textbook form is (1/2)*atan[(A0-dA)*tan(omega*t + phi_sq/2)] with a
    branch constant that grows by pi/2 at every tangent singularity.  The
    equivalent smooth expression used here,

        atan(c*tan(theta)) + k*pi = theta + atan((c-1)*sin(theta)*cos(theta)
                                                / (cos(theta)^2 + c*sin(theta)^2)),

    has no singularities (the denominator is >= min(1, c) > 0), so no branch
    counting is needed and starts at phi_sq = n*pi are well conditioned.
    """
    c = sq.A0 - sq.dA
    theta = omega * np.asarray(t, dtype=float) + 0.5 * sq.phi_sq
    theta0 = 0.5 * sq.phi_sq

    def unwrapped(th):
        s, co = np.sin(th), np.cos(th)
        return th + np.arctan((c - 1.0) * s * co / (co * co + c * s * s))

    # Pin phi(0) to the principal-branch value of the textbook form.
    phi0 = 0.5 * np.arctan(c * np.tan(theta0))
    return 0.5 * unwrapped(theta) - 0.5 * unwrapped(theta0) + phi0


def _center_phase(center: CenterTrajectory, osc: OscillatorConfig, t):
    """Closed-form integral (m omega^2 / 2 hbar) * int_0^t (X_amp^2 - 2 x_c^2) dt'.

    The integrand is -X_amp^2 cos(2(omega t' + phi_c)), so the contribution is
    bounded; with the phase-space center on its classical orbit this is what
    the x^0 component of the Schroedinger equation demands (the residual
    diagnostic below certifies it numerically).
    """
    omega = osc.angular_frequency
    t = np.asarray(t, dtype=float)
    X2 = center.X_amp**2
    integral = -X2 * (np.sin(2.0 * (omega * t + center.phi_c))
                      - np.sin(2.0 * center.phi_c)) / (2.0 * omega)
    return osc.mass * omega**2 / (2.0 * osc.hbar) * integral


def accumulated_phase(sq: SqueezeDynamics, center: CenterTrajectory,
                      osc: OscillatorConfig, t):
    """Accumulated global phase phi(t) of a pure state; a scalar t gives a numpy float64.

    Only defined for pure parameter sets; the center contribution starts
    at 0 and the zero-center part starts on the principal branch.
    """
    _require_pure(sq, "accumulated phase")
    return _vacuum_phase(sq, osc.angular_frequency, t) + _center_phase(center, osc, t)


# ---------------------------------------------------------------------------
# state evaluation
# ---------------------------------------------------------------------------

def _require_pure(spec, what: str) -> None:
    """Raise unless ``spec`` (anything with ``is_pure`` and ``purity_product``) is pure."""
    if not spec.is_pure:
        raise InvariantError(
            f"{what} requires a pure state (P = 1): P = {spec.purity_product!r}"
        )


def _pure_psi(spec: GaussianStateSpec, x: np.ndarray, t: float) -> np.ndarray:
    """Raw wavefunction values on ``x`` (no sample validation)."""
    osc = spec.osc
    s2 = osc.ground_variance
    A, B = quadrature_shape(spec.squeeze, osc.angular_frequency, t)
    x_c, p_c = center_state(spec.center, osc, t)
    phi = accumulated_phase(spec.squeeze, spec.center, osc, t)
    u = x - x_c
    return ((2.0 * np.pi * s2 * A) ** -0.25
            * np.exp(-u * u * (1.0 + 1j * B) / (4.0 * s2 * A))
            * np.exp(1j * (p_c * x / osc.hbar - phi)))


def eval_pure_wavefunction(spec: GaussianStateSpec, grid: GridSpec, t: float) -> WavefunctionSample:
    """Sample the closed-form pure wavefunction on ``grid`` at time ``t``."""
    _require_pure(spec, "wavefunction evaluation")
    grid.require_coverage(spec)
    return WavefunctionSample(grid=grid, values=_pure_psi(spec, grid.points(), t), time=t)


def _gaussian_density(spec: GaussianStateSpec, grid: GridSpec, t: float,
                      P: float) -> DensityMatrixSample:
    """Gaussian density matrix in factored form, P multiplying the separation Gaussian.

    The factors separate the mean coordinate sum s = (x+x')/2 - x_c and the
    separation d = x - x'; P = 1 is the pure state psi(x) psi*(x'), whose
    global phase cancels.  The matrix is filled one tile of rows at a time.

    The exponent -(s^2 + P d^2/4)/c1 - i B s d/c1 + i p_c d/hbar, c1 = 2 sigma_gr^2 A, is
    written in real arithmetic bit for bit as numpy's complex expression: that multiplies by
    1/c1 to divide by the real-valued complex c1, its products add only zeros to these parts,
    and its imaginary sum (0 - ...) + ... is never -0, so no zero's sign (B = -0.0) counts.
    """
    _require_points(grid.n_points)
    grid.require_coverage(spec)
    osc = spec.osc
    s2 = osc.ground_variance
    A, B = quadrature_shape(spec.squeeze, osc.angular_frequency, t)
    x_c, p_c = center_state(spec.center, osc, t)
    c1 = 2.0 * s2 * A
    x = grid.points()
    rho = _own_pages(x.size)
    for rows in _tiles(x.size, x.size, TILE_VALUES):
        xi = x[rows, None]
        s = 0.5 * (xi + x) - x_c
        d = xi - x
        tile = rho[rows]
        tile.real = -(s * s + 0.25 * P * d * d) / c1
        tile.imag = (0.0 - (B * s) * d * (1.0 / c1)) + (p_c * d) * (1.0 / osc.hbar)
        np.exp(tile, out=tile)
        tile /= np.sqrt(2.0 * np.pi * s2 * A)
    return DensityMatrixSample(grid=grid, values=rho, time=t)


def eval_pure_density(spec: GaussianStateSpec, grid: GridSpec, t: float) -> DensityMatrixSample:
    """Pure density matrix rho(x,x') = psi(x) psi*(x') in factored form."""
    _require_pure(spec, "pure density evaluation")
    return _gaussian_density(spec, grid, t, 1.0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _spectral_derivatives(values: np.ndarray, grid: GridSpec) -> tuple:
    """(f', f'') along axis 0 of the periodic extension of ``values``, from one forward transform."""
    ik = (1j * grid.wavenumbers()).reshape((-1,) + (1,) * (values.ndim - 1))
    values_k = np.fft.fft(values, axis=0)
    return np.fft.ifft(ik * values_k, axis=0), np.fft.ifft(ik ** 2 * values_k, axis=0)


def _diagonals(sample) -> tuple:
    """rho(x, x), d/dx rho(x, x') and d^2/dx^2 rho(x, x') at x' = x; derivatives are spectral."""
    if isinstance(sample, WavefunctionSample):
        psi = sample.values
        d1, d2 = _spectral_derivatives(psi, sample.grid)
        return np.abs(psi) ** 2, d1 * np.conj(psi), d2 * np.conj(psi)
    if isinstance(sample, DensityMatrixSample):
        rho = sample.values
        n = rho.shape[0]
        d1_diag, d2_diag = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        # column c of a Hermitian rho is conj(row c), so its columns are read as contiguous
        # tiles of conjugated rows; only the entries (j + c, c) on rho's diagonal are kept
        for cols in _tiles(n, n, TILE_VALUES):
            d1, d2 = _spectral_derivatives(rho[cols].conj().T, sample.grid)
            d1_diag[cols] = np.diagonal(d1[cols.start:])
            d2_diag[cols] = np.diagonal(d2[cols.start:])
        return np.diagonal(rho).real, d1_diag, d2_diag
    raise TypeError(
        f"moments expects a WavefunctionSample or DensityMatrixSample, got {type(sample)!r}")


def moments(sample, osc: OscillatorConfig) -> Moments:
    """Grid-quadrature moments of a wavefunction or density-matrix sample.

    One trapezoid quadrature over the three diagonals of ``_diagonals``; a sample is
    normalized when it is built, so the input is trusted.
    """
    diag, d1_diag, d2_diag = _diagonals(sample)
    grid, hbar = sample.grid, osc.hbar
    x = grid.points()
    mean_x = float(_trapz(x * diag, grid))
    var_x = float(_trapz((x - mean_x) ** 2 * diag, grid))
    mean_p = float(_trapz((-1j * hbar * d1_diag).real, grid))
    mean_p2 = float(_trapz((-(hbar**2) * d2_diag).real, grid))
    # symmetrized covariance: Re Tr[(x - <x>)(p - <p>) rho]
    cov_xp = float(_trapz(((x - mean_x) * (-1j * hbar) * d1_diag).real, grid))
    mom = Moments(mean_x, mean_p, var_x, mean_p2 - mean_p**2, cov_xp)
    if not (mom.var_x > 0.0 and mom.var_p > 0.0):
        raise InvariantError(
            f"moment invariant var_x, var_p > 0 violated: var_x={mom.var_x!r}, "
            f"var_p={mom.var_p!r}; the grid likely under-resolves the state"
        )
    if mom.uncertainty_product < 0.5 * osc.hbar * (1.0 - 1e-6):
        raise InvariantError(
            "moment invariant sigma_x sigma_p >= hbar/2 violated: "
            f"product={mom.uncertainty_product!r}"
        )
    return mom


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def ode_residuals(sq: SqueezeDynamics, osc: OscillatorConfig, t):
    """Finite-difference residuals of the three defining ODEs, normalized by omega.

    r1:  dA/dt + 2 omega B = 0
    r2:  B dA/dt - A dB/dt - omega (1 - B^2 - A^2) = 0   (fails unless P = 1)
    r3:  dphi/dt - omega / (2 A) = 0

    r3 uses the zero-center closed-form phase without the purity gate, so the
    residual is meaningful as a negative control for non-pure parameter sets.
    A scalar t gives numpy float64 scalars.
    """
    return tuple(np.abs(sum(terms)) / osc.angular_frequency
                 for terms in _ode_terms(sq, osc, t))


def _ode_terms(sq: SqueezeDynamics, osc: OscillatorConfig, t) -> tuple:
    """The terms of r1, r2 and r3 of ``ode_residuals``, one tuple per equation; the
    derivatives are central differences of the closed forms."""
    omega = osc.angular_frequency
    dt_fd = FD_STEP / omega
    t = np.asarray(t, dtype=float)
    A, B = quadrature_shape(sq, omega, t)
    Ap, Bp = quadrature_shape(sq, omega, t + dt_fd)
    Am, Bm = quadrature_shape(sq, omega, t - dt_fd)
    A_dot = (Ap - Am) / (2.0 * dt_fd)
    B_dot = (Bp - Bm) / (2.0 * dt_fd)
    phi_dot = (_vacuum_phase(sq, omega, t + dt_fd)
               - _vacuum_phase(sq, omega, t - dt_fd)) / (2.0 * dt_fd)
    return ((A_dot, 2.0 * omega * B),
            (B * A_dot, -A * B_dot, -omega * (1.0 - B ** 2 - A ** 2)),
            (phi_dot, -omega / (2.0 * A)))


def schrodinger_residual(spec: GaussianStateSpec, grid: GridSpec, t: float) -> float:
    """Relative L2 residual of the Schroedinger equation on the analytic state.

    The time derivative is a central difference of the closed form; the
    spatial derivative is spectral.  Certifies that the closed-form state
    solves i hbar dpsi/dt = -(hbar^2/2m) psi'' + (1/2) m omega^2 x^2 psi.
    """
    _require_pure(spec, "Schroedinger residual")
    grid.require_coverage(spec)
    osc = spec.osc
    dt_fd = FD_STEP / osc.angular_frequency
    x = grid.points()
    psi = _pure_psi(spec, x, t)
    dpsi_dt = (_pure_psi(spec, x, t + dt_fd) - _pure_psi(spec, x, t - dt_fd)) / (2.0 * dt_fd)
    _, d2psi = _spectral_derivatives(psi, grid)
    h_psi = (-osc.hbar**2 / (2.0 * osc.mass) * d2psi
             + 0.5 * osc.mass * osc.angular_frequency**2 * x**2 * psi)
    # scale both vectors to unit peak so the squares in the norms cannot overflow
    scale = np.abs(h_psi).max()
    num = np.linalg.norm((1j * osc.hbar * dpsi_dt - h_psi) / scale)
    den = np.linalg.norm(h_psi / scale)
    return float(num / den)
