"""Independent numerical propagation and grid-quadrature probes.

Two deliberately different discretizations of

    i hbar dpsi/dt = -(hbar^2/2m) psi'' + (1/2) m omega^2 x^2 psi

are provided so no verification ever leans on a single scheme's bias:

* ``implicit-unitary``: Cayley form (1 + i dt H / 2 hbar)^-1 (1 - i dt H / 2 hbar)
  with a three-point finite-difference Laplacian and vanishing Dirichlet
  boundaries.  Exactly norm-preserving in the discrete l2 inner product,
  second order in time.  The tridiagonal (1 + i dt H / 2 hbar) is factored
  once (LAPACK zgttrf); each step is one zgttrs solve.

* ``spectral-split-step``: symmetric kick-drift-kick Strang splitting with the
  kinetic factor applied exactly in Fourier space (periodic extension).
  Spectrally accurate in space, second order in time.

Both keep the state away from the grid edges; amplitude above 1e-8 at an
edge aborts the run rather than silently wrapping or reflecting.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import BoundaryError, GridMismatchError, InvariantError
from .states import (
    EDGE_START_TOL,
    DensityMatrixSample,
    GridSpec,
    OscillatorConfig,
    WavefunctionSample,
    _trapz,
    moments,
)

__all__ = [
    "PropagatorConfig",
    "propagate",
    "fidelity",
    "purity",
    "energy_expectation",
]

SCHEMES = ("implicit-unitary", "spectral-split-step")

# Per-step contamination guard.
EDGE_GUARD = 1e-8
# Most steps a trajectory or one propagate call may take: 128 periods at dt = T/8192,
# the default step.
MAX_STEPS = 2**20


@dataclass(frozen=True)
class PropagatorConfig:
    """Time-stepping scheme selection: which scheme, step size, step count."""

    scheme: str = "spectral-split-step"
    _: KW_ONLY
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvariantError(
                f"unknown propagation scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if not self.dt > 0:
            raise InvariantError(f"propagator invariant dt > 0 violated: dt={self.dt}")
        if self.n_steps < 1:
            raise InvariantError(f"propagator invariant n_steps >= 1 violated: n_steps={self.n_steps}")
        if self.n_steps > MAX_STEPS:
            raise InvariantError(f"propagator invariant n_steps <= {MAX_STEPS} violated: "
                                 f"n_steps={self.n_steps}")


def _step(t: float, dt: float) -> int:
    """The step nearest to time ``t`` on the clock of a trajectory stepped from t = 0 by ``dt``."""
    steps = t / dt
    if not math.isfinite(steps):
        raise InvariantError(f"time t={t!r} is on no step of dt={dt!r}")
    return round(steps)


def _sample_steps(times: tuple, dt: float) -> tuple:
    """The step of each of the strictly increasing sample ``times`` on the clock of a trajectory
    stepped from t = 0 by ``dt``, 0 for t = 0.  The one judge of whether it resolves them: it
    refuses more than MAX_STEPS steps to the last time, a negative time, a positive time on
    step 0 or on an earlier time's step, and no positive time."""
    if not times[-1] / dt <= MAX_STEPS:
        raise InvariantError(f"propagator dt={dt!r} needs {times[-1] / dt:.3g} steps to reach "
                             f"t={times[-1]!r}, more than {MAX_STEPS}")
    steps = tuple(_step(t, dt) if t > 0 else 0 for t in times)
    if times[0] < 0 or any(t > 0 and b <= a for t, a, b in zip(times, (0,) + steps, steps)):
        raise InvariantError(f"a trajectory stepped from t = 0 by dt={dt!r} does not resolve "
                             "sample_times: each time must be >= 0 and each positive one land "
                             "on its own step round(t/dt) >= 1")
    if not times[-1] > 0:  # else a fidelity would compare psi(0) with itself
        raise InvariantError("a stepped trajectory needs a positive sample time")
    return steps


def _potential(grid: GridSpec, osc: OscillatorConfig) -> np.ndarray:
    x = grid.points()
    return 0.5 * osc.mass * osc.angular_frequency**2 * x * x


def _fd3_hamiltonian(grid: GridSpec, osc: OscillatorConfig):
    """(diagonal, off-diagonal) of H with the three-point Laplacian and Dirichlet edges."""
    h = grid.spacing
    kin = osc.hbar**2 / (2.0 * osc.mass * h * h)
    return 2.0 * kin + _potential(grid, osc), -kin


class _Propagated(WavefunctionSample):
    """A state ``propagate`` returned: already held to the per-step edge guard."""


def _check_edges(psi: np.ndarray, threshold: float, scheme: str = "",
                 step: int | None = None) -> None:
    """Raise BoundaryError unless |psi| <= threshold at both edges (NaN fails); psi0 has no step."""
    lo, hi = abs(psi[0]), abs(psi[-1])
    if not (lo <= threshold and hi <= threshold):
        where = "in the initial state" if step is None else f"at {scheme} step {step}"
        raise BoundaryError(
            f"boundary contamination {where}: edge amplitude {np.maximum(lo, hi):.3e} "
            f"exceeds {threshold:g}; enlarge the grid"
        )


def _propagate_split_step(psi: np.ndarray, grid: GridSpec, osc: OscillatorConfig,
                          dt: float, n_steps: int, start: int) -> np.ndarray:
    k = grid.wavenumbers()
    v = _potential(grid, osc)
    half_kick = np.exp(-0.5j * v * dt / osc.hbar)
    drift = np.exp(-0.5j * osc.hbar * k * k * dt / osc.mass)
    full_kick = half_kick * half_kick

    psi = half_kick * psi
    for step in range(n_steps):
        psi = np.fft.ifft(drift * np.fft.fft(psi))
        _check_edges(psi, EDGE_GUARD, "split", start + step + 1)
        if step != n_steps - 1:
            psi = full_kick * psi
    return half_kick * psi


def _propagate_cayley(psi: np.ndarray, grid: GridSpec, osc: OscillatorConfig,
                      dt: float, n_steps: int, start: int) -> np.ndarray:
    # scipy.linalg costs ~0.35 s to import and only this scheme needs it
    from scipy.linalg import lapack

    diag, off = _fd3_hamiltonian(grid, osc)
    lam = 0.5j * dt / osc.hbar

    # (1 + lam H) is the same tridiagonal matrix at every step: factor it once
    lam_off = lam * off
    lam_offs = np.full(grid.n_points - 1, lam_off)
    *lu, info = lapack.zgttrf(lam_offs, 1.0 + lam * diag, lam_offs)
    if info:
        raise InvariantError(f"implicit step matrix 1 + lam H is singular: zgttrf info = {info}")
    explicit_diag = 1.0 - lam * diag

    for step in range(n_steps):
        # rhs = (1 - lam H) psi, tridiagonal matvec
        rhs = explicit_diag * psi
        rhs[:-1] -= lam_off * psi[1:]
        rhs[1:] -= lam_off * psi[:-1]
        psi, info = lapack.zgttrs(*lu, rhs, overwrite_b=1)
        if info:
            raise InvariantError(f"implicit step {start + step + 1}: zgttrs info = {info}")
        _check_edges(psi, EDGE_GUARD, "implicit", start + step + 1)
    return psi


def propagate(psi0: WavefunctionSample, osc: OscillatorConfig,
              cfg: PropagatorConfig) -> WavefunctionSample:
    """Propagate ``psi0`` by n_steps * dt under the oscillator Hamiltonian.

    The initial state must effectively vanish at the grid edges
    (|psi| < 1e-12); a BoundaryError is raised if any step pushes edge
    amplitude above 1e-8.  A state returned by ``propagate`` continues
    under the per-step guard alone, so a trajectory's verdict does not
    depend on how many calls it is split into.  Nor does an error message:
    it counts steps on the trajectory's clock, the one ending at time t
    being step round(t / dt).
    """
    if not isinstance(psi0, _Propagated):
        _check_edges(psi0.values, EDGE_START_TOL)
    start = _step(psi0.time, cfg.dt)
    if cfg.scheme == "spectral-split-step":
        values = _propagate_split_step(psi0.values, psi0.grid, osc, cfg.dt, cfg.n_steps, start)
    else:
        values = _propagate_cayley(psi0.values, psi0.grid, osc, cfg.dt, cfg.n_steps, start)
    return _Propagated(grid=psi0.grid, values=values, time=psi0.time + cfg.n_steps * cfg.dt)


def fidelity(psi_a: WavefunctionSample, psi_b: WavefunctionSample) -> float:
    """|int psi_a* psi_b dx|^2 by trapezoid rule; symmetric, phase-invariant."""
    ga, gb = psi_a.grid, psi_b.grid
    if (ga.x_min, ga.x_max, ga.n_points) != (gb.x_min, gb.x_max, gb.n_points):
        raise GridMismatchError(
            "fidelity requires both samples on the same grid: "
            f"[{ga.x_min}, {ga.x_max}] n={ga.n_points} vs [{gb.x_min}, {gb.x_max}] n={gb.n_points}"
        )
    overlap = _trapz(np.conj(psi_a.values) * psi_b.values, ga)
    return float(np.abs(overlap) ** 2)


def purity(dm: DensityMatrixSample) -> float:
    """Tr rho^2 by double trapezoid quadrature; equals 1/sqrt(P) for Gaussian states."""
    w = dm.grid.trapezoid_weights()
    rho = dm.values
    return float(np.einsum("i,ij,ji,j->", w, rho, rho, w).real)


def energy_expectation(wf: WavefunctionSample, osc: OscillatorConfig,
                       kinetic: str = "spectral") -> float:
    """<H> of a sampled wavefunction.

    ``kinetic="spectral"`` is <p^2>/2m + m omega^2 <x^2>/2 from ``moments`` (the
    split-step scheme's Hamiltonian); ``kinetic="fd3"`` uses the three-point
    Laplacian quadratic form that the implicit-unitary scheme conserves exactly.
    No CLI path calls it; it is public as the reference that the tests hold
    both propagators against, each by the Hamiltonian it conserves.
    """
    if kinetic == "spectral":
        m = moments(wf, osc)
        return ((m.var_p + m.mean_p**2) / (2.0 * osc.mass)
                + 0.5 * osc.mass * osc.angular_frequency**2 * (m.var_x + m.mean_x**2))
    if kinetic == "fd3":
        psi = wf.values
        # plain l2 form h <psi|H|psi>: the quantity the Cayley scheme conserves
        diag, off = _fd3_hamiltonian(wf.grid, osc)
        h_psi = diag * psi
        h_psi[:-1] += off * psi[1:]
        h_psi[1:] += off * psi[:-1]
        return float(np.vdot(psi, h_psi).real * wf.grid.spacing)
    raise InvariantError(f"unknown kinetic evaluation {kinetic!r}")
