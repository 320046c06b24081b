"""Seeded scenario configs for the two benchmark workloads.

The workload seed draws the physical parameters of the generated scenarios;
the program only ever sees the config document written here.  Every
generated scenario stays inside the parameter ranges where all of its
verification checks pass:

* the zero-center Cayley scenario keeps A0 = 1.25, dA = 0.75 (a displaced
  center or a wider squeeze hits the FD3 discretisation floor at n = 1024);
* the mixed scenario keeps sigma_a <= 0.9 sigma_gr.  The 32-node
  Gauss-Hermite rule's node-doubling drift, scanned over the other
  parameters, peaks at 5e-10 there and at 1.1e-8 (a FAIL against 1e-8) at
  1 sigma_gr; 2 sigma_gr is tier-1's known-red case.
* the mixed scenario keeps phi_sq in [0, pi/2], so the ensemble probes at
  t = 0 and T/2 see the base state at least as wide as its mean.  Near
  phi_sq = pi they see it at its narrowest: the member columns underflow
  into subnormal numbers and ``verify`` runs up to 1.8x slower.  That is a
  real cost of the program, but drawing it from the seed would swamp the
  run-to-run spread the benchmark must stay within.

Bundled scenarios are read verbatim from the repository's ``scenarios/``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Oscillator defaults (hbar = m = omega = 1): period and ground-state width.
PERIOD = 2.0 * math.pi
SIGMA_GR = math.sqrt(0.5)
# Grid half-width in maximal standard deviations, as GridSpec.for_state uses.
GRID_MARGIN = 12.0

WORKLOADS = {
    "pure_dynamics": "two pure scenarios through the thread pool: N x N pure density rows, "
                     "FFT moments and both propagators; no mixing",
    "mixed_ensemble": "two mixed scenarios through the thread pool: Gauss-Hermite ensemble with "
                      "its node-doubling guard, 1e5-sample Monte Carlo and density dumps; "
                      "no propagation",
}


def _evenly_spaced(count: int) -> list:
    return [k * PERIOD / count for k in range(count)]


def _symmetric_grid(radius: float, n_points: int) -> dict:
    return {"x_min": -radius, "x_max": radius, "n_points": n_points}


def _cayley_pure(rng: random.Random) -> dict:
    A0, dA = 1.25, 0.75
    radius = GRID_MARGIN * math.sqrt(SIGMA_GR**2 * (A0 + dA))
    return {
        "name": "squeezed_cayley",
        "squeeze": {"A0": A0, "dA": dA, "phi_sq": rng.uniform(0.0, 2.0 * math.pi)},
        "center": {"X_amp": 0.0, "phi_c": 0.0},
        "grid": _symmetric_grid(radius, 1024),
        "propagator": {"scheme": "implicit-unitary", "dt": PERIOD / 8192.0},
        "sample_times": _evenly_spaced(16),
        "outputs": ["timeseries", "wavefunction", "verify"],
    }


def _displaced_mixed(rng: random.Random) -> dict:
    """Pure squeezed base (A0 = 1.5) with a displaced center and a classical spread."""
    A0 = 1.5
    dA = math.sqrt(A0 * A0 - 1.0)  # (A0 + dA)(A0 - dA) = 1: the base is pure
    sigma_a = rng.uniform(0.5, 0.9) * SIGMA_GR
    X_amp = rng.uniform(0.5, 2.0) * SIGMA_GR
    A0_mixed = A0 + sigma_a**2 / SIGMA_GR**2
    radius = X_amp + GRID_MARGIN * math.sqrt(SIGMA_GR**2 * (A0_mixed + dA))
    return {
        "name": "displaced_mixed",
        "squeeze": {"A0": A0, "dA": dA, "phi_sq": rng.uniform(0.0, 0.5 * math.pi)},
        "center": {"X_amp": X_amp, "phi_c": rng.uniform(0.0, 2.0 * math.pi)},
        "sigma_a": sigma_a,
        "grid": _symmetric_grid(radius, 256),
        "sample_times": _evenly_spaced(64),
        "outputs": ["timeseries", "density", "verify"],
        "ensemble_nodes": 32,
        "mc_check": True,
    }


def make_config(workload: str, seed: int, root: Path) -> dict:
    """The config document for ``workload``; the same seed gives the same document."""
    rng = random.Random(f"{workload}:{seed}")
    bundled = root / "scenarios"
    if workload == "pure_dynamics":
        scenarios = [json.loads((bundled / "squeezed_vacuum.json").read_text()),
                     _cayley_pure(rng)]
    elif workload == "mixed_ensemble":
        scenarios = [json.loads((bundled / "mixed_p4.json").read_text()),
                     _displaced_mixed(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    return {"scenarios": scenarios}


def scenario_names(config: dict) -> list:
    return [sc["name"] for sc in config.get("scenarios", [config])]
