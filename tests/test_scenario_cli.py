"""Scenario parsing, product files, verification report, CLI exit codes."""

import copy
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

import squeezedx as sx
from squeezedx import cli, mixing, scenario, states
from squeezedx.oracle import SCHEMES
from squeezedx.scenario import (
    density_at,
    parse_config,
    read_density_dump,
    run_scenario,
    verify_scenario,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

FAST_PURE = {
    "name": "fast_pure",
    "squeeze": {"initial_variance_D": 1.0},
    "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 256},
    "propagator": {"dt": 2 * np.pi / 1024},
    "sample_times": [k * 2 * np.pi / 8 for k in range(8)],
    "outputs": ["timeseries", "verify"],
}

FAST_MIXED = {
    "name": "fast_mixed",
    "squeeze": {"A0": 1.0},
    "sigma_a": float(np.sqrt(0.5)),
    "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 128},
    "sample_times": [0.0, 0.7, 1.9],
    "outputs": ["timeseries", "density", "verify"],
}


# SHA-256 of the ground_state products; perfbench/digests.json pins the other bundled scenarios.
GROUND_STATE_DIGESTS = {
    "ground_state_timeseries.csv": "ce0d1d70be76e978bfaeb9202c47e0f75dda8634d23ae2c6ad4c9479dda0f9b0",
}

# SHA-256 of the `squeezedx dump-density` file of each bundled scenario at two times, recorded
# before the density build and its derivatives were tiled.
DENSITY_DUMP_DIGESTS = {
    ("ground_state", "0.25"): "2d360afc4b1b33caf3236c1ce9dd651c01209921a8bd514668166bb941297cda",
    ("ground_state", "6.1850105367549055"):
        "70685b83935a47b1e694903c2df238dd15844b8da7cfd7c155c35eccb3eacaf7",
    ("squeezed_vacuum", "0.25"): "32c7dd464156c7d30f5ffdea9f7289e19c4a30ab20f5807c71796a43b3882a92",
    ("squeezed_vacuum", "6.1850105367549055"):
        "625ac081354b37a1b58b958bda76c36c5a54359e7094e3a94ad677ec69d58595",
    ("mixed_p4", "0.25"): "d565cc63d8a42548345d61300c8c7fb36a12dac57b1f29d1ec4a7b39de0d0586",
    ("mixed_p4", "6.1850105367549055"):
        "a9da6630a8eec268c33e72d4b562eb0c943ba478730fbd315624c0d586b6d5dc",
}

# A displaced pure state with m, omega and hbar all distinct and none 1, and the same state
# mixed, on their automatic grids; each verify takes well under a second
DISPLACED_UNITS = {
    "name": "displaced_units", "oscillator": {"mass": 2.0, "angular_frequency": 3.0, "hbar": 0.5},
    "squeeze": {"A0": 1.25, "dA": 0.75, "phi_sq": 0.4}, "center": {"X_amp": 0.5, "phi_c": 0.3},
    "sample_times": [k * 2 * np.pi / 24 for k in range(9)], "outputs": ["verify"]}
DISPLACED_IN_OTHER_UNITS = {config["name"]: config for config in (
    DISPLACED_UNITS, dict(DISPLACED_UNITS, name="displaced_mixed_units", sigma_a=0.1))}

# The check lines `squeezedx verify` prints for each bundled scenario, as recorded before the
# wavefunction and density moments were merged into one quadrature; squeezed_vacuum's
# ode-residuals value since each residual is read in units of its equation's largest term.
# Then those of DISPLACED_IN_OTHER_UNITS.
VERIFY_LINES = {
    "ground_state": [
        "[ground_state] ode-residuals: PASS (max residual = 6.989e-11, tol 1e-06, margin 9.999e-07)",
        "[ground_state] schrodinger-residual: PASS (max residual = 1.662e-10, tol 1e-05, margin 1.000e-05)",
        "[ground_state] variance-law: PASS (max rel |var_x - sigma_gr^2 A| = 4.441e-16, tol 1e-08, "
        "margin 1.000e-08)",
        "[ground_state] phase-law: PASS (max |dphi - pi/2| = 4.441e-16, tol 1e-09, margin 1.000e-09)",
        "[ground_state] ground-phase: PASS (max |phi - phi(0) - omega t / 2| = 0.000e+00, tol 1e-12, "
        "margin 1.000e-12)",
        "[ground_state] propagation-fidelity: PASS (max |1 - fidelity| at t > 0 = 6.843e-13, "
        "tol 1e-06, margin 1.000e-06)",
    ],
    "squeezed_vacuum": [
        "[squeezed_vacuum] ode-residuals: PASS (max residual = 1.650e-10, tol 1e-06, margin 9.998e-07)",
        "[squeezed_vacuum] schrodinger-residual: PASS (max residual = 2.562e-10, tol 1e-05, "
        "margin 1.000e-05)",
        "[squeezed_vacuum] variance-law: PASS (max rel |var_x - sigma_gr^2 A| = 4.771e-16, tol 1e-08, "
        "margin 1.000e-08)",
        "[squeezed_vacuum] phase-law: PASS (max |dphi - pi/2| = 8.882e-16, tol 1e-09, margin 1.000e-09)",
        # every propagated fidelity here exceeds 1, so the check takes |1 - F|
        "[squeezed_vacuum] propagation-fidelity: PASS (max |1 - fidelity| at t > 0 = 1.534e-12, "
        "tol 1e-06, margin 1.000e-06)",
    ],
    "mixed_p4": [
        "[mixed_p4] purity-law: PASS (max |purity - P^-1/2| = 1.832e-15, tol 1e-05, margin 1.000e-05)",
        "[mixed_p4] ensemble-agreement: PASS (max peak-relative error at 32 nodes = 2.647e-15, tol 1e-08, "
        "margin 1.000e-08)",
    ],
    "displaced_units": [
        "[displaced_units] ode-residuals: PASS (max residual = 3.194e-10, tol 1e-06, margin 9.997e-07)",
        "[displaced_units] schrodinger-residual: PASS (max residual = 2.187e-10, tol 1e-05, "
        "margin 1.000e-05)",
        "[displaced_units] variance-law: PASS (max rel |var_x - sigma_gr^2 A| = 2.978e-16, tol 1e-08, "
        "margin 1.000e-08)",
        "[displaced_units] propagation-fidelity: PASS (max |1 - fidelity| at t > 0 = 8.349e-13, "
        "tol 1e-06, margin 1.000e-06)",
    ],
    "displaced_mixed_units": [
        "[displaced_mixed_units] purity-law: PASS (max |purity - P^-1/2| = 2.665e-15, tol 1e-05, "
        "margin 1.000e-05)",
        "[displaced_mixed_units] ensemble-agreement: PASS (max peak-relative error at 32 nodes = "
        "1.234e-15, tol 1e-08, margin 1.000e-08)",
    ],
}

# Pure states on their automatic grids far from natural units: an electron in SI units, and
# m = 1e20 with hbar = 1e-20, unsqueezed and squeezed
UNIT_IMAGES = (
    {"name": "electron",
     "oscillator": {"mass": 9.109e-31, "angular_frequency": 1e15, "hbar": 1.0546e-34},
     "squeeze": {"A0": 1.0}, "sample_times": [0.0, 1e-16], "outputs": ["verify"]},
    {"name": "heavy", "oscillator": {"mass": 1e20, "hbar": 1e-20}, "squeeze": {"A0": 1.0},
     "sample_times": [0.0, 1.0], "outputs": ["verify"]},
    {"name": "heavy_squeezed", "oscillator": {"mass": 1e20, "hbar": 1e-20},
     "squeeze": {"A0": 1.25, "dA": 0.75, "phi_sq": 0.4}, "center": {"X_amp": 1e-20},
     "outputs": ["verify"]},
)

CHECK_LINE = re.compile(r"^\[\S+\] \S+: (PASS|FAIL) \(.+ = \S+, tol \S+, margin \S+\)$")


def parse_one(obj):
    return parse_config(json.dumps(obj))[0]


def child_env():
    """os.environ with the checkout's absolute ``src`` ahead of PYTHONPATH.

    A child run in tmp_path would resolve a relative PYTHONPATH such as
    "src" to nothing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_public_names():
    # the package lists no names itself: they come from the modules' __all__
    assert sx.__all__ == [
        "BoundaryError", "CenterTrajectory", "ConvergenceError", "CoverageError",
        "DensityMatrixSample", "GaussianStateSpec", "GridMismatchError", "GridSpec",
        "InvariantError", "MixedGaussianSpec", "Moments", "OscillatorConfig", "ParseError",
        "PropagatorConfig", "SqueezeDynamics", "SqueezedXError", "WavefunctionSample",
        "accumulated_phase", "center_state", "energy_expectation", "ensemble_average_density",
        "eval_mixed_density", "eval_pure_density", "eval_pure_wavefunction", "fidelity",
        "gaussian_identity_exponential", "gaussian_identity_shifted", "moments",
        "ode_residuals", "propagate", "purity", "quadrature_shape", "reparameterize",
        "schrodinger_residual", "squeeze_from_initial_variance",
    ]
    for name in sx.__all__:
        assert getattr(sx, name).__name__ == name


@pytest.mark.parametrize("module", ["errors", "states", "oracle", "mixing", "scenario"])
def test_modules_list_their_public_names(module):
    mod = importlib.import_module(f"squeezedx.{module}")
    defined = {name for name, obj in vars(mod).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__ and not name.startswith("_")}
    assert defined <= set(mod.__all__)


ALIASING = r"^scenario 'm'\.grid: grid x_min=.* resolves momenta up to pi hbar/h = "


class TestParsing:
    def test_minimal_scenario(self):
        sc = parse_one({"name": "m", "squeeze": {"A0": 1.0}, "outputs": ["verify"]})
        assert sc.osc.ground_variance == 0.5
        assert sc.osc == sx.OscillatorConfig()
        assert sc.spec.center == sx.CenterTrajectory()
        assert sc.spec.squeeze.dA == sc.spec.squeeze.phi_sq == 0.0
        assert len(sc.sample_times) == 64
        assert not sc.is_mixed

    def test_scenario_list(self):
        doc = {"scenarios": [FAST_PURE, FAST_MIXED]}
        scs = parse_config(json.dumps(doc))
        assert [s.name for s in scs] == ["fast_pure", "fast_mixed"]

    def test_unknown_key_rejected(self):
        with pytest.raises(sx.ParseError, match="bogus"):
            parse_one({"name": "m", "squeeze": {"A0": 1.0}, "outputs": ["verify"], "bogus": 1})

    @pytest.mark.parametrize("section", ["oscillator", "squeeze", "center", "grid"])
    def test_unknown_nested_key_rejected(self, section):
        obj = {"name": "m", "squeeze": {"A0": 1.0}, "outputs": ["verify"],
               "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 256}}
        obj[section] = {**obj.get(section, {}), "extra": 2.0}
        with pytest.raises(sx.ParseError, match=rf"unknown key\(s\) in scenario 'm'\.{section}: "
                                                r"\['extra'\]"):
            parse_one(obj)

    def test_missing_required_key(self):
        with pytest.raises(sx.ParseError, match="missing required"):
            parse_one({"name": "m", "outputs": ["verify"]})

    def test_grid_missing_n_points(self):
        with pytest.raises(sx.ParseError, match=r"missing required key\(s\) in scenario 'm'\.grid: "
                                                r"\['n_points'\]"):
            parse_one({"name": "m", "squeeze": {"A0": 1.0}, "outputs": ["verify"],
                       "grid": {"x_min": -12.0, "x_max": 12.0}})

    def test_bad_json(self):
        with pytest.raises(sx.ParseError, match="not valid JSON"):
            parse_config("{nope")

    def test_wrong_type(self):
        with pytest.raises(sx.ParseError, match="must be a number"):
            parse_one({"name": "m", "squeeze": {"A0": "wide"}, "outputs": ["verify"]})

    def test_unknown_product(self):
        with pytest.raises(sx.ParseError, match="unknown product"):
            parse_one({"name": "m", "squeeze": {"A0": 1.0}, "outputs": ["plot"]})

    def test_invariant_violation_names_invariant(self):
        with pytest.raises(sx.InvariantError, match="A0 > dA"):
            parse_one({"name": "m", "squeeze": {"A0": 0.5, "dA": 0.75}, "outputs": ["verify"]})

    def test_non_monotone_sample_times(self):
        with pytest.raises(sx.InvariantError, match="strictly increasing"):
            parse_one({"name": "m", "squeeze": {"A0": 1.0}, "outputs": ["verify"],
                       "sample_times": [0.0, 1.0, 0.5]})

    def test_duplicate_names_rejected(self):
        doc = {"scenarios": [FAST_MIXED, FAST_MIXED]}
        with pytest.raises(sx.ParseError, match="unique"):
            parse_config(json.dumps(doc))

    def test_grid_must_cover_state(self):
        bad = dict(FAST_PURE, grid={"x_min": -2.0, "x_max": 2.0, "n_points": 64})
        with pytest.raises(sx.CoverageError):
            parse_one(bad)

    @pytest.mark.parametrize("config, judged, error, message", [
        ({"squeeze": {"A0": 1.0}}, 1, None, None),
        ({"squeeze": {"A0": 1.0}, "sigma_a": 0.5}, 1, None, None),
        ({"squeeze": {"A0": 1.0}, "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 256}},
         1, None, None),
        ({"squeeze": {"A0": 1.0}, "sigma_a": 0.5,
          "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 256}}, 1, None, None),
        # pi hbar/h = 4.71 against the momentum support 5.66
        ({"squeeze": {"A0": 1.0}, "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 37}},
         1, sx.CoverageError, ALIASING),
        # about 6e19 points would resolve the momenta, past any count: the grid keeps its 1024
        ({"squeeze": {"A0": 1.0}, "center": {"X_amp": 1e10}}, 1, sx.CoverageError, ALIASING),
        # past any count too, but the phase rule comes first
        ({"squeeze": {"A0": 1}, "center": {"X_amp": 1e300}}, 0, sx.InvariantError,
         r"^scenario 'm': phase m omega X_amp\^2 / hbar = inf is not finite$"),
    ], ids=["automatic-pure", "automatic-mixed", "given-pure", "given-mixed", "given-aliasing",
            "automatic-aliasing", "automatic-overflowing-phase"])
    def test_x_and_momentum_coverage_are_judged_once_per_grid(
            self, monkeypatch, config, judged, error, message):
        checked = []
        real = sx.GridSpec.require_coverage
        monkeypatch.setattr(sx.GridSpec, "require_coverage",
                            lambda grid, spec: checked.append(grid) or real(grid, spec))
        config = dict(config, name="m", outputs=["verify"])
        if error:
            with pytest.raises(error, match=message):
                parse_one(config)
        else:
            assert checked == [parse_one(config).grid]
        assert len(checked) == judged


def old_spacing_ratio(sc):
    """h over the narrowest x std: the x-spacing rule that momentum coverage replaced
    required at most 1."""
    sq = sc.spec.squeeze
    return sc.grid.spacing / math.sqrt(sc.osc.ground_variance * (sq.A0 - sq.dA))


LOG_CONSTANT = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


class TestMomentumCoverage:
    @given(mass=LOG_CONSTANT, omega=LOG_CONSTANT, hbar=LOG_CONSTANT, r=st.floats(1.0, 5.0),
           phi_sq=st.floats(0.0, 2 * np.pi), X=st.floats(0.0, 10.0),
           phi_c=st.floats(0.0, 2 * np.pi), s=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
           left=st.floats(1.001, 3.0), right=st.floats(1.001, 3.0), k=st.floats(0.5, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_a_grid_that_passes_also_passes_the_old_spacing_rule(
            self, mass, omega, hbar, r, phi_sq, X, phi_c, s, left, right, k):
        # a pure base of width ratio r, its center and spread in units of sigma_gr, and a
        # grid around the support radius R with k times the points the momentum rule needs
        sgr = math.sqrt(hbar / (2.0 * mass * omega))
        A0, dA = 0.5 * (r + 1.0 / r), 0.5 * (r - 1.0 / r)
        R = sgr * (X + 8.0 * math.sqrt(A0 + s * s + dA))
        x_min, x_max = -left * R, right * R
        need = 1.0 + (x_max - x_min) * mass * omega * R / (math.pi * hbar)
        bound = states.MAX_DENSITY_POINTS
        try:
            sc = parse_one({
                "name": "p", "oscillator": {"mass": mass, "angular_frequency": omega, "hbar": hbar},
                "squeeze": {"A0": A0, "dA": dA, "phi_sq": phi_sq},
                "center": {"X_amp": X * sgr, "phi_c": phi_c}, "sigma_a": s * sgr,
                "grid": {"x_min": x_min, "x_max": x_max,
                         "n_points": min(bound, max(16, math.ceil(k * need)))},
                "sample_times": [0.0], "outputs": ["density"]})
        except sx.InvariantError as exc:
            assert "resolves momenta" in str(exc)
            return
        ratio = old_spacing_ratio(sc)
        target(ratio)
        assert ratio <= 1.0

    @given(mass=LOG_CONSTANT, omega=LOG_CONSTANT, hbar=LOG_CONSTANT, r=st.floats(1.0, 5.0),
           X=st.floats(0.0, 150.0), s=st.one_of(st.just(0.0), st.floats(0.05, 3.0)))
    @settings(max_examples=200, deadline=None)
    def test_an_automatic_grid_has_the_fewest_points_that_resolve_the_momenta(
            self, mass, omega, hbar, r, X, s):
        # X (in sigma_gr) up to 150 asks for up to about X^2/pi points: past 1024, 256 and 4096
        sgr = math.sqrt(hbar / (2.0 * mass * omega))
        bound = states.MAX_DENSITY_POINTS
        try:
            sc = parse_one({
                "name": "p", "oscillator": {"mass": mass, "angular_frequency": omega, "hbar": hbar},
                "squeeze": {"A0": 0.5 * (r + 1.0 / r), "dA": 0.5 * (r - 1.0 / r)},
                "center": {"X_amp": X * sgr}, "sigma_a": s * sgr,
                "sample_times": [0.0], "outputs": ["density"]})
        except sx.InvariantError as exc:
            # the point bound reports the fewest points that would resolve the momenta
            need = re.fullmatch(rf"scenario 'p'\.grid: n_points=(\d+) exceeds {bound}", str(exc))
            assert need and int(need.group(1)) > bound
            return
        support = mass * omega * float(sc.spec.support_radius())

        def nyquist(n_points):
            return math.pi * hbar / dataclasses.replace(sc.grid, n_points=n_points).spacing

        n, floor = sc.grid.n_points, 256 if s else 1024
        assert floor <= n <= bound
        assert nyquist(n) >= support
        assert n == floor or nyquist(n - 1) < support

    @pytest.mark.parametrize("config, n_points", [
        ({"squeeze": {"A0": 1.0}, "center": {"X_amp": 40.0}}, 1411),
        ({"squeeze": {"A0": 1.0}, "center": {"X_amp": 12.0}, "sigma_a": 0.5}, 271),
    ], ids=["pure", "mixed"])
    def test_an_automatic_grid_grows_past_its_floor_to_resolve_the_momenta(
            self, tmp_path, config, n_points):
        # at its floor of 1024 (pure) or 256 (mixed) points the grid would resolve momenta up to
        # 33.14 or 17.89, below the supports 45.66 and 18.93
        config = dict(config, name="far", outputs=["verify"])
        assert parse_one(config).grid.n_points == n_points
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0

    @pytest.mark.parametrize("config", UNIT_IMAGES, ids=lambda config: config["name"])
    def test_an_automatic_grid_meets_the_propagator_gates_in_any_units(self, tmp_path, config):
        # |psi| peaks near 4.1e4 m^(-1/2) for the electron and 7.5e9 for the heavy states.  Read
        # in absolute units, the electron's edges (9.4e-12) tripped the 1e-12 entry gate, and
        # the heavy states' split-step round-off (7.1e-7 and 1.1e-6) the 1e-8 step guard
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0

    @pytest.mark.parametrize("config", [
        *(json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))),
        FAST_PURE, FAST_MIXED,
        {"name": "nonunit", "oscillator": {"mass": 2.0, "angular_frequency": 1.5, "hbar": 0.7},
         "squeeze": {"A0": 1.5, "dA": 1.25 ** 0.5}, "center": {"X_amp": 0.35}, "sigma_a": 0.2,
         "outputs": ["verify"]},
        *UNIT_IMAGES,
    ], ids=lambda config: config["name"])
    def test_an_automatic_grid_in_any_units_is_the_12_sigma_grid(self, config):
        sc = parse_one({key: value for key, value in config.items() if key != "grid"})
        radius = sc.spec.support_radius(12.0)
        assert (sc.grid.x_min, sc.grid.x_max) == (-radius, radius)

    def test_an_automatic_grid_past_max_grid_points_exit_3_before_any_array(
            self, tmp_path, capsys, monkeypatch):
        built = []
        for name in ("eval_pure_wavefunction", "eval_pure_density", "propagate"):
            monkeypatch.setattr(scenario, name, lambda *args: built.append(args))
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({"name": "far", "squeeze": {"A0": 1.0},
                                   "center": {"X_amp": 150.0}, "outputs": ["verify"]}))
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        # pi hbar/h >= 155.657, the momentum support, needs 15,706 points
        assert capsys.readouterr().err == (
            "invariant violation: scenario 'far'.grid: n_points=15706 exceeds 4096\n")
        assert not built

    @pytest.mark.parametrize("config, message", [
        ({"grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 4097}},
         "scenario 'm'.grid: n_points=4097 exceeds 4096"),
        ({"center": {"X_amp": 72.0}}, "scenario 'm'.grid: n_points=4141 exceeds 4096"),
    ], ids=["given", "automatic"])
    def test_a_mixed_grid_past_max_density_points_exit_3_before_any_array(
            self, tmp_path, capsys, monkeypatch, config, message):
        # a mixed grid has the pure bound; the automatic one needs 4141 points to resolve the
        # momentum support 78.9282
        built = []
        for name in ("eval_mixed_density", "ensemble_average_density", "eval_pure_density"):
            monkeypatch.setattr(scenario, name, lambda *args, **kwargs: built.append(args))
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(config, name="m", squeeze={"A0": 1.0}, sigma_a=0.5,
                                       outputs=["timeseries", "density", "verify"])))
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"invariant violation: {message}\n"
        assert not built

    def test_a_mixed_grid_of_max_density_points_parses(self):
        sc = parse_one({"name": "m", "squeeze": {"A0": 1.0}, "sigma_a": 0.5,
                        "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 4096},
                        "outputs": ["timeseries", "density", "verify"]})
        assert sc.is_mixed and sc.grid.n_points == states.MAX_DENSITY_POINTS == 4096


class TestScenarioRules:
    """Scenario judges its own values however it is built: parsed, replace()d or constructed."""

    @pytest.mark.parametrize("change, message", [
        # round(1e-9/dt) = 0: verify would compare psi(0) with itself and print PASS
        ({"sample_times": (0.0, 1e-9)},
         "scenario 'ground_state': a trajectory stepped from t = 0 by dt=0.0030679615757712823 "
         "does not resolve sample_times"),
        ({"dt": 1e-12}, "scenario 'ground_state': propagator dt=1e-12 needs 5.89e+12 steps"),
        ({"grid": sx.GridSpec(-9.0, 9.0, 65536)},
         "scenario 'ground_state'.grid: n_points=65536 exceeds 4096"),
        ({"ensemble_nodes": 10**6},
         "scenario 'ground_state': ensemble_nodes=1000000 is outside 16..128"),
        # a timeseries of 10**6 times would build 10**6 densities: 2.5 h at 256 points
        ({"sample_times": tuple(range(scenario.MAX_SAMPLE_TIMES + 1))},
         "scenario 'ground_state': 4097 sample_times, more than 4096"),
        # pi hbar/h = 3.32 against the momentum support 5.66
        ({"grid": sx.GridSpec(-9.0, 9.0, 20)},
         "scenario 'ground_state'.grid: grid x_min=-9, x_max=9, n_points=20 resolves momenta up "
         "to"),
    ], ids=["zero-steps", "max-steps", "max-grid-points", "ensemble-nodes", "max-sample-times",
            "nyquist"])
    def test_a_replaced_scenario_is_refused_before_anything_is_allocated(self, change, message):
        sc = parse_config((SCENARIOS / "ground_state.json").read_text())[0]
        tracemalloc.start()
        try:
            with pytest.raises(sx.InvariantError) as caught:
                dataclasses.replace(sc, **change)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value).startswith(message)
        assert peak < 2**16  # one wavefunction on the 65,536-point grid takes 1 MiB

    @pytest.mark.parametrize("change, message", [
        # it used to write tmp_path/escaped_density_t6.18501.csv, outside the output directory
        ({"name": "../escaped"}, "scenario name must match ^[A-Za-z0-9._-]+$: got '../escaped'"),
        # $ also matches before a final newline, so match() let this name write a file
        ({"name": "x\n"}, "scenario name must match ^[A-Za-z0-9._-]+$: got 'x\\n'"),
        # it used to write a density dump named for the product
        ({"outputs": ("bogus",)},
         "scenario 'mixed_p4'.outputs contains unknown product 'bogus'; "
         "expected ('timeseries', 'wavefunction', 'density', 'verify')"),
        ({"outputs": ("density", "density")},
         "scenario 'mixed_p4'.outputs lists product 'density' more than once"),
        ({"outputs": ()}, "scenario 'mixed_p4'.outputs must be a non-empty list"),
    ], ids=["escaping-name", "newline-name", "unknown-product", "repeated-product", "no-product"])
    def test_a_replaced_name_or_product_list_is_refused_before_any_file(
            self, tmp_path, change, message):
        sc = parse_config((SCENARIOS / "mixed_p4.json").read_text())[0]
        with pytest.raises(sx.ParseError) as caught:
            run_scenario(dataclasses.replace(sc, **{"outputs": ("density",), **change}),
                         tmp_path / "o")
        assert str(caught.value) == message
        assert not any(tmp_path.iterdir())

    def test_a_replaced_state_brings_its_own_closed_form(self, tmp_path):
        # with a stored spec beside the state, 1.1 sigma_a kept P = 4 and wrote purity 0.5
        sc = parse_config((SCENARIOS / "mixed_p4.json").read_text())[0]
        assert {"spec", "mixed"}.isdisjoint(f.name for f in dataclasses.fields(sc))
        wider = dataclasses.replace(sc, state=sx.MixedGaussianSpec(
            sc.state.base, 1.1 * sc.state.sigma_a), outputs=("timeseries",))
        assert wider.spec.purity_product == pytest.approx(4.8841, rel=1e-12)
        rows = run_scenario(wider, tmp_path).files[0].read_text().splitlines()[1:]
        purities = [float(row.split(",")[10]) for row in rows]
        assert len(purities) == 64
        assert max(abs(p - 4.8841 ** -0.5) for p in purities) < 1e-5

    def test_a_replaced_state_is_judged_on_the_grid(self):
        # 2 sigma_a used to pass against the stored spec and stop verify with a CoverageError
        sc = parse_config((SCENARIOS / "mixed_p4.json").read_text())[0]
        with pytest.raises(sx.InvariantError, match=r"^scenario 'mixed_p4'\.grid: grid coverage "
                                                    "invariant violated"):
            dataclasses.replace(sc, state=sx.MixedGaussianSpec(
                sc.state.base, 2.0 * sc.state.sigma_a))

    def test_max_sample_times_parse_and_one_more_exit_3(self, tmp_path, capsys):
        times = [k * 1e-3 for k in range(scenario.MAX_SAMPLE_TIMES + 1)]
        assert len(parse_one(dict(FAST_MIXED, sample_times=times[:-1])).sample_times) == 4096
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_MIXED, sample_times=times)))
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == ("invariant violation: scenario 'fast_mixed': 4097 "
                                           "sample_times, more than 4096\n")

    @pytest.mark.parametrize("config", [FAST_PURE, FAST_MIXED], ids=["pure", "mixed"])
    def test_a_scenario_built_with_no_sample_times_is_refused(self, config):
        sc = parse_one(config)
        values = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)}
        with pytest.raises(sx.InvariantError, match=rf"^scenario '{sc.name}': sample_times must "
                                                    "be non-empty and strictly increasing$"):
            scenario.Scenario(**dict(values, sample_times=()))

    @pytest.mark.parametrize("config, outputs, steps", [
        (FAST_PURE, ["timeseries"], True),
        (FAST_PURE, ["verify"], True),
        (FAST_PURE, ["wavefunction", "density"], False),
        (FAST_MIXED, ["timeseries", "verify"], False),
    ], ids=["pure-timeseries", "pure-verify", "pure-dumps", "mixed"])
    def test_run_scenarios_steps_a_scenario_iff_its_steps_holds(
            self, tmp_path, monkeypatch, config, outputs, steps):
        sc = parse_one(dict(config, outputs=outputs))
        assert sc.steps is steps
        stepped = []
        real = scenario.propagate
        monkeypatch.setattr(scenario, "propagate",
                            lambda psi, osc, cfg: stepped.append(cfg) or real(psi, osc, cfg))
        scenario.run_scenarios([sc], tmp_path)
        assert bool(stepped) is steps

    def test_the_step_rules_wait_for_a_scenario_that_steps(self, tmp_path, monkeypatch):
        # dt = 1e-12 would take 5.5e12 steps, but a wavefunction dump takes none
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_PURE, propagator={"dt": 1e-12},
                                       outputs=["wavefunction"])))
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0
        assert [p.name for p in (tmp_path / "o").iterdir()] == [
            "fast_pure_wavefunction_t5.49779.csv"]
        # verify steps the trajectory
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "v"), "--quiet"]) == 3

    @pytest.mark.parametrize("config, code", [
        (FAST_MIXED, 0),
        (dict(FAST_PURE, outputs=["density"]), 0),
        (FAST_PURE, 3),
    ], ids=["mixed", "pure-density", "pure-stepped"])
    def test_only_a_stepped_trajectory_needs_non_negative_times(
            self, tmp_path, capsys, config, code):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(config, sample_times=[-0.7, 0.0, 1.9])))
        assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"]) == code
        err = capsys.readouterr().err
        if code:
            assert "each time must be >= 0" in err
        else:
            assert err == ""
            assert any((tmp_path / "o").iterdir())


def _leaf_paths(obj, prefix=()):
    """Key/index paths to every number, integer, boolean and list in a config."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    paths = [prefix] if isinstance(obj, list) else []
    for key, value in items:
        if isinstance(value, (dict, list)):
            paths += _leaf_paths(value, prefix + (key,))
        elif not isinstance(value, str):
            paths.append(prefix + (key,))
    return paths


# Every optional number, integer and boolean key set to its default value,
# so that each one is mutated too.
FUZZ_BASES = (
    dict(FAST_PURE, oscillator={"mass": 1.0, "angular_frequency": 1.0, "hbar": 1.0},
         center={"X_amp": 0.0, "phi_c": 0.0}),
    dict(FAST_MIXED, squeeze={"A0": 1.0, "dA": 0.0, "phi_sq": 0.0},
         ensemble_nodes=32, mc_check=False),
)

HOSTILE = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -10**400,
                     10**300, 2**64, 5e-324, -5e-324, 1e-320, 1e308, -1e308, 0, -1,
                     True, False, None, "1", [], {}, [1.0], {"a": 1}]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**400, max_value=10**400),
)


class TestParserFuzz:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_config_parses_or_raises_config_error(self, data):
        doc = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
        for path in data.draw(st.lists(st.sampled_from(_leaf_paths(doc)), min_size=1,
                                       max_size=3)):
            target = doc
            try:
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = copy.deepcopy(data.draw(HOSTILE))
            except (IndexError, KeyError, TypeError):
                continue  # an earlier mutation replaced this path's parent
        try:
            parse_config(json.dumps(doc))
        except (sx.ParseError, sx.InvariantError):
            pass


# A scenario with every key: with FAST_PURE (the initial_variance_D form) it holds every key
# path the parser reads.
FULL = dict(FAST_PURE, name="full",
            oscillator={"mass": 1.0, "angular_frequency": 1.0, "hbar": 1.0},
            squeeze={"A0": 1.25, "dA": 0.75, "phi_sq": 0.0}, center={"X_amp": 0.5, "phi_c": 0.0},
            sigma_a=0.0, propagator={"scheme": "spectral-split-step", "dt": 2 * np.pi / 1024},
            ensemble_nodes=32, mc_check=False)

# The kind read at each key path, a list index written "[i]"; the name and the product
# names are Scenario's to judge, not the reader's.
READ_AS = {
    (): "object", ("scenarios",): "list", ("scenarios", "[i]"): "object",
    **{("scenarios", "[i]") + path: kind for path, kind in {
        ("oscillator",): "object", ("oscillator", "mass"): "number",
        ("oscillator", "angular_frequency"): "number", ("oscillator", "hbar"): "number",
        ("squeeze",): "object", ("squeeze", "A0"): "number", ("squeeze", "dA"): "number",
        ("squeeze", "phi_sq"): "number", ("squeeze", "initial_variance_D"): "number",
        ("center",): "object", ("center", "X_amp"): "number", ("center", "phi_c"): "number",
        ("sigma_a",): "number",
        ("grid",): "object", ("grid", "x_min"): "number", ("grid", "x_max"): "number",
        ("grid", "n_points"): "integer",
        ("propagator",): "object", ("propagator", "scheme"): "string",
        ("propagator", "dt"): "number",
        ("sample_times",): "list", ("sample_times", "[i]"): "number",
        ("outputs",): "list", ("ensemble_nodes",): "integer", ("mc_check",): "boolean",
    }.items()},
}

# What a refusal says each kind must be, and values of every other JSON type
KINDS = {
    "number": ("a number (finite)", [None, True, False, "1", [], [1.0], {}, float("nan"),
                                     float("inf"), -float("inf"), 10**400, -10**400]),
    "integer": ("an integer", [None, True, False, "1", [], [1], {}, 1.5, 2.0, 1e300]),
    "string": ("a string", [None, True, 1, 1.5, [], ["x"], {}]),
    "boolean": ("a boolean", [None, 0, 1, 1.5, "true", [], [True], {}]),
    "list": ("a non-empty list", [None, True, 1, 1.5, "verify", [], {}]),
    "object": ("an object", [None, True, 1, 1.5, "x", [], [{}]]),
}


def _key_paths(obj, prefix=()):
    """Every key/index path of a config but the name and the product names."""
    if prefix[-1:] == ("name",) or prefix[-2:-1] == ("outputs",):
        return []
    items = (obj.items() if isinstance(obj, dict) else
             enumerate(obj) if isinstance(obj, list) else ())
    return [prefix] + [path for key, value in items for path in _key_paths(value, prefix + (key,))]


class TestTypedReader:
    DOC = {"scenarios": [FULL, FAST_PURE]}
    PATHS = _key_paths(DOC)

    def test_the_table_has_every_key_path(self):
        assert len(parse_config(json.dumps(self.DOC))) == 2
        normal = {tuple("[i]" if isinstance(k, int) else k for k in path) for path in self.PATHS}
        assert normal == set(READ_AS)

    @pytest.mark.parametrize("path", PATHS, ids=lambda path: "/".join(map(str, path)) or "root")
    def test_a_value_of_another_json_type_is_refused_naming_its_key(self, path):
        kind = READ_AS[tuple("[i]" if isinstance(k, int) else k for k in path)]
        if len(path) <= 2:
            where = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                       for k in path or ("root",))
        else:
            where = f"scenario {self.DOC['scenarios'][path[1]]['name']!r}" + "".join(
                f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[2:])
        what, wrong = KINDS[kind]
        for value in wrong:
            doc = json.loads(json.dumps(self.DOC))  # a copy that shares no section
            if path:
                target = doc
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value
            else:
                doc = value
            with pytest.raises(sx.ParseError) as caught:
                parse_config(json.dumps(doc))
            got = json.loads(json.dumps(value))
            assert str(caught.value) == f"{where} must be {what}, got {got!r}"

    @pytest.mark.parametrize("value, got", [
        ("x" * 498, repr("x" * 498)),  # 500 characters, quoted in full
        ("x" * 499, repr("x" * 499)[:497] + "..."),
        # the whole list used to be quoted: a message of 500,044 characters
        ([0.0] * 100_000, "[" + "0.0, " * 99 + "0..."),
    ], ids=["500-characters", "501-characters", "100000-entries"])
    def test_a_refused_value_is_quoted_in_at_most_500_characters(self, value, got):
        with pytest.raises(sx.ParseError) as caught:
            parse_config(json.dumps({"name": "m", "outputs": ["verify"], "squeeze": value}))
        assert str(caught.value) == f"scenario 'm'.squeeze must be an object, got {got}"
        assert len(got) <= 500


# Float-range extremes that every number of a run-time fuzz config may take.
RUN_EXTREMES = (1e-320, 1e-12, 1e6, 1e150, 1e300, 1.7e308)


def _run_value(*ordinary):
    """One of ``ordinary`` seven times in eight, else one of RUN_EXTREMES."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(RUN_EXTREMES if k == 7 else ordinary))


def _optional_section(**keys):
    return st.fixed_dictionaries({}, optional=keys)


# The grid is always given: the default 1024-point grid of a pure state makes
# one example take seconds, most of it writing the N x N density dump.
RUN_CONFIGS = st.fixed_dictionaries(
    {
        "name": st.just("f"),
        "squeeze": st.one_of(
            st.fixed_dictionaries({"initial_variance_D": _run_value(0.3, 1.0, 1.3)}),
            st.fixed_dictionaries({"A0": _run_value(1.0)}),
            st.fixed_dictionaries({"A0": st.just(1.25), "dA": st.just(0.75),
                                   "phi_sq": _run_value(0.0, 2.0)})),
        "grid": st.builds(lambda r, n: {"x_min": -r, "x_max": r, "n_points": n},
                          _run_value(12.0, 16.0), st.integers(16, 96)),
        "sample_times": st.lists(_run_value(0.0, 0.7, 2.7155266295336338), min_size=1,
                                 max_size=3, unique=True).map(sorted),
        "outputs": st.lists(st.sampled_from(scenario.PRODUCTS), min_size=1, max_size=4,
                            unique=True),
        "ensemble_nodes": st.just(16),
    },
    optional={
        "oscillator": st.one_of(
            _optional_section(hbar=_run_value(1.0, 0.3), mass=_run_value(1.0, 1.3),
                              angular_frequency=_run_value(1.0, 1.85)),
            # hbar and m scaled together keep sigma_gr^2 = hbar/(2 m omega) ordinary
            st.builds(lambda s, w: {"hbar": s, "mass": s, "angular_frequency": w},
                      st.sampled_from(RUN_EXTREMES), _run_value(1.0, 1.85))),
        "center": _optional_section(X_amp=_run_value(0.3, 1.0), phi_c=_run_value(0.0, 2.0)),
        "sigma_a": _run_value(0.3, 0.7),
        "propagator": _optional_section(scheme=st.sampled_from(SCHEMES),
                                        dt=_run_value(0.05, 0.3)),
    },
)


class TestRunFuzz:
    @pytest.mark.slow
    @given(config=RUN_CONFIGS)
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_run_and_verify_end_in_an_exit_code(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "sc.json"
            cfg.write_text(json.dumps(config))
            for command in ("run", "verify"):
                code = cli.main([command, str(cfg), "--out-dir", str(Path(tmp) / command),
                                 "--quiet"])
                assert code in (0, 1, 2, 3)


class TestTimeseries:
    def test_ground_state_rows(self, tmp_path):
        sc = parse_one({
            "name": "g", "squeeze": {"A0": 1.0},
            "grid": {"x_min": -9.0, "x_max": 9.0, "n_points": 128},
            "propagator": {"dt": 2 * np.pi / 512},
            "sample_times": [k * 2 * np.pi / 8 for k in range(8)],
            "outputs": ["timeseries"],
        })
        res = run_scenario(sc, tmp_path)
        lines = res.files[0].read_text().splitlines()
        assert lines[0] == ("t,A,B,phi,x_c,p_c,var_x,var_p,cov_xp,"
                            "uncertainty_product,purity,fidelity_numeric")
        for row in lines[1:]:
            cells = row.split(",")
            assert len(cells) == 12
            assert float(cells[1]) == 1.0    # A
            assert float(cells[2]) == 0.0    # B
            assert abs(float(cells[6]) - 0.5) < 1e-10  # var_x = sigma_gr^2

    def test_periodicities_of_columns(self, tmp_path):
        # shape columns repeat every half period; the center every full period
        T = 2 * np.pi
        sc = parse_one({
            "name": "p", "squeeze": {"initial_variance_D": 1.0},
            "center": {"X_amp": 1.0, "phi_c": 0.3},
            "grid": {"x_min": -14.0, "x_max": 14.0, "n_points": 256},
            "propagator": {"dt": T / 1024},
            "sample_times": [k * T / 16 for k in range(32)],  # two periods
            "outputs": ["timeseries"],
        })
        res = run_scenario(sc, tmp_path)
        rows = [r.split(",") for r in res.files[0].read_text().splitlines()[1:]]
        A = np.array([float(r[1]) for r in rows])
        x_c = np.array([float(r[4]) for r in rows])
        assert np.abs(A[:8] - A[8:16]).max() < 1e-12        # period pi/omega
        assert np.abs(x_c[:16] - x_c[16:]).max() < 1e-12    # period 2 pi/omega
        assert np.abs(x_c[:8] - x_c[8:16]).max() > 0.1      # not pi-periodic

    def test_mixed_rows_have_blank_phase_and_fidelity_and_constant_purity(self, tmp_path):
        sc = parse_one(FAST_MIXED)
        res = run_scenario(sc, tmp_path)
        csv = [f for f in res.files if f.name.endswith("timeseries.csv")][0]
        for row in csv.read_text().splitlines()[1:]:
            cells = row.split(",")
            assert cells[3] == ""    # phi undefined for a mixed state
            assert cells[11] == ""   # fidelity_numeric blank
            assert abs(float(cells[10]) - 0.5) < 1e-5  # purity = 1/sqrt(4)

    def test_pure_rows_have_unit_fidelity(self, tmp_path):
        sc = parse_one(FAST_PURE)
        res = run_scenario(sc, tmp_path)
        csv = [f for f in res.files if f.name.endswith("timeseries.csv")][0]
        for row in csv.read_text().splitlines()[1:]:
            fid = float(row.split(",")[11])
            assert fid >= 1.0 - 1e-6

    def test_timeseries_and_verify_share_one_propagation(self, tmp_path, monkeypatch):
        steps = []
        real_propagate = scenario.propagate

        def counting_propagate(psi, osc, cfg):
            steps.append(cfg.n_steps)
            return real_propagate(psi, osc, cfg)

        monkeypatch.setattr(scenario, "propagate", counting_propagate)
        sc = parse_one(FAST_PURE)
        assert run_scenario(sc, tmp_path).verified
        assert sum(steps) == round(sc.sample_times[-1] / sc.dt)

    def test_the_trajectory_is_cached_per_instance_without_a_private_field(self, monkeypatch):
        steps = []
        real_propagate = scenario.propagate
        monkeypatch.setattr(scenario, "propagate",
                            lambda psi, osc, cfg: steps.append(cfg.n_steps) or real_propagate(
                                psi, osc, cfg))
        sc = parse_one(FAST_PURE)
        assert not [f.name for f in dataclasses.fields(sc) if f.name.startswith("_")]
        assert sc.fidelities is sc.fidelities
        # replace() makes a new instance, which steps its own trajectory
        early = dataclasses.replace(sc, sample_times=sc.sample_times[:3])
        assert early.fidelities == sc.fidelities[:3]
        assert sum(steps) == sum(round(s.sample_times[-1] / s.dt) for s in (sc, early))

    @pytest.mark.parametrize("outputs", [
        ["timeseries", "density", "verify"], ["timeseries", "verify", "density"]])
    def test_density_dump_builds_its_own_matrix_and_none_is_held_through_verify(
            self, tmp_path, monkeypatch, outputs):
        sc = parse_one(dict(FAST_MIXED, outputs=outputs))
        built = []
        real_density_at = scenario.density_at
        real_verify = scenario.verify_scenario

        def counting_density_at(sc, t):
            built.append(t)
            return real_density_at(sc, t)

        def verify_with_no_matrix_alive(sc, seed):
            gc.collect()
            assert not [o for o in gc.get_objects()
                        if isinstance(o, sx.DensityMatrixSample) and o.grid is sc.grid]
            return real_verify(sc, seed=seed)

        monkeypatch.setattr(scenario, "density_at", counting_density_at)
        monkeypatch.setattr(scenario, "verify_scenario", verify_with_no_matrix_alive)
        assert run_scenario(sc, tmp_path).verified
        assert built == list(sc.sample_times) + [sc.sample_times[-1]]

    def test_each_row_is_built_with_no_other_matrix_alive(self, tmp_path, monkeypatch):
        sc = parse_one(dict(FAST_PURE, outputs=["timeseries"]))
        real_density_at = scenario.density_at
        built = []

        def density_at_with_no_matrix_alive(sc, t):
            gc.collect()
            assert not [o for o in gc.get_objects()
                        if isinstance(o, sx.DensityMatrixSample) and o.grid is sc.grid]
            built.append(t)
            return real_density_at(sc, t)

        monkeypatch.setattr(scenario, "density_at", density_at_with_no_matrix_alive)
        run_scenario(sc, tmp_path)
        assert built == list(sc.sample_times)

    def test_seventeen_digit_cells_round_trip_exactly(self, tmp_path):
        # %.17g guarantees a double survives text round-trip bit for bit
        sc = parse_one(FAST_MIXED)
        res = run_scenario(sc, tmp_path)
        csv = [f for f in res.files if f.name.endswith("timeseries.csv")][0]
        for row in csv.read_text().splitlines()[1:]:
            for cell in row.split(","):
                if cell:
                    assert format(float(cell), ".17g") == cell


def small_pure_scenarios():
    """Three small pure scenarios, one of them on the implicit scheme."""
    configs = [dict(FAST_PURE, name=f"fast_pure_{k}") for k in range(3)]
    # at n=256 the three-point Laplacian keeps 1 - fidelity below 1e-6 for the ground state
    configs[1]["squeeze"] = {"A0": 1.0}
    configs[1]["propagator"] = dict(FAST_PURE["propagator"], scheme="implicit-unitary")
    configs[2]["squeeze"] = {"A0": 1.25, "dA": 0.75, "phi_sq": 0.4}
    return parse_config(json.dumps({"scenarios": configs}))


class TestPool:
    def test_one_scenario_steps_at_a_time(self, tmp_path, monkeypatch):
        # three workers on two cores, a short switch interval, and a sleep inside
        # each call to widen the window in which two stepping loops could overlap
        real_propagate = scenario.propagate
        counter = threading.Lock()
        in_flight, peak = [0], [0]

        def watched_propagate(psi, osc, cfg):
            with counter:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.005)
                return real_propagate(psi, osc, cfg)
            finally:
                with counter:
                    in_flight[0] -= 1

        monkeypatch.setattr(scenario, "propagate", watched_propagate)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = scenario.run_scenarios(small_pure_scenarios(), tmp_path)
        finally:
            sys.setswitchinterval(interval)
        assert all(r.verified for r in results)
        assert peak[0] == 1

    def test_every_propagation_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        real_propagate = scenario.propagate
        threads = []

        def watched_propagate(psi, osc, cfg):
            threads.append(threading.get_ident())
            return real_propagate(psi, osc, cfg)

        monkeypatch.setattr(scenario, "propagate", watched_propagate)
        results = scenario.run_scenarios(small_pure_scenarios(), tmp_path)
        assert all(r.verified for r in results)
        assert threads and set(threads) == {threading.get_ident()}

    def test_rows_build_in_the_pool_while_the_trajectories_step_one_at_a_time(
            self, tmp_path, monkeypatch):
        # a sleep inside each propagation widens the stepping phase, in which the pool's
        # first density row must start
        real_propagate, real_density_at = scenario.propagate, scenario.density_at
        steps, rows, caller = [], [], threading.get_ident()

        def timed_propagate(psi, osc, cfg):
            start = time.perf_counter()
            time.sleep(0.005)
            try:
                return real_propagate(psi, osc, cfg)
            finally:
                steps.append((start, time.perf_counter()))

        def timed_density_at(sc, t):
            rows.append((time.perf_counter(), threading.get_ident()))
            return real_density_at(sc, t)

        monkeypatch.setattr(scenario, "propagate", timed_propagate)
        monkeypatch.setattr(scenario, "density_at", timed_density_at)
        scenarios = small_pure_scenarios()[:2]
        results = scenario.run_scenarios(scenarios, tmp_path)
        assert all(r.verified for r in results)
        # each row is built once, in the pool: no product builds it again
        assert len(rows) == sum(len(sc.sample_times) for sc in scenarios)
        assert caller not in {thread for _, thread in rows}
        first_row = min(start for start, _ in rows)
        assert first_row < max(end for _, end in steps)
        steps.sort()
        assert all(end <= start for (_, end), (start, _) in zip(steps, steps[1:]))

    def test_two_scenarios_rows_build_in_two_pool_threads_at_once(self, tmp_path, monkeypatch):
        # a sleep inside each row widens the window in which the two tasks overlap.  A task that
        # read a functools.cached_property would take its lock, which Python 3.11 shares across
        # all instances, and build one scenario's rows after the other's
        real_density_at = scenario.density_at
        rows = []

        def slow_density_at(sc, t):
            start = time.perf_counter()
            time.sleep(0.01)
            try:
                return real_density_at(sc, t)
            finally:
                rows.append((sc.name, threading.get_ident(), start, time.perf_counter()))

        monkeypatch.setattr(scenario, "density_at", slow_density_at)
        configs = [dict(FAST_MIXED, name=name, outputs=["timeseries"]) for name in "ab"]
        scenarios = parse_config(json.dumps({"scenarios": configs}))
        scenario.run_scenarios(scenarios, tmp_path)
        a, b = ([row for row in rows if row[0] == name] for name in "ab")
        assert len(a) == len(b) == len(scenarios[0].sample_times)
        threads = [{thread for _, thread, _, _ in side} for side in (a, b)]
        assert all(len(t) == 1 for t in threads) and threads[0] != threads[1]
        assert threading.get_ident() not in threads[0] | threads[1]
        assert any(s1 < e2 and s2 < e1 for _, _, s1, e1 in a for _, _, s2, e2 in b)

    def test_pooled_products_match_serial_runs(self, tmp_path):
        scenarios = small_pure_scenarios()
        pooled = scenario.run_scenarios(scenarios, tmp_path / "pool")
        serial = [run_scenario(sc, tmp_path / "serial") for sc in scenarios]
        for p, s in zip(pooled, serial):
            assert (p.verified, p.lines) == (s.verified, s.lines)
            assert [f.name for f in p.files] == [f.name for f in s.files]
            for pf, sf in zip(p.files, s.files):
                assert pf.read_bytes() == sf.read_bytes()

    def test_products_and_checks_run_on_the_calling_thread_one_scenario_at_a_time(
            self, tmp_path, monkeypatch):
        # a sleep inside each call widens the window in which two could overlap
        real_run_scenario = scenario.run_scenario
        counter = threading.Lock()
        calls, in_flight, peak = [], [0], [0]

        def watched_run_scenario(sc, out_dir, seed):
            calls.append((sc.name, threading.get_ident()))
            with counter:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.005)
                return real_run_scenario(sc, out_dir, seed)
            finally:
                with counter:
                    in_flight[0] -= 1

        monkeypatch.setattr(scenario, "run_scenario", watched_run_scenario)
        scenarios = [*small_pure_scenarios(), parse_one(FAST_MIXED)]
        results = scenario.run_scenarios(scenarios, tmp_path)
        assert all(r.verified for r in results)
        assert [name for name, _ in calls] == [sc.name for sc in scenarios]
        assert {thread for _, thread in calls} == {threading.get_ident()}
        assert peak[0] == 1

    def test_a_failed_trajectory_stops_the_row_tasks_before_their_next_row(
            self, tmp_path, monkeypatch):
        # the first scenario trips the propagator's 1e-12 entry gate at its first step; each
        # row sleeps, so both tasks have most of their 32 rows to go.  A row that starts after
        # the failing propagate raised had passed its task's stop check: at most one per task
        real_propagate, real_density_at = scenario.propagate, scenario.density_at
        raised, late = [], []

        def failing_propagate(psi, osc, cfg):
            try:
                return real_propagate(psi, osc, cfg)
            except sx.BoundaryError:
                raised.append(True)
                raise

        def slow_density_at(sc, t):
            if raised:
                late.append(sc.name)
            time.sleep(0.01)
            return real_density_at(sc, t)

        monkeypatch.setattr(scenario, "propagate", failing_propagate)
        monkeypatch.setattr(scenario, "density_at", slow_density_at)
        good = dict(FAST_PURE, name="good", squeeze={"A0": 1.0}, outputs=["timeseries"],
                    sample_times=[k * 2 * np.pi / 32 for k in range(32)])
        bad = dict(good, name="bad", grid={"x_min": -5.7, "x_max": 5.7, "n_points": 128})
        scenarios = parse_config(json.dumps({"scenarios": [bad, good]}))
        out = tmp_path / "o"
        with pytest.raises(sx.BoundaryError, match="boundary contamination in the initial "
                                                   "state: edge amplitude 6.616e-08"):
            scenario.run_scenarios(scenarios, out)
        assert raised and all(late.count(name) <= 1 for name in ("bad", "good"))
        # a stopped task caches no rows
        assert not any("density_rows" in sc.__dict__ for sc in scenarios)
        assert not out.exists() or not any(out.iterdir())


class TestVerify:
    def test_pure_scenario_passes(self):
        lines = verify_scenario(parse_one(FAST_PURE))
        assert all(ok for ok, _ in lines), lines
        labels = {ln.split("] ")[1].split(":")[0] for _, ln in lines}
        assert {"ode-residuals", "schrodinger-residual",
                "variance-law", "phase-law", "propagation-fidelity"} <= labels
        assert all(CHECK_LINE.match(ln) for _, ln in lines), lines

    def test_mixed_scenario_passes(self):
        lines = verify_scenario(parse_one(FAST_MIXED))
        assert all(ok for ok, _ in lines), lines
        labels = {ln.split("] ")[1].split(":")[0] for _, ln in lines}
        assert {"purity-law", "ensemble-agreement"} <= labels
        assert all(CHECK_LINE.match(ln) for _, ln in lines), lines

    def test_a_strong_squeeze_passes_the_ode_residuals(self, tmp_path, capsys):
        # A(0) = 100: the absolute residual read 1.466e-06 against 1e-6, all of it round-off
        # in the equations' large terms; in units of each equation's largest term, 3.416e-09
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"name": "wide", "squeeze": {"initial_variance_D": 50},
                                   "outputs": ["verify"]}))
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "ode-residuals" in ln]
        assert line.startswith("[wide] ode-residuals: PASS (max residual = ")

    def test_a_squeeze_near_the_grid_bound_is_not_refused_as_impure(self, tmp_path, capsys):
        # A(0) = 128.1 on its 3916-point automatic grid: A0 - dA cancelled, so the parser
        # refused it with "(A0+dA)(A0-dA) >= 1 violated: product=0.9999999999985789"
        cfg = tmp_path / "strong.json"
        cfg.write_text(json.dumps({"name": "s", "squeeze": {"initial_variance_D": 64.05},
                                   "outputs": ["verify"]}))
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(": PASS (" in line for line in lines), lines

    @pytest.mark.parametrize("name", sorted(DISPLACED_IN_OTHER_UNITS))
    def test_a_displaced_state_in_other_units_prints_recorded_check_lines(
            self, name, tmp_path, capsys):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(DISPLACED_IN_OTHER_UNITS[name]))
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == VERIFY_LINES[name]
        assert captured.err == ""

    def test_failing_check_fails_the_scenario(self, tmp_path):
        # the three-point Laplacian at n=256 leaves 1 - fidelity = 5.686e-05 against 1e-6
        sc = parse_one(dict(FAST_PURE, outputs=["verify"], propagator=dict(
            FAST_PURE["propagator"], scheme="implicit-unitary")))
        res = run_scenario(sc, tmp_path)
        assert res.verified is False
        assert [line for ok, line in res.lines if not ok] == [
            "[fast_pure] propagation-fidelity: FAIL "
            "(max |1 - fidelity| at t > 0 = 5.686e-05, tol 1e-06, margin -5.586e-05)"]

    def test_a_fired_ensemble_guard_reports_its_drift_as_a_check(self, tmp_path, capsys):
        # at sigma_a = 2 sigma_gr doubling the 32 nodes moves the ensemble by 4.224e-04 of peak
        sgr = math.sqrt(0.5)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({
            "name": "wide", "squeeze": {"A0": 1.25, "dA": 0.75, "phi_sq": 0.4},
            "center": {"X_amp": sgr, "phi_c": 1.0}, "sigma_a": 2 * sgr,
            "sample_times": [0.0, 1.3], "outputs": ["verify"]}))
        assert cli.main(["verify", str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "[wide] ensemble-agreement: FAIL (node-doubling drift at 32 nodes = 4.224e-04, "
            "tol 1e-08, margin -4.224e-04)",
            "verification FAILED"]
        lines = verify_scenario(parse_one(json.loads(cfg.read_text())))
        assert all(CHECK_LINE.match(ln) for _, ln in lines), lines

    @pytest.mark.parametrize("mc_check", [False, True])
    @pytest.mark.parametrize("n, densities", [
        (512, 5.0), pytest.param(1024, 4.5, marks=pytest.mark.slow)])
    def test_the_working_set_of_a_mixed_verify(self, monkeypatch, n, densities, mc_check):
        # one probe density, the ensemble result and the guard's real sums and result: 4.5
        # densities at 512 points (with the 4 MiB [C | S] block) and 4.1 at 1024, with or
        # without Monte Carlo, where all three probe densities held 5.5 and 5.1, and
        # whole-block plane waves and whole-matrix temporaries 13.2 and 10.1; the probe
        # densities from malloc, where tracemalloc sees them
        monkeypatch.setattr(states, "_own_pages", lambda n: np.empty((n, n), dtype=complex))
        sc = parse_one(dict(FAST_MIXED, grid={"x_min": -12.0, "x_max": 12.0, "n_points": n},
                            sample_times=[0.0, 0.7, 1.9], outputs=["verify"], mc_check=mc_check))
        tracemalloc.start()
        try:
            lines = verify_scenario(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(ok for ok, _ in lines), lines
        assert peak <= densities * n * n * 16

    def test_nan_value_fails(self, monkeypatch):
        # verify_scenario is the one judge of a check record: value <= tol, which NaN is not
        monkeypatch.setattr(scenario, "_verify_pure",
                            lambda sc: iter([("some-law", "max error", float("nan"), 1e-8)]))
        assert verify_scenario(parse_one(FAST_PURE)) == [
            (False, "[fast_pure] some-law: FAIL (max error = nan, tol 1e-08, margin nan)")]

    def test_coherent_scenario_with_nonzero_squeeze_phase_passes(self):
        # dA = 0 with any phi_sq is a valid constant-width state; its phase
        # starts at a nonzero constant, which must not trip the phase checks
        lines = verify_scenario(parse_one({
            "name": "c", "squeeze": {"A0": 1.0, "phi_sq": 0.7},
            "grid": {"x_min": -9.0, "x_max": 9.0, "n_points": 256},
            "propagator": {"dt": 2 * np.pi / 1024},
            "sample_times": [k * 2 * np.pi / 8 for k in range(8)],
            "outputs": ["verify"],
        }))
        assert all(ok for ok, _ in lines), lines


    @pytest.mark.parametrize("times", [[0.7], [0.0, 0.7]], ids=["one", "two"])
    def test_each_probe_time_is_checked_once(self, monkeypatch, times):
        probed = []
        real = scenario.ensemble_average_density

        def recording(spec, grid, t, *args, method="gauss-hermite", **kwargs):
            probed.append((method, t))
            return real(spec, grid, t, *args, method=method, **kwargs)

        monkeypatch.setattr(scenario, "ensemble_average_density", recording)
        lines = verify_scenario(parse_one(dict(FAST_MIXED, sample_times=times, mc_check=True)))
        assert all(ok for ok, _ in lines), lines
        # the Monte Carlo draw once, at the first probe, after its Gauss-Hermite comparison
        assert probed == [("gauss-hermite", times[0]), ("monte-carlo", times[0]),
                          *(("gauss-hermite", t) for t in times[1:])]

    @pytest.mark.parametrize("mc_check", [False, True])
    def test_one_closed_form_density_is_alive_at_a_time(self, monkeypatch, mc_check):
        sc = parse_one(dict(FAST_MIXED, outputs=["verify"], mc_check=mc_check))
        real_closed_form = scenario.eval_mixed_density
        real_ensemble = scenario.ensemble_average_density
        alive = []

        def densities_alive():
            gc.collect()
            return len([o for o in gc.get_objects()
                        if isinstance(o, sx.DensityMatrixSample) and o.grid is sc.grid])

        def closed_form(spec, grid, t):
            alive.append(("closed form", densities_alive()))
            return real_closed_form(spec, grid, t)

        def ensemble(*args, **kwargs):
            alive.append(("ensemble", densities_alive()))
            return real_ensemble(*args, **kwargs)

        monkeypatch.setattr(scenario, "eval_mixed_density", closed_form)
        monkeypatch.setattr(scenario, "ensemble_average_density", ensemble)
        lines = verify_scenario(sc)
        assert all(ok for ok, _ in lines), lines
        # the three probes: a closed form with none alive, then one beside each ensemble
        first = [("closed form", 0), ("ensemble", 1)] + [("ensemble", 1)] * mc_check
        assert alive == first + [("closed form", 0), ("closed form", 0), ("ensemble", 1)]


def plant_norm_defect(monkeypatch, mixed: bool, scale: float) -> None:
    """Multiply every closed-form psi by ``scale``, or every closed-form rho by ``scale**2``."""
    if mixed:
        real = mixing._gaussian_density
        monkeypatch.setattr(mixing, "_gaussian_density", lambda spec, grid, t, P: (
            sx.DensityMatrixSample(grid=grid, values=real(spec, grid, t, P).values * scale**2,
                                   time=t)))
    else:
        real = states._pure_psi
        monkeypatch.setattr(states, "_pure_psi", lambda spec, x, t: real(spec, x, t) * scale)


class TestPlantedNormDefects:
    """Normalization is judged where a sample is built: a defect above NORM_TOL stops the
    command at exit 3 before any check line or product, and one below it passes."""

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("config, message", [
        (FAST_PURE, "invariant violation: wavefunction norm invariant violated: "),
        (FAST_MIXED, "invariant violation: density trace invariant violated: "),
    ], ids=["pure", "mixed"])
    def test_a_defect_above_the_tolerance_exit_3_with_no_check_line_or_product(
            self, tmp_path, capsys, monkeypatch, config, message, command):
        plant_norm_defect(monkeypatch, "sigma_a" in config, 1 + 1e-6)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.main([command, str(cfg), "--out-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert not (out.exists() and any(out.iterdir()))

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("config", [FAST_PURE, FAST_MIXED], ids=["pure", "mixed"])
    def test_a_defect_within_the_tolerance_passes(
            self, tmp_path, monkeypatch, config, command):
        plant_norm_defect(monkeypatch, "sigma_a" in config, 1 + 1e-10)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([command, str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0


class TestDumps:
    def test_density_dump_round_trip(self, tmp_path):
        from squeezedx.scenario import write_density_dump
        sc = parse_one(FAST_MIXED)
        dm = density_at(sc, 0.7)
        path = tmp_path / "dump.csv"
        write_density_dump(dm, path)
        back = read_density_dump(path)
        assert abs(back.trace() - 1.0) <= 1e-8
        assert np.array_equal(back.values, dm.values)  # %.17g round-trips doubles
        assert back.time == dm.time

    def test_density_dump_matches_savetxt_with_negative_zeros(self, tmp_path):
        from squeezedx.scenario import write_density_dump
        dm = density_at(parse_one(FAST_MIXED), 0.0)
        values = dm.values.real + 0j
        values.imag[::2] = -0.0
        path = tmp_path / "dump.csv"
        write_density_dump(sx.DensityMatrixSample(dm.grid, values, dm.time), path)
        ref = tmp_path / "ref.csv"
        flat = values.ravel()
        np.savetxt(ref, np.column_stack([flat.real, flat.imag]), fmt="%.17g", delimiter=",",
                   newline="\n")
        header, body = path.read_bytes().split(b"\n", 1)
        assert header == b"128,-12,12,0"
        assert b",-0\n" in body
        assert body == ref.read_bytes()

    @pytest.mark.parametrize("text, part", [
        ("abc,-1,1,0\n", "header"),
        ("16,-1,1,0\n0.5,0\n0.25,abc\n", "body"),
    ])
    def test_density_dump_non_numeric_field_is_a_parse_error(self, tmp_path, text, part):
        path = tmp_path / "dump.csv"
        path.write_text(text)
        with pytest.raises(sx.ParseError, match=f"{part} field is not a number: .*'abc'"):
            read_density_dump(path)

    @pytest.mark.parametrize("offset", [0, 15], ids=["header", "body"])
    def test_density_dump_with_an_undecodable_byte_is_a_parse_error(self, tmp_path, offset):
        from squeezedx.scenario import write_density_dump
        path = tmp_path / "dump.csv"
        write_density_dump(density_at(parse_one(FAST_MIXED), 0.0), path)
        data = bytearray(path.read_bytes())
        data[offset] = 0xff
        path.write_bytes(bytes(data))
        with pytest.raises(sx.ParseError, match="field is not a number"):
            read_density_dump(path)

    def test_wavefunction_dump(self, tmp_path):
        run2 = dict(FAST_PURE, outputs=["wavefunction"])
        res = run_scenario(parse_one(run2), tmp_path)
        body = res.files[0].read_text().splitlines()
        n, x_min, x_max, t = body[0].split(",")
        assert int(n) == 256
        values = np.array([[float(c) for c in r.split(",")] for r in body[1:]])
        norm = np.trapezoid(values[:, 1] ** 2 + values[:, 2] ** 2,
                            dx=(float(x_max) - float(x_min)) / (int(n) - 1))
        assert abs(norm - 1.0) <= 1e-8


# Configs that exit 3, each with a part of its message.
DISPLACED = {"name": "d", "squeeze": {"initial_variance_D": 1.0}, "center": {"X_amp": 1.0},
             "outputs": ["timeseries", "verify"]}
INVARIANT_VIOLATIONS = (
    ({"name": "m", "squeeze": {"A0": 0.5, "dA": 0.75}, "outputs": ["verify"]}, "A0 > dA"),
    # 3 rounds to step 0: the trajectory would compare psi(0) with psi(0)
    (dict(DISPLACED, propagator={"dt": 10.0}, sample_times=[0.0, 3.0]),
     "does not resolve sample_times"),
    # 1.2 and 1.4 both round to step 1
    (dict(DISPLACED, propagator={"dt": 1.0}, sample_times=[0.0, 1.2, 1.4]),
     "does not resolve sample_times"),
    (dict(FAST_MIXED, outputs=["timeseries", "wavefunction"]),
     "wavefunction product requires a pure state"),
    # P = 4 with no sigma_a: the one purity gate judges the squeeze, as it does with one
    ({"name": "x", "squeeze": {"A0": 2.0}, "outputs": ["verify"]},
     "invariant violation: scenario 'x': squeeze (mixing comes from sigma_a) requires a pure "
     "state (P = 1): P = 4.0\n"),
    # t/dt overflows to infinity
    (dict(DISPLACED, propagator={"dt": 1e-320}, sample_times=[0.0, 1.0]),
     "more than 1048576"),
    # 1e12 steps
    (dict(DISPLACED, propagator={"dt": 1e-12}, sample_times=[0.0, 1.0]),
     "more than 1048576"),
    # one 4097 x 4097 complex density would take 256 MiB
    (dict(FAST_PURE, grid={"x_min": -12.0, "x_max": 12.0, "n_points": 4097}),
     "n_points=4097 exceeds 4096"),
    # Gauss-Hermite nodes per axis must lie in 16..128
    (dict(FAST_MIXED, ensemble_nodes=8), "ensemble_nodes=8 is outside 16..128"),
    (dict(FAST_MIXED, ensemble_nodes=129), "ensemble_nodes=129 is outside 16..128"),
    (dict(FAST_MIXED, ensemble_nodes=10**30),
     f"ensemble_nodes={10**30} is outside 16..128"),
    (dict(FAST_PURE, propagator={"scheme": "foo"}), "unknown propagation scheme 'foo'"),
    # hbar**2 or omega**2 leaves the float range: each was an OverflowError at run time
    ({"name": "a", "oscillator": {"hbar": 1e300, "mass": 1e300,
                                  "angular_frequency": 1.85},
      "squeeze": {"initial_variance_D": 0.3}, "sigma_a": 0.3, "sample_times": [0.0],
      "outputs": ["timeseries"]}, "oscillator constants need"),
    ({"name": "b", "oscillator": {"mass": 1.3, "angular_frequency": 1e300,
                                  "hbar": 1e300},
      "squeeze": {"initial_variance_D": 1.3}, "center": {"X_amp": 0.3},
      "sample_times": [0.0], "outputs": ["wavefunction"]},
     "oscillator constants need"),
    ({"name": "c", "oscillator": {"hbar": 1e300, "mass": 1.78,
                                  "angular_frequency": 2.41},
      "squeeze": {"initial_variance_D": 1e300}, "center": {"X_amp": 0.3},
      "propagator": {"scheme": "implicit-unitary", "dt": 1.5},
      "sample_times": [2.7155266295336338], "outputs": ["verify"]},
     "oscillator constants need"),
    # X_amp**2 overflowed in the center phase
    (dict(DISPLACED, center={"X_amp": 1e300},
          grid={"x_min": -1e300, "x_max": 1e300, "n_points": 64}),
     "phase m omega X_amp^2 / hbar = inf is not finite"),
    # x_max - x_min overflows
    (dict(FAST_MIXED, grid={"x_min": -1.7e308, "x_max": 1.7e308, "n_points": 64}),
     "with a finite width x_max - x_min violated"),
    # the constructor of each part names the section it was read from; the state's names
    # the key it judges
    ({"name": "w", "squeeze": {"A0": 2.0}, "sigma_a": 0.5, "outputs": ["verify"]},
     "invariant violation: scenario 'w': squeeze (mixing comes from sigma_a) requires a pure "
     "state (P = 1): P = 4.0\n"),
    ({"name": "w", "squeeze": {"A0": 1.0}, "sigma_a": -0.1, "outputs": ["verify"]},
     "scenario 'w': mixing invariant sigma_a >= 0 with sigma_a^2/sigma_gr^2 and P finite "
     "violated: sigma_a=-0.1\n"),
    # sigma_a**2 overflowed: "sigma_a=1e+200 is out of range: (34, 'Numerical result out of range')"
    ({"name": "w", "squeeze": {"A0": 1.0}, "sigma_a": 1e200, "outputs": ["verify"]},
     "invariant violation: scenario 'w': mixing invariant sigma_a >= 0 with "
     "sigma_a^2/sigma_gr^2 and P finite violated: sigma_a=1e+200\n"),
    # sigma_a^2/sigma_gr^2 = 2e300 but P = inf: the grid's momentum rule used to judge it first
    ({"name": "big", "squeeze": {"A0": 1.0}, "sigma_a": 1e150, "outputs": ["verify"]},
     "invariant violation: scenario 'big': mixing invariant sigma_a >= 0 with "
     "sigma_a^2/sigma_gr^2 and P finite violated: sigma_a=1e+150\n"),
    (dict(FAST_PURE, squeeze={"initial_variance_D": -1.0}),
     "scenario 'fast_pure'.squeeze: initial variance must be a positive"),
    (dict(FAST_PURE, grid={"x_min": -12.0, "x_max": 12.0, "n_points": 8}),
     "scenario 'fast_pure'.grid: grid invariant n_points >= 16 violated"),
    (dict(FAST_PURE, grid={"x_min": -2.0, "x_max": 2.0, "n_points": 64}),
     "scenario 'fast_pure'.grid: grid coverage invariant violated"),
    (dict(FAST_PURE, sample_times=[0.0, 1.0, 0.5]), "strictly increasing"),
    # no step: propagation-fidelity would compare psi(0) with itself and print PASS
    ({"name": "z", "squeeze": {"A0": 1.25, "dA": 0.75},
      "grid": {"x_min": -12, "x_max": 12, "n_points": 256}, "sample_times": [0.0],
      "outputs": ["verify"]},
     "invariant violation: scenario 'z': a stepped trajectory needs a positive sample time\n"),
)


class TestCLI:
    def run_cli(self, *args):
        return cli.main([str(a) for a in args])

    def test_run_exit_zero_and_determinism(self, tmp_path):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(FAST_MIXED))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run_cli("run", cfg, "--out-dir", out1, "--quiet") == 0
        assert self.run_cli("run", cfg, "--out-dir", out2, "--quiet") == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_verify_subcommand(self, tmp_path):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_PURE, outputs=["timeseries"])))
        assert self.run_cli("verify", cfg, "--out-dir", tmp_path / "o", "--quiet") == 0
        assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())

    def test_spread_that_leaves_p_at_one_is_a_pure_scenario(self, tmp_path, capsys):
        # sigma_a^2/sigma_gr^2 = 2e-18 is below half an ulp of A0 = 1.25: P = 1.0 exactly
        tiny = {"name": "tiny", "squeeze": {"A0": 1.25, "dA": 0.75}, "sigma_a": 1e-9,
                "grid": {"x_min": -14, "x_max": 14, "n_points": 256}, "outputs": ["wavefunction"]}
        for name, config in (("tiny", tiny), ("none", dict(tiny, sigma_a=0.0))):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            assert self.run_cli("run", cfg, "--out-dir", tmp_path / name, "--quiet") == 0
        (dump,), (unspread,) = ((tmp_path / name).iterdir() for name in ("tiny", "none"))
        assert dump.name.startswith("tiny_wavefunction_t")
        assert dump.read_bytes() == unspread.read_bytes()

        # without a grid it takes the pure default of 1024 points, and verify the pure checks
        tiny = dict(tiny, sample_times=[0.0, 0.5])
        del tiny["grid"]
        sc = parse_one(tiny)
        assert not sc.is_mixed and sc.grid.n_points == 1024
        cfg = tmp_path / "default_grid.json"
        cfg.write_text(json.dumps(tiny))
        capsys.readouterr()
        assert self.run_cli("verify", cfg, "--out-dir", tmp_path / "v") == 0
        labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert labels == [f"[tiny] {label}" for label in (
            "ode-residuals", "schrodinger-residual", "variance-law", "phase-law",
            "propagation-fidelity")]

    def test_dump_density_subcommand(self, tmp_path):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(FAST_MIXED))
        out = tmp_path / "o"
        assert self.run_cli("dump-density", cfg, "--out-dir", out, "--time", 0.25, "--quiet") == 0
        dump = out / "fast_mixed_density_t0.25.csv"
        assert dump.exists()
        assert abs(read_density_dump(dump).trace() - 1.0) <= 1e-8

    @pytest.mark.parametrize("config", [FAST_MIXED, dict(FAST_PURE, outputs=["density"]),
                                        dict(FAST_PURE, outputs=["timeseries", "density"])],
                             ids=["mixed", "pure", "pure-after-timeseries"])
    def test_dump_density_writes_the_run_density_product(self, tmp_path, config):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(config))
        assert self.run_cli("run", cfg, "--out-dir", tmp_path / "run", "--quiet") == 0
        (product,) = (tmp_path / "run").glob("*_density_*")
        t = config["sample_times"][-1]
        assert self.run_cli("dump-density", cfg, "--out-dir", tmp_path / "dump", "--time", t,
                            "--quiet") == 0
        (dump,) = (tmp_path / "dump").iterdir()
        assert dump.name == product.name
        assert dump.read_bytes() == product.read_bytes()

    def test_dump_density_at_negative_zero_writes_the_file_of_zero(self, tmp_path):
        # the dump's header and body read t = 0 either way; so must its name
        for time in ("-0.0", "0"):
            assert self.run_cli("dump-density", SCENARIOS / "mixed_p4.json", f"--time={time}",
                                "--out-dir", tmp_path / time, "--quiet") == 0
        (negative,), (zero,) = (list((tmp_path / time).iterdir()) for time in ("-0.0", "0"))
        assert negative.name == zero.name == "mixed_p4_density_t0.csv"
        assert negative.read_bytes() == zero.read_bytes()

    @pytest.mark.parametrize("time", [["--time", "nan"], ["--time", "inf"], ["--time=-inf"]],
                             ids=["nan", "inf", "-inf"])
    def test_dump_density_rejects_non_finite_time(self, tmp_path, capsys, time):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(FAST_MIXED))
        out = tmp_path / "o"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            self.run_cli("dump-density", cfg, "--out-dir", out, *time)
        assert exc.value.code == 2
        assert "time must be finite" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("config", [FAST_PURE, FAST_MIXED], ids=["pure", "mixed"])
    def test_verify_prints_the_check_lines_of_run(self, tmp_path, capsys, config):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(config))
        printed = []
        for command in ("run", "verify"):
            assert self.run_cli(command, cfg, "--out-dir", tmp_path / command) == 0
            printed.append(capsys.readouterr().out.splitlines())
        run_checks = [line for line in printed[0] if CHECK_LINE.match(line)]
        assert run_checks
        assert printed[1] == run_checks

    def test_failing_check_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_PURE, propagator=dict(
            FAST_PURE["propagator"], scheme="implicit-unitary"))))
        assert self.run_cli("verify", cfg, "--out-dir", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "verification FAILED"
        assert "propagation-fidelity: FAIL" in err[-2]

    @pytest.mark.parametrize("segments", [2, 4])
    def test_verdict_does_not_depend_on_how_sample_times_split_the_trajectory(
            self, tmp_path, segments):
        # at T/4 the propagated state has 1.951e-10 at an edge: above the 1e-12 entry
        # gate, below the 1e-8 per-step guard that the trajectory is held to
        T = 2 * np.pi
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({
            "name": "seg", "squeeze": {"A0": 1.25, "dA": 0.75, "phi_sq": np.pi},
            "grid": {"x_min": -9.5, "x_max": 9.5, "n_points": 512},
            "propagator": {"dt": T / 4096},
            "sample_times": [k * T / segments for k in range(segments // 2 + 1)],
            "outputs": ["verify"]}))
        assert self.run_cli("verify", cfg, "--out-dir", tmp_path / "o", "--quiet") == 0

    def test_a_failed_trajectory_stops_the_run_before_any_product(self, tmp_path, capsys):
        # the second scenario passes parse, but its edge amplitude 6.616e-08 trips the
        # propagator's 1e-12 entry gate; every trajectory is stepped before any file is written
        good = dict(FAST_PURE, name="good", squeeze={"A0": 1.0}, outputs=["timeseries"])
        bad = dict(good, name="bad", grid={"x_min": -5.7, "x_max": 5.7, "n_points": 128})
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({"scenarios": [good, bad]}))
        out = tmp_path / "o"
        assert self.run_cli("run", cfg, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "boundary contamination in the initial state: edge amplitude 6.616e-08" in err
        assert not out.exists() or not any(out.iterdir())

    def test_a_product_listed_twice_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_PURE, outputs=["timeseries", "verify",
                                                            "timeseries", "verify"])))
        out = tmp_path / "o"
        assert self.run_cli("run", cfg, "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            "parse error: scenario 'fast_pure'.outputs lists product 'timeseries' more than once\n")
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"name": "../x"}, "scenario name must match ^[A-Za-z0-9._-]+$: got '../x'"),
        ({"name": 5}, "scenario name must match ^[A-Za-z0-9._-]+$: got 5"),
        ({"name": "x\n"}, "scenario name must match ^[A-Za-z0-9._-]+$: got 'x\\n'"),
        ({"outputs": []}, "scenario 'fast_pure'.outputs must be a non-empty list, got []"),
        ({"outputs": "verify"},
         "scenario 'fast_pure'.outputs must be a non-empty list, got 'verify'"),
        ({"outputs": ["plot"]}, "scenario 'fast_pure'.outputs contains unknown product 'plot'; "
                                "expected ('timeseries', 'wavefunction', 'density', 'verify')"),
    ], ids=["escaping-name", "number-name", "newline-name", "no-product", "not-a-list",
            "unknown-product"])
    def test_a_bad_name_or_product_list_exit_2(self, tmp_path, capsys, change, message):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_PURE, **change)))
        out = tmp_path / "o"
        assert self.run_cli("run", cfg, "--out-dir", out) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"
        assert not out.exists()

    def test_a_boundary_error_names_the_step_of_the_whole_trajectory(self, tmp_path, capsys):
        # a ground state swinging to +-5 on +-10.66, stepped in 128-step segments between its
        # 64 sample times: the guard trips on the 13th step of the 13th segment, step 1549
        config = {"name": "edge", "squeeze": {"A0": 1.0},
                  "center": {"X_amp": 5.0, "phi_c": np.pi / 2},
                  "grid": {"x_min": -10.66, "x_max": 10.66, "n_points": 256}, "outputs": ["verify"]}
        sc = parse_one(config)
        with pytest.raises(sx.BoundaryError) as whole:
            sx.propagate(sx.eval_pure_wavefunction(sc.spec, sc.grid, 0.0), sc.osc,
                         sx.PropagatorConfig(dt=sc.dt, n_steps=8192))
        assert "at split step 1549:" in str(whole.value)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(config))
        assert self.run_cli("verify", cfg, "--out-dir", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {whole.value}\n"

    def test_parse_error_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert self.run_cli("run", cfg, "--out-dir", tmp_path) == 2
        cfg.write_text(json.dumps({"name": "m", "squeeze": {"A0": 1.0},
                                   "outputs": ["verify"], "oops": True}))
        assert self.run_cli("run", cfg, "--out-dir", tmp_path) == 2
        # JSON NaN and Infinity are rejected before anything runs
        out = tmp_path / "out"
        for bad in (dict(FAST_MIXED, sigma_a=float("nan")),
                    dict(FAST_PURE, propagator={"dt": float("inf")}),
                    dict(FAST_PURE, sample_times=[0.0, float("nan"), 1.0]),
                    # integers too large for a float
                    dict(FAST_PURE, squeeze={"A0": 10**400}),
                    dict(FAST_PURE, sample_times=[0, 10**400]),
                    # a scheme is a string; an unknown string exits 3
                    dict(FAST_PURE, propagator={"scheme": 5}),
                    dict(FAST_PURE, propagator={"scheme": None}),
                    dict(FAST_PURE, propagator={"scheme": ["implicit-unitary"]})):
            cfg.write_text(json.dumps(bad))
            assert self.run_cli("run", cfg, "--out-dir", out) == 2
            assert not list(out.glob("*"))

    @pytest.mark.parametrize("raw, message", [
        (b'{"name": "d", "squeeze": {"A0": 1.0}, "grid": {"x_min": -12, "x_max": 12, '
         b'"n_points": 64}, "sample_times": [0.0, 0.5], "outputs": ["verify"], '
         b'"outputs": ["timeseries"]}', "a config object repeats key(s) ['outputs']"),
        (b'{"name": "d", "squeeze": {"A0": 5.0, "A0": 1.0}, "grid": {"x_min": -12, "x_max": 12, '
         b'"n_points": 64}, "sample_times": [0.0, 0.5], "outputs": ["timeseries"]}',
         "a config object repeats key(s) ['A0']"),
        (b'\xff\xfe{"name": "x"}', "config is not valid JSON: "),
        (b"[" * 200_000, "config is not valid JSON: maximum recursion depth exceeded"),
        (b'{"name": "d", "outputs": ["timeseries"], "squeeze": ' + b'{"A0": ' * 50_000 + b"1"
         + b"}" * 50_001, "config is not valid JSON: maximum recursion depth exceeded"),
    ], ids=["repeated-key", "repeated-squeeze-key", "not-utf-8", "deep-list", "deep-squeeze"])
    def test_an_unreadable_document_exit_2(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "sc.json"
        cfg.write_bytes(raw)
        out = tmp_path / "o"
        assert self.run_cli("run", cfg, "--out-dir", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"parse error: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["oscillator", "center", "sigma_a", "grid", "propagator",
                                     "sample_times", "ensemble_nodes", "mc_check"])
    def test_a_null_optional_key_exit_2(self, tmp_path, capsys, key):
        # null is a value of the wrong type, not an absent key that takes its default
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({"name": "m", "squeeze": {"A0": 1.0}, "outputs": ["verify"],
                                   key: None}))
        assert self.run_cli("verify", cfg, "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"parse error: scenario 'm'.{key} must be ")

    def test_invariant_violation_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"name": "m", "squeeze": {"A0": 0.5, "dA": 0.75},
                                   "outputs": ["verify"]}))
        assert self.run_cli("run", cfg, "--out-dir", tmp_path) == 3
        assert "A0 > dA" in capsys.readouterr().err
        out = tmp_path / "out"
        for bad, message in INVARIANT_VIOLATIONS:
            cfg.write_text(json.dumps(bad))
            assert self.run_cli("run", cfg, "--out-dir", out) == 3
            assert message in capsys.readouterr().err
            assert not list(out.glob("*"))

    def test_every_invariant_violation_names_its_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        for bad, _ in INVARIANT_VIOLATIONS:
            cfg.write_text(json.dumps(bad))
            assert self.run_cli("run", cfg, "--out-dir", tmp_path / "out") == 3
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("invariant violation: scenario '"), lines

    @pytest.mark.parametrize("config, argv", [
        (dict(FAST_MIXED, sample_times=[0, 1e308]), ["run"]),
        (SCENARIOS / "mixed_p4.json", ["dump-density", "--time", "1e308"]),
        ({"name": "d", "squeeze": {"initial_variance_D": 1.0},
          "center": {"X_amp": 1.0, "phi_c": 1.7e308}, "sample_times": [0.0, 0.7],
          "outputs": ["timeseries", "verify"]}, ["run"]),
    ], ids=["mixed-sample-time", "dump-time", "phi_c"])
    def test_overflowing_phase_exit_3(self, tmp_path, capsys, config, argv):
        cfg = config
        if not isinstance(config, Path):
            cfg = tmp_path / "sc.json"
            cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli(argv[0], cfg, "--out-dir", out, *argv[1:]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert re.search(r"phase 2 \(?omega t \+ phi_(sq|c)\)? at t=\S+ = inf is not finite",
                         capsys.readouterr().err)
        assert not out.exists() or not list(out.iterdir())

    def test_huge_energies_leave_the_schrodinger_residual_finite(self, tmp_path, capsys):
        # hbar = omega = 1e150 puts |H psi| near 1e300: its squared norm overflowed to a NaN
        # residual.  72 points, not the 40 first seen, pass the momentum-coverage rule; the
        # trajectory takes its default dt = T/8192 to T/64, with T = 2 pi / 1e150.
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({
            "name": "huge", "oscillator": {"mass": 1.0, "hbar": 1e150, "angular_frequency": 1e150},
            "squeeze": {"initial_variance_D": 1.3},
            "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 72},
            "sample_times": [0.0, 2.0 * math.pi / 1e150 / 64], "outputs": ["verify"]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli("verify", cfg, "--out-dir", tmp_path / "out") == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "schrodinger-residual" in line)
        assert float(re.search(r"max residual = (\S+),", line).group(1)) <= 1e-5
        assert "PASS" in line

    def test_grid_coarser_than_the_state_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({
            "name": "wide", "squeeze": {"A0": 1.25, "dA": 0.75},
            "grid": {"x_min": -1e300, "x_max": 1e300, "n_points": 73},
            "sample_times": [0.0, 2.7155266295336338], "outputs": ["timeseries"]}))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli("run", cfg, "--out-dir", out) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert ("grid x_min=-1e+300, x_max=1e+300, n_points=73 resolves momenta up to "
                "pi hbar/h = 1.13097e-298, below the state's momentum support "
                "m omega (X_amp + 8 max std) = 8; it needs n_points >= 5.09296e+300") in err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("sigma_a, support, need", [(0.5, "36.9282", "1129.44"),
                                                        (0.0, "35.6569", "1090.59")],
                             ids=["mixed", "pure"])
    def test_momentum_beyond_the_grid_exit_3(self, tmp_path, capsys, sigma_a, support, need):
        # p_c = -8.87 at t = 0 sits on the Nyquist edge pi hbar/h = 8.34: the mixed
        # scenario passed every check while its timeseries printed var_p = 47.84 (true
        # value 0.75), and the pure one failed on the boundary guard after stepping
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({
            "name": "fast", "squeeze": {"A0": 1.0}, "center": {"X_amp": 30.0, "phi_c": 0.3},
            "sigma_a": sigma_a, "grid": {"x_min": -48.0, "x_max": 48.0, "n_points": 256},
            "sample_times": [0.0, 1.3, 4.4], "outputs": ["timeseries", "verify"]}))
        out = tmp_path / "out"
        assert self.run_cli("run", cfg, "--out-dir", out) == 3
        assert capsys.readouterr().err == (
            "invariant violation: scenario 'fast'.grid: grid x_min=-48, x_max=48, n_points=256 "
            "resolves momenta up to pi hbar/h = 8.34486, below the state's momentum support "
            f"m omega (X_amp + 8 max std) = {support}; it needs n_points >= {need}\n")
        assert not out.exists()

    @pytest.mark.parametrize("out, cause", [
        ("F", "cannot create output directory {tmp}/F: File exists"),
        ("F/sub", "cannot create output directory {tmp}/F/sub: Not a directory"),
        ("D", "cannot write {tmp}/D/fast_pure_timeseries.csv: Is a directory"),
    ], ids=["file", "under-a-file", "product-is-a-directory"])
    def test_unusable_out_dir_exit_2(self, tmp_path, capsys, monkeypatch, out, cause):
        (tmp_path / "F").write_text("")
        (tmp_path / "D" / "fast_pure_timeseries.csv").mkdir(parents=True)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(FAST_PURE))
        steps = []
        real = scenario.propagate
        monkeypatch.setattr(scenario, "propagate",
                            lambda psi, osc, cfg: steps.append(cfg.n_steps) or real(psi, osc, cfg))
        assert self.run_cli("run", cfg, "--out-dir", tmp_path / out) == 2
        assert capsys.readouterr().err.splitlines() == [f"parse error: {cause.format(tmp=tmp_path)}"]
        # the directory is made and every product path checked before any trajectory is stepped
        assert not steps

    def test_a_name_too_long_for_the_file_system_exits_2(self, tmp_path, capsys):
        name = "n" * 300
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_PURE, name=name)))
        out = tmp_path / "out"
        assert self.run_cli("run", cfg, "--out-dir", out) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"parse error: cannot write {out}/{name}_timeseries.csv: File name too long"]
        assert captured.out == ""
        assert not list(out.iterdir())
        # verify writes no product, so the name makes no path
        assert self.run_cli("verify", cfg, "--out-dir", out, "--quiet") == 0
        assert capsys.readouterr().err == ""
        assert not list(out.iterdir())

    def test_a_product_path_that_is_a_directory_stops_every_scenario(self, tmp_path, capsys):
        out = tmp_path / "D"
        (out / "fast_mixed_timeseries.csv").mkdir(parents=True)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps({"scenarios": [FAST_PURE, FAST_MIXED]}))
        assert self.run_cli("run", cfg, "--out-dir", out) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"parse error: cannot write {out}/fast_mixed_timeseries.csv: Is a directory"]
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["fast_mixed_timeseries.csv"]
        assert not list((out / "fast_mixed_timeseries.csv").iterdir())

    def test_verify_writes_nothing(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(FAST_MIXED))
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        assert self.run_cli("verify", cfg, "--quiet") == 0
        assert not list(empty.iterdir())

    def test_missing_config_exit_2(self, tmp_path):
        assert self.run_cli("run", tmp_path / "nope.json", "--out-dir", tmp_path) == 2

    def test_console_script_subprocess(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"name": "m", "squeeze": {"A0": 0.5, "dA": 0.75},
                                   "outputs": ["verify"]}))
        proc = subprocess.run([sys.executable, "-m", "squeezedx.cli", "run", str(cfg)],
                              capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert proc.returncode == 3
        assert "A0 > dA" in proc.stderr


# Parses every bundled scenario, runs the CLI on the remaining arguments (if
# any), then prints whether scipy.linalg has been imported.
IMPORT_PROBE = """
import sys
from pathlib import Path
from squeezedx import cli
from squeezedx.scenario import parse_config
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    parse_config(path.read_text())
if len(sys.argv) > 2:
    assert cli.main(sys.argv[2:]) == 0
print("scipy.linalg" in sys.modules)
"""


class TestImports:
    """Only the implicit-unitary propagator loads scipy.linalg, at its first step.

    Each case runs in a fresh interpreter, because this one has long since
    imported scipy.
    """

    @pytest.mark.parametrize("argv, loaded", [
        ([], False),
        (["run", str(SCENARIOS / "ground_state.json")], False),
        (["run", str(SCENARIOS / "mixed_p4.json")], False),
        (["verify", "implicit.json"], True),
    ], ids=["import-and-parse", "run-split-step", "run-mixed", "verify-implicit"])
    def test_scipy_linalg_loads_only_for_the_implicit_scheme(self, tmp_path, argv, loaded):
        (tmp_path / "implicit.json").write_text(json.dumps({
            "name": "implicit", "squeeze": {"A0": 1.0},
            "grid": {"x_min": -9.0, "x_max": 9.0, "n_points": 128},
            "propagator": {"scheme": "implicit-unitary", "dt": 2 * np.pi / 1024},
            "sample_times": [0.0, 0.5], "outputs": ["verify"]}))
        if argv:
            argv = [*argv, "--out-dir", str(tmp_path / "out"), "--quiet"]
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SCENARIOS), *argv],
                              capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(loaded)]


class TestMonteCarloLine:
    def test_the_mc_agreement_line_names_its_seed_and_passes(self, tmp_path, capsys):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(dict(FAST_MIXED, mc_check=True)))
        runs = {}
        for seed in ("12345", "7"):
            assert cli.main(["verify", str(cfg), "--seed", seed]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            runs[seed] = captured.out.splitlines()
        (line,) = [ln for ln in runs["12345"] if ln.startswith("[fast_mixed] mc-agreement: ")]
        # recorded while the draw still came after every closed form of the verify was built
        assert line == ("[fast_mixed] mc-agreement: PASS (peak-relative rms at 1e5 samples, "
                        "seed 12345 = 3.066e-04, tol 0.001, margin 6.934e-04)")
        changed = [(a, b) for a, b in zip(runs["12345"], runs["7"]) if a != b]
        assert len(runs["7"]) == len(runs["12345"])
        assert [a for a, _ in changed] == [line]
        assert "seed 7 = " in changed[0][1]


class TestTracedMixedRun:
    """perfbench's `--trace 1` on a mixed run binds ensemble_average_density's arguments by
    name, and perfbench's own test traces only a pure run; so this one traces a mixed run."""

    def test_instrument_traces_a_mixed_run_and_undo_restores_the_functions(self, tmp_path):
        sys.path.insert(0, str(REPO / "perfbench"))
        try:
            import layers
            import tracing
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        cfg = tmp_path / "mixed.json"
        cfg.write_text(json.dumps(dict(FAST_MIXED, mc_check=True)))

        def bindings():
            return (cli.main, mixing.ensemble_average_density, scenario.ensemble_average_density,
                    scenario.write_density_dump, states.DensityMatrixSample.__post_init__)
        originals = bindings()
        tracer = tracing.Tracer()
        undo = layers.instrument(tracer)
        try:
            assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0
        finally:
            undo()
        assert bindings() == originals
        m = layers.per_layer_metrics(tracer.spans)
        assert m["mixing.ensemble_gh_members"] > 0
        assert m["mixing.ensemble_mc_samples"] > 0
        assert m["scenario.density_dump_bytes"] > 0


class TestBundledScenarios:
    @pytest.mark.parametrize("name", ["ground_state", "squeezed_vacuum", "mixed_p4"])
    def test_bundled_configs_parse(self, name):
        scs = parse_config((SCENARIOS / f"{name}.json").read_text())
        assert scs[0].name == name

    @pytest.mark.parametrize("workload", ["pure_dynamics", "mixed_ensemble"])
    def test_benchmark_configs_parse(self, workload):
        # every 7th seed of 0-2999: a parse rule that rejected a generated config would
        # turn the benchmark's correctness gate red
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      REPO / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for seed in range(0, 3000, 7):
            config = workloads.make_config(workload, seed, REPO)
            scs = parse_config(json.dumps(config))
            assert [sc.name for sc in scs] == workloads.scenario_names(config)

    @pytest.mark.parametrize("name", ["ground_state", "squeezed_vacuum", "mixed_p4"])
    def test_run_reproduces_recorded_digests(self, name, tmp_path):
        recorded = {**json.loads((REPO / "perfbench" / "digests.json").read_text()),
                    "ground_state": GROUND_STATE_DIGESTS}[name]
        assert cli.main(["run", str(SCENARIOS / f"{name}.json"),
                         "--out-dir", str(tmp_path), "--quiet"]) == 0
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in recorded}
        assert digests == recorded

    @pytest.mark.parametrize("name, time", sorted(DENSITY_DUMP_DIGESTS))
    def test_dump_density_reproduces_recorded_digests(self, name, time, tmp_path):
        assert cli.main(["dump-density", str(SCENARIOS / f"{name}.json"), "--time", time,
                         "--out-dir", str(tmp_path), "--quiet"]) == 0
        (dump,) = tmp_path.iterdir()
        assert dump.name == f"{name}_density_t{float(time):.6g}.csv"
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == DENSITY_DUMP_DIGESTS[name, time]

    @pytest.mark.parametrize("name", ["ground_state", "squeezed_vacuum", "mixed_p4"])
    def test_verify_prints_recorded_check_lines(self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", str(SCENARIOS / f"{name}.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == VERIFY_LINES[name]
        assert captured.err == ""
