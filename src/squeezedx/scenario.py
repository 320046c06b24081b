"""Scenario configs and the run/verify/dump pipeline behind the CLI.

A scenario is a JSON document (strict: unknown keys are rejected) that names
a state, a grid, a propagator, sample times, and requested products.  See
README.md for the full schema.  All outputs are deterministic: identical
configs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, InvariantError, ParseError
from .mixing import (
    CONVERGENCE_TOL,
    DEFAULT_SEED,
    MIN_ENSEMBLE_NODES,
    MixedGaussianSpec,
    ensemble_average_density,
    eval_mixed_density,
    reparameterize,
)
from .oracle import PropagatorConfig, fidelity, propagate, purity
from .states import (
    CenterTrajectory,
    DensityMatrixSample,
    GaussianStateSpec,
    GridSpec,
    OscillatorConfig,
    SqueezeDynamics,
    _peak_relative_error,
    accumulated_phase,
    center_state,
    eval_pure_density,
    eval_pure_wavefunction,
    moments,
    ode_residuals,
    quadrature_shape,
    schrodinger_residual,
    squeeze_from_initial_variance,
)

__all__ = [
    "Scenario",
    "ScenarioResult",
    "parse_config",
    "run_scenario",
    "run_scenarios",
    "verify_scenario",
    "emit_timeseries",
    "density_at",
    "write_wavefunction_dump",
    "write_density_dump",
    "read_density_dump",
]

PRODUCTS = ("timeseries", "wavefunction", "density", "verify")

TIMESERIES_COLUMNS = ("t", "A", "B", "phi", "x_c", "p_c", "var_x", "var_p",
                      "cov_xp", "uncertainty_product", "purity", "fidelity_numeric")

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")

# Bounds that Scenario checks before anything is allocated.  One N x N complex density at
# 4096 points takes 256 MiB, and a timeseries row adds only tiles of states.TILE_VALUES to
# it (row peak measured with tracemalloc at 2048 points: 65.0 MiB for a 64 MiB matrix).
# A mixed verify peaks at 5.0 densities (tracemalloc; 321.6 MiB at 2048 points): about 1.3 GiB
# for each of up to 4 pooled scenarios at 4096, not measured, so mixed grids stop at 2048.
# 2**20 steps are 128 periods at dt = T/8192, 2**12 sample times 64 periods at 64 per period;
# 128 nodes per axis let the node-doubling guard sum at most 256**2 = 65,536 members.
MAX_GRID_POINTS = 4096
MAX_MIXED_GRID_POINTS = 2048
MAX_STEPS = 2**20
MAX_SAMPLE_TIMES = 2**12
MAX_ENSEMBLE_NODES = 128


def _fmt(value) -> str:
    """17 significant digits; blank for missing values; no negative zero."""
    return "" if value is None else format(value + 0.0, ".17g")


# ---------------------------------------------------------------------------
# strict config parsing
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set, required: set, ctx: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) in {ctx}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"missing required key(s) in {ctx}: {sorted(missing)}")


# the JSON types each kind of config value may take, and what a refusal says it must be
_KINDS = {"number": ((int, float), "a number (finite)"), "integer": ((int,), "an integer"),
          "string": ((str,), "a string"), "boolean": ((bool,), "a boolean"),
          "list": ((list,), "a non-empty list"), "object": ((dict,), "an object")}


def _read(obj, key, ctx: str, kind: str, default=MISSING):
    """``obj[key]`` as a value of ``kind``, a number as a float, or ``default`` if one is given
    and the key is absent.  The parser's one test of a JSON type: it refuses any other value
    with "<ctx>.<key> must be <kind>, got <value>", or "<ctx>[<index>] ..." in a list."""
    if default is not MISSING and key not in obj:
        return default
    value, (types, what) = obj[key], _KINDS[kind]
    try:  # type(), not isinstance(): true and false are neither numbers nor integers
        ok = type(value) in types and (kind != "number" or math.isfinite(value))
    except OverflowError:  # an integer past the float range
        ok = False
    if not ok or value == []:  # a list must not be empty
        where = f"{ctx}[{key}]" if type(key) is int else f"{ctx}.{key}"
        got = repr(value)  # at most 500 characters: a huge value still makes a readable line
        got = got if len(got) <= 500 else got[:497] + "..."
        raise ParseError(f"{where} must be {what}, got {got}")
    return float(value) if kind == "number" else value


def _named(ctx: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; an InvariantError it raises is raised again, naming ``ctx``."""
    try:
        return build(*args, **kwargs)
    except InvariantError as exc:
        raise type(exc)(f"{ctx}: {exc}") from exc


def _section(cls, obj: dict, ctx: str):
    """Build the dataclass ``cls`` from a config section.

    The fields of ``cls`` are the allowed keys, those without a default are
    required, a missing key takes the field's default, and each value is read
    as the integer or finite float its (string) annotation names.
    """
    keys = fields(cls)
    _check_keys(obj, {f.name for f in keys}, {f.name for f in keys if f.default is MISSING}, ctx)
    return _named(ctx, cls, **{f.name: _read(obj, f.name, ctx, "integer" if f.type == "int"
                                             else "number") for f in keys if f.name in obj})


@dataclass(frozen=True)
class Scenario:
    """A scenario whose every value rule holds, however it was built: ready to run."""

    name: str
    state: MixedGaussianSpec  # sigma_a = 0 for a pure state
    grid: GridSpec
    scheme: str
    dt: float
    sample_times: tuple
    outputs: tuple
    ensemble_nodes: int
    mc_check: bool

    def __post_init__(self):
        # the name and the products make the product file names; their rules exit 2
        if not isinstance(self.name, str) or not _NAME_RE.fullmatch(self.name):
            raise ParseError(f"scenario name must match {_NAME_RE.pattern}: got {self.name!r}")
        ctx, spec, grid, times, dt = (f"scenario {self.name!r}", self.spec, self.grid,
                                      self.sample_times, self.dt)
        if not self.outputs:
            raise ParseError(f"{ctx}.outputs must be a non-empty list")
        for p in self.outputs:
            if p not in PRODUCTS:
                raise ParseError(f"{ctx}.outputs contains unknown product {p!r}; "
                                 f"expected {PRODUCTS}")
            if self.outputs.count(p) > 1:
                raise ParseError(f"{ctx}.outputs lists product {p!r} more than once")
        if grid.n_points > (bound := MAX_MIXED_GRID_POINTS if self.is_mixed else MAX_GRID_POINTS):
            raise InvariantError(f"{ctx}.grid: n_points={grid.n_points} exceeds {bound}")
        _named(f"{ctx}.propagator", PropagatorConfig, self.scheme, dt=dt, n_steps=1)
        if len(times) > MAX_SAMPLE_TIMES:
            raise InvariantError(f"{ctx}: {len(times)} sample_times, more than {MAX_SAMPLE_TIMES}")
        if not times or any(b <= a for a, b in zip(times, times[1:])):
            raise InvariantError(f"{ctx}: sample_times must be non-empty and strictly increasing")
        if self.steps:  # the trajectory is stepped from t = 0 to step round(t/dt) of each time
            if not times[-1] / dt <= MAX_STEPS:
                raise InvariantError(f"{ctx}: propagator dt={dt!r} needs {times[-1] / dt:.3g} "
                                     f"steps to reach t={times[-1]!r}, more than {MAX_STEPS}")
            steps = [0] + [_step(t, dt) for t in times if t > 0]
            if times[0] < 0 or any(b <= a for a, b in zip(steps, steps[1:])):
                raise InvariantError(f"{ctx}: a trajectory stepped from t = 0 by dt={dt!r} does "
                                     "not resolve sample_times: each time must be >= 0 and each "
                                     "positive one land on its own step round(t/dt) >= 1")
            if not times[-1] > 0:  # else propagation-fidelity compares psi(0) with itself
                raise InvariantError(f"{ctx}: a stepped trajectory needs a positive sample time")
        if self.is_mixed and "wavefunction" in self.outputs:
            raise InvariantError(f"{ctx}: wavefunction product requires a pure state (P = 1): "
                                 f"P = {spec.purity_product!r}")
        if not MIN_ENSEMBLE_NODES <= self.ensemble_nodes <= MAX_ENSEMBLE_NODES:
            raise InvariantError(f"{ctx}: ensemble_nodes={self.ensemble_nodes} is outside "
                                 f"{MIN_ENSEMBLE_NODES}..{MAX_ENSEMBLE_NODES}")
        # the phases the closed forms take at the sample times
        osc, sq, c, omega = self.osc, spec.squeeze, spec.center, self.osc.angular_frequency
        phases = [("m omega X_amp^2 / hbar", osc.mass * omega * c.X_amp * c.X_amp / osc.hbar)]
        for t in times:
            phases += [(f"2 omega t + phi_sq at t={t!r}", 2.0 * omega * t + sq.phi_sq),
                       (f"2 (omega t + phi_c) at t={t!r}", 2.0 * (omega * t + c.phi_c))]
        bad = [f"{what} = {value}" for what, value in phases if not math.isfinite(value)]
        if bad:
            raise InvariantError(f"{ctx}: phase {bad[0]} is not finite")
        _named(f"{ctx}.grid", grid.require_coverage, spec)  # after the phase rule, which wins

    @cached_property
    def spec(self) -> GaussianStateSpec:
        """The closed form's state: A0 and P include any classical spread."""
        return reparameterize(self.state)

    @property
    def osc(self) -> OscillatorConfig:
        return self.state.base.osc

    @property
    def is_mixed(self) -> bool:
        return self.state.sigma_a > 0

    @property
    def steps(self) -> bool:
        """True iff the trajectory is stepped: a pure state whose timeseries or verify needs it."""
        return not self.is_mixed and not {"timeseries", "verify"}.isdisjoint(self.outputs)

    @cached_property
    def fidelities(self) -> tuple:
        """Fidelity of the propagated state against the closed form at each sample time.

        Pure states only.  Propagation advances by whole steps, so each comparison happens
        at the nearest reachable step time; numeric and analytic states are always evaluated
        at the same instant.  The trajectory is stepped once per instance.
        """
        psi = eval_pure_wavefunction(self.spec, self.grid, 0.0)
        fids = []
        for t in self.sample_times:
            n_steps = _step(t, self.dt) - _step(psi.time, self.dt)
            if n_steps > 0:
                cfg = PropagatorConfig(self.scheme, dt=self.dt, n_steps=n_steps)
                psi = propagate(psi, self.osc, cfg)
            fids.append(fidelity(psi, eval_pure_wavefunction(self.spec, self.grid, psi.time)))
        return tuple(fids)


def _step(t: float, dt: float) -> int:
    """The propagation step whose time is nearest to t."""
    return round(t / dt)


def _parse_scenario(obj: dict) -> Scenario:
    """Read a scenario's keys, types and list shapes; Scenario judges its values."""
    _check_keys(obj, {"name", "oscillator", "squeeze", "center", "sigma_a", "grid", "propagator",
                      "sample_times", "outputs", "ensemble_nodes", "mc_check"},
                {"name", "squeeze", "outputs"}, "scenario")

    ctx = f"scenario {obj['name']!r}"

    osc = _section(OscillatorConfig, _read(obj, "oscillator", ctx, "object", {}),
                   f"{ctx}.oscillator")

    sq_obj = _read(obj, "squeeze", ctx, "object")
    if "initial_variance_D" in sq_obj:
        _check_keys(sq_obj, {"initial_variance_D"}, {"initial_variance_D"}, f"{ctx}.squeeze")
        squeeze = _named(f"{ctx}.squeeze", squeeze_from_initial_variance,
                         _read(sq_obj, "initial_variance_D", f"{ctx}.squeeze", "number"), osc)
    else:
        squeeze = _section(SqueezeDynamics, sq_obj, f"{ctx}.squeeze")

    center = _section(CenterTrajectory, _read(obj, "center", ctx, "object", {}), f"{ctx}.center")

    state = _named(ctx, MixedGaussianSpec, GaussianStateSpec(osc, squeeze, center),
                   _read(obj, "sigma_a", ctx, "number", 0.0))

    if "grid" not in obj:
        grid = _named(f"{ctx}.grid", GridSpec.for_state, reparameterize(state),
                      256 if state.sigma_a > 0 else 1024)
    else:
        grid = _section(GridSpec, _read(obj, "grid", ctx, "object"), f"{ctx}.grid")

    p_obj = _read(obj, "propagator", ctx, "object", {})
    _check_keys(p_obj, {"scheme", "dt"}, set(), f"{ctx}.propagator")
    scheme = _read(p_obj, "scheme", f"{ctx}.propagator", "string", "spectral-split-step")
    dt = _read(p_obj, "dt", f"{ctx}.propagator", "number", osc.period / 8192.0)

    if "sample_times" not in obj:
        times = tuple(k * osc.period / 64.0 for k in range(64))
    else:
        entries = _read(obj, "sample_times", ctx, "list")
        times = tuple(_read(entries, i, f"{ctx}.sample_times", "number")
                      for i in range(len(entries)))

    return Scenario(name=obj["name"], state=state, grid=grid, scheme=scheme, dt=dt,
                    sample_times=times, outputs=tuple(_read(obj, "outputs", ctx, "list")),
                    ensemble_nodes=_read(obj, "ensemble_nodes", ctx, "integer", 32),
                    mc_check=_read(obj, "mc_check", ctx, "boolean", False))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a ParseError if it repeats a key, whose meaning RFC 8259
    leaves open (``json`` alone would keep the last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = sorted(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ParseError(f"a config object repeats key(s) {repeated}")
    return obj


def parse_config(text: str | bytes) -> list:
    """Parse a config document into scenarios.

    The document is either a single scenario object or {"scenarios": [...]}, as text or as
    bytes in UTF-8, UTF-16 or UTF-32, which ``json`` detects.
    """
    try:
        root = json.loads(text, object_pairs_hook=_unique_keys)
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:  # also bad bytes, huge integers, deep nesting
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    doc = _read({"root": root}, "root", "config", "object")
    if "scenarios" in doc:
        _check_keys(doc, {"scenarios"}, {"scenarios"}, "config")
        entries = _read(doc, "scenarios", "config", "list")
        scenarios = [_parse_scenario(_read(entries, i, "config.scenarios", "object"))
                     for i in range(len(entries))]
    else:
        scenarios = [_parse_scenario(doc)]
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ParseError(f"scenario names must be unique: {names}")
    return scenarios


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def density_at(sc: Scenario, t: float) -> DensityMatrixSample:
    if sc.is_mixed:
        return eval_mixed_density(sc.spec, sc.grid, t)
    return eval_pure_density(sc.spec, sc.grid, t)


def emit_timeseries(sc: Scenario, path: Path) -> None:
    """Write the per-sample-time table; see TIMESERIES_COLUMNS for the layout.

    phi and fidelity_numeric are blank for mixed states (a mixed density
    matrix carries no global phase and is not propagated here).
    """
    spec = sc.spec
    omega = sc.osc.angular_frequency
    rows = []
    fidelities = [None] * len(sc.sample_times) if sc.is_mixed else sc.fidelities
    for t, fid in zip(sc.sample_times, fidelities):
        A, B = quadrature_shape(spec.squeeze, omega, t)
        x_c, p_c = center_state(spec.center, sc.osc, t)
        dm = density_at(sc, t)
        mom = moments(dm, sc.osc)
        pur = purity(dm)
        del dm  # so the next row's matrix is built with none other held
        phi = None if sc.is_mixed else accumulated_phase(spec.squeeze, spec.center, sc.osc, t)
        rows.append((t, A, B, phi, x_c, p_c, mom.var_x, mom.var_p, mom.cov_xp,
                     mom.uncertainty_product, pur, fid))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TIMESERIES_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_wavefunction_dump(sc: Scenario, t: float, path: Path) -> None:
    """Header ``n_points,x_min,x_max,t`` then one ``x,re,im`` row per point."""
    wf = eval_pure_wavefunction(sc.spec, sc.grid, t)
    x = sc.grid.points()
    with open(path, "w", newline="") as fh:
        fh.write(f"{sc.grid.n_points},{_fmt(sc.grid.x_min)},{_fmt(sc.grid.x_max)},{_fmt(t)}\n")
        for xi, v in zip(x, wf.values):
            fh.write(f"{_fmt(xi)},{_fmt(v.real)},{_fmt(v.imag)}\n")


def write_density_dump(dm: DensityMatrixSample, path: Path) -> None:
    """Header ``n_points,x_min,x_max,t`` then n_points^2 ``re,im`` rows, row-major."""
    g = dm.grid
    # plain %.17g, unlike _fmt, keeps negative zeros; each row is read as re, im pairs
    row_fmt = "%.17g,%.17g\n" * g.n_points
    parts = np.ascontiguousarray(dm.values).view(np.float64)
    with open(path, "w", newline="") as fh:
        fh.write(f"{g.n_points},{_fmt(g.x_min)},{_fmt(g.x_max)},{_fmt(dm.time)}\n")
        for row in parts:
            fh.write(row_fmt % tuple(row.tolist()))


def read_density_dump(path: Path) -> DensityMatrixSample:
    """Inverse of write_density_dump.

    No CLI path calls it; it is public as the reference that the tests read the
    dump writer's files back through and compare with the matrix written.
    """
    with open(path, encoding="ascii", errors="replace") as fh:  # a bad byte is not a number
        header = fh.readline().strip().split(",")
        if len(header) != 4:
            raise ParseError(f"density dump header must have 4 fields: {header}")
        try:
            n = int(header[0])
            x_min, x_max, t = (float(text) for text in header[1:])
        except ValueError as exc:
            raise ParseError(f"density dump header field is not a number: {exc}") from None
        grid = GridSpec(x_min, x_max, n)
        try:
            data = np.loadtxt(fh, delimiter=",")
        except ValueError as exc:
            raise ParseError(f"density dump body field is not a number: {exc}") from None
    if data.shape != (n * n, 2):
        raise ParseError(f"density dump body must have {n * n} re,im rows, got {data.shape}")
    values = (data[:, 0] + 1j * data[:, 1]).reshape(n, n)
    return DensityMatrixSample(grid=grid, values=values, time=t)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _probe_times(sc: Scenario) -> list:
    """First, middle and last sample time, each distinct time once."""
    times = sc.sample_times
    return list(dict.fromkeys([times[0], times[len(times) // 2], times[-1]]))


def _verify_pure(sc: Scenario):
    spec = sc.spec
    osc = sc.osc
    omega = osc.angular_frequency
    times = np.asarray(sc.sample_times)

    rmax = float(np.max(ode_residuals(spec.squeeze, osc, times)))
    yield "ode-residuals", "max residual", rmax, 1e-6

    res = max(schrodinger_residual(spec, sc.grid, t) for t in _probe_times(sc))
    yield "schrodinger-residual", "max residual", res, 1e-5

    s2 = osc.ground_variance
    var_err = 0.0
    for t in sc.sample_times:
        A, _ = quadrature_shape(spec.squeeze, omega, t)
        var_x = moments(eval_pure_wavefunction(spec, sc.grid, t), osc).var_x
        var_err = max(var_err, abs(var_x - s2 * A) / (s2 * A))
    yield "variance-law", "max rel |var_x - sigma_gr^2 A|", var_err, 1e-8

    if spec.center.X_amp == 0.0:
        dphi = (accumulated_phase(spec.squeeze, spec.center, osc, times + np.pi / omega)
                - accumulated_phase(spec.squeeze, spec.center, osc, times))
        phase_err = float(np.abs(dphi - np.pi / 2).max())
        yield "phase-law", "max |dphi - pi/2|", phase_err, 1e-9
        if spec.squeeze.dA == 0.0:
            # constant-width states accumulate phase at exactly omega/2
            # (phi(0) is a phi_sq-dependent constant)
            phi = accumulated_phase(spec.squeeze, spec.center, osc, times)
            phi0 = accumulated_phase(spec.squeeze, spec.center, osc, 0.0)
            gerr = float(np.abs(phi - phi0 - omega * times / 2).max())
            yield "ground-phase", "max |phi - phi(0) - omega t / 2|", gerr, 1e-12

    # at t = 0 the propagated state is the closed form itself
    yield ("propagation-fidelity", "max |1 - fidelity| at t > 0",
           max(abs(1.0 - f) for t, f in zip(sc.sample_times, sc.fidelities) if t > 0), 1e-6)


def _verify_mixed(sc: Scenario, seed: int):
    probe = _probe_times(sc)
    dms = [eval_mixed_density(sc.spec, sc.grid, t) for t in probe]
    pur_err = max(abs(purity(dm) - 1.0 / np.sqrt(sc.spec.purity_product)) for dm in dms)
    yield "purity-law", "max |purity - P^-1/2|", pur_err, 1e-5

    del dms[1:-1]  # the middle probe's matrix, which no other check reads
    try:
        # the first and last probes: at the middle one, T/2 when a period is sampled evenly,
        # the members' rotation is -1 and their shape that of t = 0, so a wrong rotation passes
        ens_err = max(_peak_relative_error(ensemble_average_density(
            sc.state, sc.grid, t, sc.ensemble_nodes).values, dm.values)
            for t, dm in {probe[0]: dms[0], probe[-1]: dms[-1]}.items())
    except ConvergenceError as exc:
        yield ("ensemble-agreement", f"node-doubling drift at {sc.ensemble_nodes} nodes",
               exc.drift, CONVERGENCE_TOL)
    else:
        yield ("ensemble-agreement", f"max peak-relative error at {sc.ensemble_nodes} nodes",
               ens_err, 1e-8)

    if sc.mc_check:
        rho = dms[0].values
        ens = ensemble_average_density(sc.state, sc.grid, probe[0], method="monte-carlo",
                                       seed=seed)
        rms = float(np.sqrt(np.mean(np.abs(ens.values - rho) ** 2))) / float(np.abs(rho).max())
        yield "mc-agreement", f"peak-relative rms at 1e5 samples, seed {seed}", rms, 1e-3


def verify_scenario(sc: Scenario, seed: int = DEFAULT_SEED) -> list:
    """Run all verification checks; returns their [(ok, line), ...].  The one judge of a
    check record (label, what, value, tol): it passes iff value <= tol, so NaN fails."""
    lines = []
    for label, what, value, tol in _verify_mixed(sc, seed) if sc.is_mixed else _verify_pure(sc):
        ok = bool(value <= tol)
        lines.append((ok, f"[{sc.name}] {label}: {'PASS' if ok else 'FAIL'} "
                          f"({what} = {value:.3e}, tol {tol:g}, margin {tol - value:.3e})"))
    return lines


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    lines: list
    files: list

    @property
    def verified(self) -> bool:
        """True iff every check line passed (also when no check ran)."""
        return all(ok for ok, _ in self.lines)


def _product_paths(sc: Scenario, out_dir: Path) -> dict:
    """The file of each product in ``sc.outputs`` but verify; no negative zero in a name."""
    t = sc.sample_times[-1] + 0.0
    return {product: out_dir / (f"{sc.name}_timeseries.csv" if product == "timeseries"
                                else f"{sc.name}_{product}_t{t:.6g}.csv")
            for product in sc.outputs if product != "verify"}


def _prepare_out_dir(scenarios, out_dir: Path) -> None:
    """Create ``out_dir`` if some scenario writes a product file, then refuse any product
    path that is a directory, so that a bad path stops the command before anything is
    computed or written."""
    paths = [path for sc in scenarios for path in _product_paths(sc, out_dir).values()]
    if paths:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParseError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    for path in paths:
        if path.is_dir():
            raise ParseError(f"cannot write {path}: Is a directory")


def run_scenario(sc: Scenario, out_dir: Path, seed: int = DEFAULT_SEED) -> ScenarioResult:
    """Make the products ``sc.outputs`` names; dumps are taken at the last sample time."""
    _prepare_out_dir([sc], out_dir)
    paths = _product_paths(sc, out_dir)
    files: list = []
    lines: list = []
    t = sc.sample_times[-1]
    for product in sc.outputs:
        if product == "verify":
            lines = verify_scenario(sc, seed=seed)
            continue
        path = paths[product]
        try:
            if product == "timeseries":
                emit_timeseries(sc, path)
            elif product == "wavefunction":
                write_wavefunction_dump(sc, t, path)
            else:
                write_density_dump(density_at(sc, t), path)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc.strerror}") from exc
        files.append(path)
    return ScenarioResult(lines=lines, files=files)


def run_scenarios(scenarios, out_dir: Path, seed: int = DEFAULT_SEED):
    """Run scenarios in a pool, results in input order.  The output directory is made and
    every product path checked first, then pure trajectories are stepped, here and one at a
    time: two stepping loops in the pool would trade the GIL at every step."""
    _prepare_out_dir(scenarios, out_dir)
    for sc in scenarios:
        if sc.steps:
            sc.fidelities  # fills the cache, so no worker steps
    with ThreadPoolExecutor(max_workers=min(4, len(scenarios))) as pool:
        return list(pool.map(lambda sc: run_scenario(sc, out_dir, seed), scenarios))
