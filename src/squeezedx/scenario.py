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
import threading
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
    MixedGaussianSpec,
    _require_nodes,
    ensemble_average_density,
    eval_mixed_density,
    reparameterize,
)
from .oracle import PropagatorConfig, _sample_steps, fidelity, propagate, purity
from .states import (
    CenterTrajectory,
    DensityMatrixSample,
    GaussianStateSpec,
    GridSpec,
    OscillatorConfig,
    SqueezeDynamics,
    _ode_terms,
    _peak_relative_error,
    _require_points,
    _require_pure,
    accumulated_phase,
    center_state,
    eval_pure_density,
    eval_pure_wavefunction,
    moments,
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

# Bounds that Scenario checks before anything is allocated.  2**12 sample times are 64 periods
# at 64 per period.  states bounds the N x N grid, pure or mixed, and oracle the steps; a mixed
# verify peaks at 4.0 densities (tracemalloc: 1025.7 MiB at 4096 points), one scenario at a time.
MAX_SAMPLE_TIMES = 2**12


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
    state: MixedGaussianSpec  # mixed iff the closed form's P exceeds 1; see is_mixed
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
        _named(f"{ctx}.grid", _require_points, grid.n_points)
        _named(f"{ctx}.propagator", PropagatorConfig, self.scheme, dt=dt, n_steps=1)
        if len(times) > MAX_SAMPLE_TIMES:
            raise InvariantError(f"{ctx}: {len(times)} sample_times, more than {MAX_SAMPLE_TIMES}")
        if not times or any(b <= a for a, b in zip(times, times[1:])):
            raise InvariantError(f"{ctx}: sample_times must be non-empty and strictly increasing")
        if self.steps:
            _named(ctx, _sample_steps, times, dt)
        if "wavefunction" in self.outputs:
            _named(ctx, _require_pure, spec, "wavefunction product")
        _named(ctx, _require_nodes, self.ensemble_nodes, "ensemble_nodes")
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
        """True iff the closed form's P exceeds 1 by more than the rounding allowance."""
        return not self.spec.is_pure

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
        steps = _sample_steps(self.sample_times, self.dt)
        for done, step in zip((0,) + steps, steps):
            if step > done:
                cfg = PropagatorConfig(self.scheme, dt=self.dt, n_steps=step - done)
                psi = propagate(psi, self.osc, cfg)
            fids.append(fidelity(psi, eval_pure_wavefunction(self.spec, self.grid, psi.time)))
        return tuple(fids)

    @cached_property
    def density_rows(self) -> tuple:
        """``_density_row`` at each sample time, built once per instance, one matrix at a time."""
        return tuple(_density_row(self, t) for t in self.sample_times)


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
        spec = reparameterize(state)
        grid = _named(f"{ctx}.grid", GridSpec.for_state, spec, 1024 if spec.is_pure else 256)
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


def _density_row(sc: Scenario, t: float) -> tuple:
    """var_x, var_p, cov_xp, uncertainty product and purity of the closed-form density at t;
    the matrix is freed on return, so the next row's is built with none other held."""
    dm = density_at(sc, t)
    mom = moments(dm, sc.osc)
    return mom.var_x, mom.var_p, mom.cov_xp, mom.uncertainty_product, purity(dm)


def emit_timeseries(sc: Scenario, path: Path) -> None:
    """Write the per-sample-time table; see TIMESERIES_COLUMNS for the layout.

    phi and fidelity_numeric are blank for mixed states (a mixed density
    matrix carries no global phase and is not propagated here).
    """
    spec = sc.spec
    omega = sc.osc.angular_frequency
    rows = []
    fidelities = [None] * len(sc.sample_times) if sc.is_mixed else sc.fidelities
    for t, density_row, fid in zip(sc.sample_times, sc.density_rows, fidelities):
        A, B = quadrature_shape(spec.squeeze, omega, t)
        x_c, p_c = center_state(spec.center, sc.osc, t)
        phi = None if sc.is_mixed else accumulated_phase(spec.squeeze, spec.center, sc.osc, t)
        rows.append((t, A, B, phi, x_c, p_c, *density_row, fid))
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

    # each residual in units of its equation's largest term over the sample times, so that a
    # strong squeeze's round-off is not read as a defect; or of omega, where every term is
    # smaller (r1 at dA = 0), as the central differences' round-off does not shrink with them
    rmax = 0.0
    for terms in _ode_terms(spec.squeeze, osc, times):
        scale = max([omega] + [float(np.max(np.abs(term))) for term in terms])
        rmax = max(rmax, float(np.max(np.abs(sum(terms)))) / scale)
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
    pur_errs, ens_errs, drift = [], [], None
    for t in probe:
        dm = eval_mixed_density(sc.spec, sc.grid, t)
        pur_errs.append(abs(purity(dm) - 1.0 / np.sqrt(sc.spec.purity_product)))
        # the first and last probes: at the middle one, T/2 when a period is sampled evenly,
        # the members' rotation is -1 and their shape that of t = 0, so a wrong rotation passes
        if t in (probe[0], probe[-1]) and drift is None:
            try:
                ens_errs.append(_peak_relative_error(ensemble_average_density(
                    sc.state, sc.grid, t, sc.ensemble_nodes).values, dm.values))
            except ConvergenceError as exc:
                drift = exc.drift
        if sc.mc_check and t == probe[0]:
            rms = float(np.sqrt(np.mean(np.abs(ensemble_average_density(
                sc.state, sc.grid, t, method="monte-carlo", seed=seed).values - dm.values) ** 2)))
            rms /= float(np.abs(dm.values).max())
        del dm  # so the next probe's density is built with none other held
    yield "purity-law", "max |purity - P^-1/2|", max(pur_errs), 1e-5
    if drift is None:
        yield ("ensemble-agreement", f"max peak-relative error at {sc.ensemble_nodes} nodes",
               max(ens_errs), 1e-8)
    else:
        yield ("ensemble-agreement", f"node-doubling drift at {sc.ensemble_nodes} nodes",
               drift, CONVERGENCE_TOL)
    if sc.mc_check:
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
        try:
            is_dir = path.is_dir()
        except OSError as exc:  # a name too long for the file system
            raise ParseError(f"cannot write {path}: {exc.strerror}") from exc
        if is_dir:
            raise ParseError(f"cannot write {path}: Is a directory")


def run_scenario(sc: Scenario, out_dir: Path, seed: int = DEFAULT_SEED) -> ScenarioResult:
    """Make the products ``sc.outputs`` names; dumps are taken at the last sample time."""
    _prepare_out_dir([sc], out_dir)
    paths = _product_paths(sc, out_dir)
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
    return ScenarioResult(lines=lines, files=list(paths.values()))


def run_scenarios(scenarios, out_dir: Path, seed: int = DEFAULT_SEED):
    """Run scenarios, results in input order.

    The output directory is made and every product path checked first.  The pool's one job is
    the timeseries' density rows, one task per scenario, which build (releasing the GIL) while
    the pure trajectories step here one at a time: two stepping loops would trade the GIL at
    each step.  A failed step or row stops the row tasks and is raised before any file is
    written.  The rows are stored here, so no pool thread writes to a scenario.  Then each
    scenario in turn writes its products and runs its checks here.
    """
    _prepare_out_dir(scenarios, out_dir)
    stop = threading.Event()

    def rows(sc):  # after an error, no task starts another row
        return tuple(_density_row(sc, t) for t in sc.sample_times if not stop.is_set())

    with ThreadPoolExecutor(max_workers=min(4, len(scenarios))) as pool:
        tasks = [(sc, pool.submit(rows, sc)) for sc in scenarios if "timeseries" in sc.outputs]
        try:
            for sc in scenarios:
                if sc.steps:
                    sc.fidelities  # steps the trajectory here, while the rows build
            for sc, task in tasks:  # stop is still clear, so a finished task built every row
                object.__setattr__(sc, "density_rows", task.result())
        finally:
            stop.set()
    return [run_scenario(sc, out_dir, seed) for sc in scenarios]
