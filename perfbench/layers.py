"""squeezedx's layers as the benchmark traces them, and the per-layer metrics.

``instrument`` wraps every public function of ``states``, ``oracle``,
``mixing``, ``scenario`` and ``cli`` where it is bound in each of those
modules (they import each other by name), plus the validation hook of
``DensityMatrixSample``.  ``per_layer_metrics`` turns the spans of one
traced ``squeezedx run`` into the metrics listed in ``PER_LAYER``.  All
``_s`` metrics are self times summed over calls, so they partition the
traced run; counts marked computed come from array sizes.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from pathlib import Path

from tracing import concurrency, pool_overlap, self_times

LAYERS = ("states", "oracle", "mixing", "scenario", "cli")

# (name, unit, better) of every metric a traced run reports.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("scenario.parse_config_s", "s", "lower"),
    ("states.eval_pure_density_calls", "count", "lower"),
    ("states.eval_pure_density_s", "s", "lower"),
    ("states.moments_density_calls", "count", "lower"),
    ("states.moments_density_s", "s", "lower"),
    ("states.density_validate_s", "s", "lower"),
    ("states.density_matrices_built", "count", "lower"),
    ("states.density_bytes", "B", "lower"),
    ("states.eval_pure_wavefunction_calls", "count", "lower"),
    ("states.moments_wavefunction_s", "s", "lower"),
    ("states.schrodinger_residual_s", "s", "lower"),
    ("oracle.propagate_calls", "count", "lower"),
    ("oracle.propagate_steps", "count", "lower"),
    ("oracle.propagate_s", "s", "lower"),
    ("oracle.split_step_us_per_step", "us", "lower"),
    ("oracle.cayley_us_per_step", "us", "lower"),
    ("oracle.fft_floor_us_per_step", "us", "lower"),
    ("oracle.fidelity_calls", "count", "lower"),
    ("oracle.purity_calls", "count", "lower"),
    ("oracle.purity_s", "s", "lower"),
    ("mixing.eval_mixed_density_calls", "count", "lower"),
    ("mixing.eval_mixed_density_s", "s", "lower"),
    ("mixing.reparameterize_calls", "count", "lower"),
    ("mixing.ensemble_gh_s", "s", "lower"),
    ("mixing.ensemble_gh_members", "count", "lower"),
    ("mixing.ensemble_mc_s", "s", "lower"),
    ("mixing.ensemble_mc_samples", "count", "lower"),
    ("scenario.emit_timeseries_self_s", "s", "lower"),
    ("scenario.verify_self_s", "s", "lower"),
    ("scenario.density_at_calls", "count", "lower"),
    ("scenario.write_density_dump_s", "s", "lower"),
    ("scenario.density_dump_bytes", "B", "lower"),
    ("scenario.bytes_written", "B", "lower"),
    ("scenario.pool_overlap", "ratio", "higher"),
    ("states.self_s", "s", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("mixing.self_s", "s", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.concurrency_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _file_bytes(path) -> dict:
    return {"bytes": Path(path).stat().st_size}


def _describers(mods) -> dict:
    """Span name -> describe(*args, **kwargs) -> (name suffix, attrs)."""
    mixing = mods["mixing"]
    ensemble = mixing.ensemble_average_density

    def ensemble_call(*args, **kwargs):
        a = _bound(ensemble, args, kwargs)
        if a["spec"].sigma_a == 0.0:
            return "_analytic", {}
        if a["method"] == "monte-carlo":
            return "_mc", {"samples": a["n_samples"]}
        n = a["n_nodes"]
        return "_gh", {"members": n * n + ((2 * n) ** 2 if a["check_convergence"] else 0)}

    return {
        "states.moments": lambda sample, osc: (
            "_density" if sample.values.ndim == 2 else "_wavefunction", {}),
        "states.density_validate": lambda dm: (
            "", {"bytes": 16 * dm.grid.n_points ** 2}),
        "oracle.propagate": lambda psi0, osc, cfg: (
            "", {"steps": cfg.n_steps, "scheme": cfg.scheme, "n": psi0.grid.n_points}),
        "mixing.ensemble_average_density": ensemble_call,
        "scenario.emit_timeseries": lambda sc, path: ("", _file_bytes(path)),
        "scenario.write_wavefunction_dump": lambda sc, t, path: ("", _file_bytes(path)),
        "scenario.write_density_dump": lambda dm, path: ("", _file_bytes(path)),
        "scenario.run_scenario": lambda sc, *args, **kwargs: ("", {"scenario": sc.name}),
    }


def instrument(tracer):
    """Route every call into the public functions of LAYERS through ``tracer``.

    Returns a function that puts the original functions back.
    """
    mods = {layer: importlib.import_module(f"squeezedx.{layer}") for layer in LAYERS}
    describers = _describers(mods)
    traced = {}  # id(original) -> (original, wrapper)
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                span = f"{layer}.{name}"
                traced[id(obj)] = (obj, tracer.wrap(span, obj, describers.get(span)))

    patches = []
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            hit = traced.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, name, obj))
                setattr(mod, name, hit[1])
    density = mods["states"].DensityMatrixSample
    patches.append((density, "__post_init__", density.__post_init__))
    density.__post_init__ = tracer.wrap("states.density_validate", density.__post_init__,
                                        describers["states.density_validate"])

    def undo():
        for target, name, original in reversed(patches):
            setattr(target, name, original)
    return undo


def per_layer_metrics(spans) -> dict:
    """Metrics of one traced command from its spans (every PER_LAYER name but the
    set-up, FFT-floor and trace.run/overhead ones, which the worker measures)."""
    selfs = self_times(spans)
    calls = Counter(s.name for s in spans)
    self_s = defaultdict(float)
    layer_s = defaultdict(float)
    attr = defaultdict(float)
    steps = defaultdict(float)
    scheme_s = defaultdict(float)
    for s in spans:
        self_s[s.name] += selfs[s.id]
        layer_s[s.name.split(".", 1)[0]] += selfs[s.id]
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                attr[s.name, key] += value
        if s.name == "oracle.propagate":
            steps[s.attrs["scheme"]] += s.attrs["steps"]
            scheme_s[s.attrs["scheme"]] += selfs[s.id]

    def us_per_step(scheme):
        return 1e6 * scheme_s[scheme] / steps[scheme] if steps[scheme] else 0.0

    writers = ("scenario.emit_timeseries", "scenario.write_wavefunction_dump",
               "scenario.write_density_dump")
    return {
        "states.eval_pure_density_calls": calls["states.eval_pure_density"],
        "states.eval_pure_density_s": self_s["states.eval_pure_density"],
        "states.moments_density_calls": calls["states.moments_density"],
        "states.moments_density_s": self_s["states.moments_density"],
        "states.density_validate_s": self_s["states.density_validate"],
        "states.density_matrices_built": calls["states.density_validate"],
        "states.density_bytes": attr["states.density_validate", "bytes"],
        "states.eval_pure_wavefunction_calls": calls["states.eval_pure_wavefunction"],
        "states.moments_wavefunction_s": self_s["states.moments_wavefunction"],
        "states.schrodinger_residual_s": self_s["states.schrodinger_residual"],
        "oracle.propagate_calls": calls["oracle.propagate"],
        "oracle.propagate_steps": attr["oracle.propagate", "steps"],
        "oracle.propagate_s": self_s["oracle.propagate"],
        "oracle.split_step_us_per_step": us_per_step("spectral-split-step"),
        "oracle.cayley_us_per_step": us_per_step("implicit-unitary"),
        "oracle.fidelity_calls": calls["oracle.fidelity"],
        "oracle.purity_calls": calls["oracle.purity"],
        "oracle.purity_s": self_s["oracle.purity"],
        "mixing.eval_mixed_density_calls": calls["mixing.eval_mixed_density"],
        "mixing.eval_mixed_density_s": self_s["mixing.eval_mixed_density"],
        "mixing.reparameterize_calls": calls["mixing.reparameterize"],
        "mixing.ensemble_gh_s": self_s["mixing.ensemble_average_density_gh"],
        "mixing.ensemble_gh_members": attr["mixing.ensemble_average_density_gh", "members"],
        "mixing.ensemble_mc_s": self_s["mixing.ensemble_average_density_mc"],
        "mixing.ensemble_mc_samples": attr["mixing.ensemble_average_density_mc", "samples"],
        "scenario.emit_timeseries_self_s": self_s["scenario.emit_timeseries"],
        "scenario.verify_self_s": self_s["scenario.verify_scenario"],
        "scenario.density_at_calls": calls["scenario.density_at"],
        "scenario.write_density_dump_s": self_s["scenario.write_density_dump"],
        "scenario.density_dump_bytes": attr["scenario.write_density_dump", "bytes"],
        "scenario.bytes_written": sum(attr[w, "bytes"] for w in writers),
        "scenario.pool_overlap": pool_overlap(spans, "scenario.run_scenarios",
                                              "scenario.run_scenario"),
        **{f"{layer}.self_s": layer_s[layer] for layer in LAYERS},
        "trace.concurrency_s": concurrency(spans),
    }


def _ancestors(spans) -> dict:
    parent = {s.id: s.parent for s in spans}

    def chain(span_id):
        while span_id is not None:
            yield span_id
            span_id = parent.get(span_id)
    return {s.id: set(chain(s.parent)) for s in spans}


def density_row_costs(spans) -> dict:
    """Scenario name -> (timeseries density rows, seconds per row).

    A row's cost is the inclusive time of building its density matrix
    (``density_at``), its moments and its purity inside ``emit_timeseries``.
    """
    up = _ancestors(spans)
    by_id = {s.id: s for s in spans}
    out = {}
    for ts in (s for s in spans if s.name == "scenario.emit_timeseries"):
        owner = next((by_id[a].attrs.get("scenario") for a in up[ts.id]
                      if by_id.get(a) is not None and by_id[a].name == "scenario.run_scenario"),
                     "?")
        inside = [s for s in spans if ts.id in up[s.id]]
        rows = sum(s.name == "scenario.density_at" for s in inside)
        # only the outermost of these spans is counted, so nothing is timed twice
        row_spans = {"scenario.density_at", "states.moments_density", "oracle.purity"}
        cost = sum(s.duration for s in inside if s.name in row_spans
                   and not any(by_id[a].name in row_spans for a in up[s.id] if a in by_id))
        out[owner] = (rows, cost / rows if rows else 0.0)
    return out
