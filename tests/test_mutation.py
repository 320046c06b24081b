"""Planted defects: each check that guards a law is shown to catch a wrong law.

The method is mutation testing (DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 1978). Each defect is one monkeypatch of one
function: its source with one piece of text replaced, recompiled in its
module. ``states``, ``mixing`` and ``scenario`` import names from each other,
so a defect replaces the function at every module binding. Every defect is
verified against the same eight configs: the three bundled scenarios, the
displaced pure config of ROADMAP item 4, the displaced mixed config of item 2,
a zero-center squeezed state on the implicit scheme (item 6), and a displaced
pure and a displaced mixed config with m = 2, omega = 1.5 and hbar = 0.7
(item 13), where a formula that drops m, omega or hbar is no longer invisible.

A defect is caught when one config prints a FAIL line or stops with an error.
Exit 3 (an ``InvariantError``) means a sample constructor or a scenario rule
judged it; exit 1 (another ``SqueezedXError``) means a propagator guard did.
Normalization defects are the constructors' too: ``TestPlantedNormDefects``
in test_scenario_cli.py plants them. A defect that survives today is an
expected failure that names the ROADMAP item that closes it.

    PYTHONPATH=src python -m pytest tests/test_mutation.py -s

prints which check caught each defect, and its margin or message.
"""

import inspect
import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from squeezedx import mixing, oracle, scenario, states
from squeezedx.errors import InvariantError, SqueezedXError

pytestmark = pytest.mark.slow

REPO = Path(__file__).resolve().parent.parent
MODULES = (states, oracle, mixing, scenario)

CONFIGS = {name: json.loads((REPO / "scenarios" / f"{name}.json").read_text())
           for name in ("ground_state", "squeezed_vacuum", "mixed_p4")}
# ROADMAP item 4: displaced and squeezed, split-step, one period at dt = T/8192
CONFIGS["displaced_squeezed"] = {
    "name": "displaced_squeezed", "squeeze": {"A0": 1.25, "dA": 0.75, "phi_sq": 0.7},
    "center": {"X_amp": 2.0, "phi_c": 0.3},
    "grid": {"x_min": -16.0, "x_max": 16.0, "n_points": 512}, "outputs": ["verify"]}
# ROADMAP item 2: a displaced squeezed base (P = 1) smeared to P = 3.68, on the automatic
# 256-point grid
CONFIGS["displaced_squeezed_mixed"] = {
    "name": "displaced_squeezed_mixed", "squeeze": {"A0": 1.5, "dA": 1.25 ** 0.5, "phi_sq": 0.4},
    "center": {"X_amp": 1.0, "phi_c": 0.3}, "sigma_a": 0.6,
    "sample_times": [k * 2.0 * np.pi / 8.0 for k in range(8)], "outputs": ["verify"]}
# ROADMAP item 6: the one config on implicit-unitary; zero center keeps it clear of the FD3 floor
CONFIGS["implicit_squeezed"] = {
    "name": "implicit_squeezed", "squeeze": {"A0": 1.25, "dA": 0.75, "phi_sq": 0.7},
    "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 1024},
    "propagator": {"scheme": "implicit-unitary"}, "outputs": ["verify"]}
# ROADMAP item 13: the displaced configs above in non-unit constants, centers and spread in
# units of sigma_gr = 0.342; the pure one on 512 points across +-(X_amp + 12 max std)
NONUNIT = {"mass": 2.0, "angular_frequency": 1.5, "hbar": 0.7}
CONFIGS["nonunit_displaced"] = {
    "name": "nonunit_displaced", "oscillator": NONUNIT,
    "squeeze": {"A0": 1.25, "dA": 0.75, "phi_sq": 0.7}, "center": {"X_amp": 0.7, "phi_c": 0.3},
    "grid": {"x_min": -6.5, "x_max": 6.5, "n_points": 512}, "outputs": ["verify"]}
CONFIGS["nonunit_displaced_mixed"] = {
    "name": "nonunit_displaced_mixed", "oscillator": NONUNIT,
    "squeeze": {"A0": 1.5, "dA": 1.25 ** 0.5, "phi_sq": 0.4},
    "center": {"X_amp": 0.35, "phi_c": 0.3}, "sigma_a": 0.2,
    "sample_times": [k * 2.0 * np.pi / 1.5 / 8.0 for k in range(8)], "outputs": ["verify"]}
MIXED = ("mixed_p4", "displaced_squeezed_mixed")

FAIL_LINE = re.compile(r"^\[\S+\] (\S+): FAIL \(.+, margin (\S+)\)$")


def verify(config: dict) -> list:
    """What `squeezedx verify` reports against a law: (check, margin) for each FAIL line, or,
    for the error that stopped it, (exit code, class and what it judged; the value measured)."""
    try:
        lines = scenario.verify_scenario(scenario.parse_config(json.dumps(config))[0])
    except SqueezedXError as exc:
        judged, _, measured = str(exc).partition(": ")
        code = 3 if isinstance(exc, InvariantError) else 1
        return [(f"exit {code} {type(exc).__name__}: {judged}", measured)]
    return [FAIL_LINE.match(line).groups() for ok, line in lines if not ok]


def catches(names, label: str) -> dict:
    """config name -> what caught the planted defect there; printed, one line each."""
    found = {name: verify(CONFIGS[name]) for name in names}
    for name, caught in found.items():
        for check, detail in caught:
            print(f"[{label}] {name}: {check} ({detail})")
    return found


def plant(monkeypatch, home, name: str, old: str, new: str) -> None:
    """Recompile ``home.name`` with the text ``old`` (found exactly once) replaced by ``new``,
    and put it wherever a squeezedx module binds the real function; a property is
    recompiled from its getter and put on its class ``home``."""
    real = getattr(home, name)
    fn = getattr(real, "fget", real)
    source = textwrap.dedent(inspect.getsource(fn))
    if source.count(old) != 1:  # not an AssertionError, which the expected failures expect
        raise LookupError(f"{old!r} is not once in {name}")
    namespace: dict = {}
    exec(compile(source.replace(old, new), f"<planted {name}>", "exec"), fn.__globals__, namespace)
    bound = [mod for mod in MODULES if getattr(mod, name, None) is real] or [home]
    for mod in bound:
        monkeypatch.setattr(mod, name, namespace[name])


def imaginary_diagonal(fraction: float) -> tuple:
    """``_gaussian_density`` adds i * fraction * 1e-10 * peak to the diagonal."""
    ret = "return DensityMatrixSample(grid=grid, values=rho, time=t)"
    return (states, "_gaussian_density", ret,
            f"rho[np.diag_indices(x.size)] += {fraction}e-10j * np.abs(rho).max(); {ret}")


def survives(item: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"survives every config; {item}")


B_SIGN = (states, "quadrature_shape", ", sq.dA * np.sin(arg)", ", -sq.dA * np.sin(arg)")
P_C_SIGN = (states, "center_state", ", -osc.mass * omega", ", osc.mass * omega")
P_C_WITHOUT_M = (states, "center_state", ", -osc.mass * omega", ", -omega")

# (module, function, text, its replacement, (config, start of the check that must catch it,
# and any further config and check pairs))
DEFECTS = [
    pytest.param(*B_SIGN, ("squeezed_vacuum", "ode-residuals"), id="B-sign"),
    pytest.param(*P_C_SIGN, ("displaced_squeezed", "schrodinger-residual"), id="p_c-sign"),
    pytest.param(states, "accumulated_phase", "_center_phase(center, osc, t)",
                 "_center_phase(center, osc, t) + 1e-5 * np.sin(2.0 * osc.angular_frequency * t)",
                 ("ground_state", "ground-phase"), id="phase-plus-1e-5-sin-2wt"),
    pytest.param(states, "_center_phase", "return osc.mass", "return (1.0 + 1e-5) * osc.mass",
                 ("displaced_squeezed", "schrodinger-residual"), id="center-phase-times-1+1e-5",
                 marks=survives("ROADMAP item 4 (a phase check against the propagated state): "
                                "schrodinger-residual reads 5.5e-6 against its 1e-5 tolerance")),
    pytest.param(mixing, "eval_mixed_density", "spec.purity_product)",
                 "1.001 * spec.purity_product)", ("mixed_p4", "purity-law"), id="P-times-1.001"),
    pytest.param(oracle, "_propagate_split_step", "drift = np.exp(-0.5j", "drift = np.exp(0.5j",
                 ("ground_state", "exit 1 BoundaryError: boundary contamination"),
                 id="split-step-drift-sign"),
    pytest.param(oracle, "_fd3_hamiltonian", "_potential(grid, osc), -kin",
                 "_potential(grid, osc), kin",
                 ("implicit_squeezed", "exit 1 BoundaryError: boundary contamination"),
                 id="cayley-off-diagonal-sign"),
    pytest.param(mixing, "_ensemble_sum", "R = _row_factor(spec, grid, t)",
                 "R = np.ones(n, dtype=complex)",
                 ("mixed_p4", "exit 3 InvariantError: density trace invariant violated"),
                 id="dropped-row-factor"),
    # on the diagonal |rho_ii - conj(rho_ii)| = 2 |Im rho_ii|, against 1e-10 * max(peak, 1)
    pytest.param(*imaginary_diagonal(0.75),
                 ("mixed_p4", "exit 3 InvariantError: density Hermiticity invariant violated"),
                 id="imaginary-diagonal-0.75e-10"),
    # schrodinger-residual reads 0.53 and propagation-fidelity 0.30
    pytest.param(*P_C_WITHOUT_M, ("nonunit_displaced", "schrodinger-residual"),
                 id="p_c-without-m"),
    # ensemble-agreement reads 0.19
    pytest.param(mixing, "_gauss_hermite_density", "scale_p = np.sqrt(2.0) * m_om * ",
                 "scale_p = np.sqrt(2.0) * ", ("nonunit_displaced_mixed", "ensemble-agreement"),
                 id="scale_p-without-m-omega"),
    # schrodinger-residual reads -0.212 in margin
    pytest.param(states, "_center_phase", "return osc.mass * omega**2", "return omega**2",
                 ("nonunit_displaced", "schrodinger-residual"), id="center-phase-without-m"),
    # propagation-fidelity reads -0.820 in margin
    pytest.param(oracle, "_potential", "0.5 * osc.mass * ", "0.5 * ",
                 ("nonunit_displaced", "propagation-fidelity"), id="potential-without-m"),
    # propagation-fidelity reads -0.871 in margin
    pytest.param(oracle, "_propagate_split_step", "dt / osc.mass)", "dt)",
                 ("nonunit_displaced", "propagation-fidelity"), id="split-step-drift-without-m"),
    # the pure initial state reaches the grid's edges (1.6e-9 against 1e-12); on the mixed
    # config ensemble-agreement reads -0.232 in margin
    pytest.param(states.OscillatorConfig, "ground_variance", "(2.0 * self.mass * ", "(2.0 * ",
                 ("nonunit_displaced", "exit 1 BoundaryError",
                  "nonunit_displaced_mixed", "ensemble-agreement"),
                 id="ground-variance-without-m"),
    # ensemble-agreement reads 0.10: the members rotate wrongly at the last probe time, where
    # the middle one, T/2, sees a rotation of -1 that needs no mass
    pytest.param(mixing, "_member_block", "m_om = osc.mass * osc.angular_frequency",
                 "m_om = osc.angular_frequency", ("nonunit_displaced_mixed", "ensemble-agreement"),
                 id="member-rotation-without-m"),
]


def test_every_config_passes_with_no_defect():
    assert catches(CONFIGS, "no defect") == {name: [] for name in CONFIGS}


@pytest.mark.parametrize("home, name, old, new, expected", DEFECTS)
def test_a_check_catches_the_defect(monkeypatch, request, home, name, old, new, expected):
    plant(monkeypatch, home, name, old, new)
    found = catches(CONFIGS, request.node.callspec.id)
    for config, check in zip(expected[::2], expected[1::2]):
        assert any(c.startswith(check) for c, _ in found[config]), config


def test_an_imaginary_diagonal_within_the_bound_passes(monkeypatch):
    plant(monkeypatch, *imaginary_diagonal(0.4))
    assert catches(CONFIGS, "imaginary-diagonal-0.4e-10") == {name: [] for name in CONFIGS}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the ensemble members take the same shape and center "
                          "laws as the closed form")
@pytest.mark.parametrize("defect", [B_SIGN, P_C_SIGN], ids=["B-sign", "p_c-sign"])
def test_a_mixed_check_catches_a_wrong_shape_or_center_law(monkeypatch, request, defect):
    plant(monkeypatch, *defect)
    found = catches(MIXED, f"mixed only, {request.node.callspec.id}")
    assert any(found.values())


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12 (evolution in the eigenbasis): the ensemble members "
                          "take p_c from the same center_state as the closed form")
def test_a_mixed_check_catches_p_c_without_m(monkeypatch):
    plant(monkeypatch, *P_C_WITHOUT_M)
    assert any(catches(["nonunit_displaced_mixed"], "mixed only, p_c-without-m").values())
