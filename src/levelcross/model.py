"""Scenario definitions and complex-symmetric Hamiltonian assembly.

A scenario is N resonance levels e_i(a) - i*(gamma_i/2) plus a coupling
rule. The matrix at parameter a has the complex level energies on the
diagonal (optionally shifted by a selfenergy term omega_ii) and the
pair couplings off the diagonal:

    constant                   w_ij = omega
    gaussian                   w_ij = omega * exp(-(e_i - e_j)^2)
    energy_weighted_gaussian   w_ij = omega * e_w(a) * exp(-(e_i - e_j)^2)

where w = min(i, j) is the weight level; presets list the anchor level
last so the weight falls on the crossing partner. Each off-diagonal
value is computed once and written to both entries, so H == H.T holds
bit-exactly.

Assembly is vectorized over the parameter grid: build_hamiltonian_batch
returns an (m, N, N) stack for m parameter values and is the only
builder. Every entry depends on its own parameter value alone, so a
batch agrees bitwise with its length-1 slices.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping

import numpy as np

from .eigensolve import MAX_ORDER
from .expressions import Expr, eval_expr, parse_expr, to_text

__all__ = [
    "ScenarioError",
    "LevelSpec",
    "CouplingSpec",
    "SweepGrid",
    "Scenario",
    "Tunable",
    "PROFILES",
    "bare_levels",
    "build_hamiltonian_batch",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "with_profile",
]

PROFILES = ("constant", "gaussian", "energy_weighted_gaussian")


class ScenarioError(ValueError):
    """Invalid scenario definition (construction or file)."""


@dataclass(frozen=True)
class LevelSpec:
    energy_expr: Expr
    half_width: float  # gamma_i/2, in the same energy units as e_i

    def __post_init__(self):
        if not np.isfinite(self.half_width) or self.half_width < 0:
            raise ScenarioError(f"half_width must be >= 0, got {self.half_width!r}")


def _normalize_pairs(pairs) -> frozenset:
    out = set()
    for item in pairs:
        i, j = int(item[0]), int(item[1])
        if i == j:
            raise ScenarioError(f"coupling pair ({i + 1}, {j + 1}) couples a level to itself")
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


@dataclass(frozen=True)
class CouplingSpec:
    omega: complex
    profile: str
    active_pairs: frozenset  # unordered 0-based pairs, stored as (lo, hi)
    selfenergy: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ScenarioError(f"unknown profile {self.profile!r}; pick one of {PROFILES}")
        object.__setattr__(self, "omega", complex(self.omega))
        object.__setattr__(self, "active_pairs", _normalize_pairs(self.active_pairs))
        object.__setattr__(
            self, "selfenergy", {int(k): complex(v) for k, v in self.selfenergy.items()}
        )
        if not np.isfinite(self.omega):
            raise ScenarioError(f"omega must be finite, got {self.omega!r}")
        for v in self.selfenergy.values():
            if not np.isfinite(v):
                raise ScenarioError(f"selfenergy must be finite, got {v!r}")


@dataclass(frozen=True)
class SweepGrid:
    a_min: float
    a_max: float
    steps: int

    def __post_init__(self):
        span = float(self.a_max) - float(self.a_min)  # a Python float overflows without a warning
        if not np.isfinite([self.a_min, self.a_max, span]).all():
            raise ScenarioError("sweep bounds and their span must be finite")
        if not self.a_min < self.a_max:
            raise ScenarioError(f"need a_min < a_max, got [{self.a_min}, {self.a_max}]")
        if self.steps < 2:
            raise ScenarioError(f"need at least 2 sweep steps, got {self.steps}")

    def points(self) -> np.ndarray:
        return np.linspace(self.a_min, self.a_max, self.steps)


@dataclass(frozen=True)
class Scenario:
    label: str
    levels: tuple
    coupling: CouplingSpec
    sweep: SweepGrid

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ScenarioError("scenario needs at least one level")
        n = len(self.levels)
        if n > MAX_ORDER:
            raise ScenarioError(f"scenario has {n} levels; the solver takes at most {MAX_ORDER}")
        for i, j in self.coupling.active_pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ScenarioError(f"coupling pair ({i + 1}, {j + 1}) out of range for {n} levels")
        for k in self.coupling.selfenergy:
            if not 0 <= k < n:
                raise ScenarioError(f"selfenergy index {k + 1} out of range for {n} levels")

    @property
    def n(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class Tunable:
    """One scalar scenario override: a level's half-width or an additive
    offset on its energy trajectory."""

    kind: str  # "gamma_half" | "energy_offset"
    level: int  # 0-based

    def __post_init__(self):
        if self.kind not in ("gamma_half", "energy_offset"):
            raise ScenarioError(f"unknown tunable kind {self.kind!r}")
        if self.level < 0:
            raise ScenarioError(f"tunable level must be >= 1, got {self.level + 1}")


def _pair_coupling(scenario: Scenario, i: int, j: int, energies: np.ndarray):
    # energies: (m, N) precomputed level trajectories
    omega = scenario.coupling.omega
    profile = scenario.coupling.profile
    if profile == "constant":
        return np.full(energies.shape[0], omega)
    with np.errstate(over="ignore"):  # levels beyond ~1e154 apart: exp(-inf) = 0 is exact
        g = np.exp(-((energies[:, i] - energies[:, j]) ** 2))
    if profile == "gaussian":
        return omega * g
    return omega * (energies[:, min(i, j)] * g)


def bare_levels(
    scenario: Scenario, a, *, tunable: Tunable | None = None, value=None
) -> np.ndarray:
    """Unperturbed complex energies e_i(a) - i gamma_i/2; (m, N) for m
    parameter values.

    With a tunable, `value` (scalar or per-point array) replaces the
    level's half-width or shifts its energy. Couplings and selfenergies
    are not included.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    n = scenario.n
    energies = np.stack([eval_expr(lv.energy_expr, a) for lv in scenario.levels], axis=1)
    gamma = np.broadcast_to([lv.half_width for lv in scenario.levels], (a.size, n)).copy()
    if tunable is not None:
        if value is None:
            raise ScenarioError("tunable override needs a value")
        if tunable.level >= n:
            raise ScenarioError(f"tunable level {tunable.level + 1} out of range for {n} levels")
        if tunable.kind == "gamma_half":
            gamma[:, tunable.level] = value
        else:
            energies[:, tunable.level] = energies[:, tunable.level] + value
    return energies - 1j * gamma


def build_hamiltonian_batch(
    scenario: Scenario, a, *, tunable: Tunable | None = None, value=None
) -> np.ndarray:
    """Assemble H(a) for every a in the batch; returns (m, N, N) complex.

    The diagonal is bare_levels (tunable override included) plus any
    selfenergy; the couplings read the overridden energies.
    """
    diag = bare_levels(scenario, a, tunable=tunable, value=value)
    energies = diag.real.copy()  # a view otherwise: the selfenergy must not reach it
    m, n = diag.shape
    for k, shift in scenario.coupling.selfenergy.items():
        diag[:, k] = diag[:, k] + shift
    h = np.zeros((m, n, n), dtype=complex)
    h[:, np.arange(n), np.arange(n)] = diag
    for i, j in sorted(scenario.coupling.active_pairs):
        w = _pair_coupling(scenario, i, j, energies)
        h[:, i, j] = w
        h[:, j, i] = w
    return h


# ---------------------------------------------------------------------------
# Scenario file format. Level indices are 1-based in files, as in error
# messages; "all" is accepted for the pair list and expands at parse
# time, so a serialized scenario always carries the explicit sorted pair
# list.

def _complex_to_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _complex_from_dict(obj, name: str) -> complex:
    try:
        re, im = obj["re"], obj["im"]
    except (TypeError, KeyError) as err:
        raise ScenarioError(f"expected {{re, im}} pair, got {obj!r}") from err
    return complex(_real(re, f"{name}.re"), _real(im, f"{name}.im"))


def _integer(value, name: str) -> int:
    """A whole JSON number as an int; int() would truncate 2.9 and take True."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name}: expected an integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """A JSON number as a float; float() would take True and "0.05"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:  # a JSON integer beyond the float range
        raise ScenarioError(f"{name}: {err}") from err


def scenario_to_dict(scenario: Scenario) -> dict:
    coupling = scenario.coupling
    return {
        "label": scenario.label,
        "levels": [
            {"e": to_text(lv.energy_expr), "gamma_half": lv.half_width}
            for lv in scenario.levels
        ],
        "coupling": {
            "omega": _complex_to_dict(coupling.omega),
            "profile": coupling.profile,
            "pairs": [[i + 1, j + 1] for i, j in sorted(coupling.active_pairs)],
            "selfenergy": {
                str(k + 1): _complex_to_dict(v) for k, v in sorted(coupling.selfenergy.items())
            },
        },
        "sweep": asdict(scenario.sweep),
    }


def scenario_from_dict(obj) -> Scenario:
    try:
        levels = tuple(
            LevelSpec(parse_expr(item["e"]), _real(item["gamma_half"], "gamma_half"))
            for item in obj["levels"]
        )
        n = len(levels)
        raw = obj["coupling"]
        pairs = raw.get("pairs", "all")
        if pairs == "all":
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            pairs = [(_integer(i, "pairs") - 1, _integer(j, "pairs") - 1) for i, j in pairs]
        coupling = CouplingSpec(
            omega=_complex_from_dict(raw["omega"], "omega"),
            profile=raw["profile"],
            active_pairs=pairs,
            selfenergy={
                int(k) - 1: _complex_from_dict(v, "selfenergy")
                for k, v in raw.get("selfenergy", {}).items()
            },
        )
        sweep = SweepGrid(
            _real(obj["sweep"]["a_min"], "a_min"),
            _real(obj["sweep"]["a_max"], "a_max"),
            _integer(obj["sweep"]["steps"], "steps"),
        )
        label = str(obj.get("label", ""))
    except ScenarioError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:  # a list for a mapping
        raise ScenarioError(f"malformed scenario: {err}") from err
    return Scenario(label=label, levels=levels, coupling=coupling, sweep=sweep)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, RecursionError, ValueError) as err:  # ValueError: not UTF-8, not JSON
        raise ScenarioError(f"cannot read scenario {path}: {err}") from err
    return scenario_from_dict(obj)


def with_profile(scenario: Scenario, profile: str) -> Scenario:
    """The same scenario with a different coupling profile."""
    return replace(scenario, coupling=replace(scenario.coupling, profile=profile))
