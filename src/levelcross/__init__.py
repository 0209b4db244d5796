"""Avoided level crossings and exceptional points of small
complex-symmetric Hamiltonians."""

__version__ = "0.1.0"

from .expressions import EvalError, ParseError, eval_expr, parse_expr, to_text
from .model import (
    CouplingSpec,
    LevelSpec,
    Scenario,
    ScenarioError,
    SweepGrid,
    Tunable,
    bare_levels,
    build_hamiltonian_batch,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_profile,
)
from .eigensolve import (
    BiorthogonalityError,
    RootConvergenceError,
    SolverError,
    SpectrumBatch,
    char_poly_batch,
    eigenvalues_batch,
    poly_roots_batch,
    solve_spectrum_batch,
)
from .twolevel import NoEPSolution, ep_condition_2level, two_level_eigenvalues
from .sweep import (
    CrossingReport,
    SweepResult,
    Trajectory,
    detect_crossings,
    run_sweep,
)
from .presets import PRESET_IDS, preset
from .epfinder import EPReport, coalescence_gap, find_ep, probe_norm_blowup

__all__ = [
    "__version__",
    "EvalError",
    "ParseError",
    "eval_expr",
    "parse_expr",
    "to_text",
    "CouplingSpec",
    "LevelSpec",
    "Scenario",
    "ScenarioError",
    "SweepGrid",
    "Tunable",
    "bare_levels",
    "build_hamiltonian_batch",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "with_profile",
    "BiorthogonalityError",
    "RootConvergenceError",
    "SolverError",
    "SpectrumBatch",
    "char_poly_batch",
    "eigenvalues_batch",
    "poly_roots_batch",
    "solve_spectrum_batch",
    "NoEPSolution",
    "ep_condition_2level",
    "two_level_eigenvalues",
    "CrossingReport",
    "SweepResult",
    "Trajectory",
    "detect_crossings",
    "run_sweep",
    "PRESET_IDS",
    "preset",
    "EPReport",
    "coalescence_gap",
    "find_ep",
    "probe_norm_blowup",
]
