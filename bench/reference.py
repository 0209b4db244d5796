"""Hamiltonians and spectra computed apart from levelcross.

A `Model` reads a scenario in the JSON form of `scenarios/*.json` and
assembles H(a) with numpy from the formulas written out in
bench/README.md; eigenvalues come from `numpy.linalg.eigvals` (LAPACK).
Nothing here imports levelcross, so a fault in the package's parser,
assembly or eigensolver cannot hide in its own reference.
"""

from __future__ import annotations

import ast
import itertools
import json
from pathlib import Path

import numpy as np

_BINARY = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _evaluate(node, a):
    """Arithmetic in one variable `a`: numbers, + - * / ^ and unary minus."""
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, a)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left, a), _evaluate(node.right, a))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _evaluate(node.operand, a)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "a":
        return a
    raise ValueError(f"unsupported expression element {ast.dump(node)}")


def _complex(obj) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))


class Model:
    """H(a) of one scenario dict, assembled with numpy alone."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.levels = [ast.parse(lv["e"].replace("^", "**"), mode="eval") for lv in spec["levels"]]
        self.half_widths = np.array([float(lv["gamma_half"]) for lv in spec["levels"]])
        coupling = spec["coupling"]
        self.omega = _complex(coupling["omega"])
        self.profile = coupling["profile"]
        self.pairs = [(int(i) - 1, int(j) - 1) for i, j in coupling["pairs"]]
        self.selfenergy = {
            int(k) - 1: _complex(v) for k, v in coupling.get("selfenergy", {}).items()
        }

    @classmethod
    def load(cls, path: Path, profile: str | None = None) -> "Model":
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
        if profile is not None:
            spec["coupling"]["profile"] = profile
        return cls(spec)

    @property
    def n(self) -> int:
        return len(self.levels)

    def grid(self, steps: int | None = None) -> np.ndarray:
        sweep = self.spec["sweep"]
        return np.linspace(float(sweep["a_min"]), float(sweep["a_max"]), steps or int(sweep["steps"]))

    def hamiltonian(self, a, half_width: tuple[int, float] | None = None) -> np.ndarray:
        """(m, n, n) stack; `half_width` = (level, value) overrides one gamma/2."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        energies = np.stack(
            [np.broadcast_to(_evaluate(tree, a), a.shape) for tree in self.levels], axis=1
        )
        gamma = self.half_widths.copy()
        if half_width is not None:
            gamma[half_width[0]] = half_width[1]
        h = np.zeros((a.size, self.n, self.n), dtype=complex)
        diag = energies - 1j * gamma
        for k, shift in self.selfenergy.items():
            diag[:, k] += shift
        h[:, np.arange(self.n), np.arange(self.n)] = diag
        for i, j in self.pairs:
            if self.profile == "constant":
                w = np.full(a.size, self.omega)
            else:
                w = self.omega * np.exp(-((energies[:, i] - energies[:, j]) ** 2))
                if self.profile == "energy_weighted_gaussian":
                    w = w * energies[:, min(i, j)]
            h[:, i, j] = w
            h[:, j, i] = w
        return h

    def eigvals(self, a, half_width=None) -> np.ndarray:
        return np.linalg.eigvals(self.hamiltonian(a, half_width))


def set_deviation(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per row, the smallest over pairings of values with ref of the
    largest |value - ref| / max(1, |ref|): the two rows compared as sets.

    Where every value's nearest reference entry is a different one, that
    pairing is optimal; other rows enumerate all pairings.
    """
    scaled = np.abs(values[:, :, None] - ref[:, None, :]) / np.maximum(1.0, np.abs(ref))[:, None, :]
    nearest = np.sort(scaled.argmin(axis=2), axis=1)
    worst = scaled.min(axis=2).max(axis=1)
    n = values.shape[1]
    clash = np.flatnonzero((np.diff(nearest, axis=1) == 0).any(axis=1))
    if clash.size:
        perms = np.array(list(itertools.permutations(range(n))))
        for row in clash:
            worst[row] = scaled[row, np.arange(n), perms].max(axis=1).min()
    return worst


def min_gap(values: np.ndarray) -> np.ndarray:
    """Smallest pairwise |lambda_i - lambda_j| per row."""
    iu, ju = np.triu_indices(values.shape[-1], 1)
    return np.abs(values[..., iu] - values[..., ju]).min(axis=-1)
