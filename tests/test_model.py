import json
import math

import numpy as np
import pytest

from levelcross.expressions import parse_expr
from levelcross.model import (
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


def two_level(profile="constant", omega=0.05 + 0j, gamma2=0.5999):
    return Scenario(
        label="pair",
        levels=(
            LevelSpec(parse_expr("1 - a/2"), 0.5),
            LevelSpec(parse_expr("a"), gamma2),
        ),
        coupling=CouplingSpec(omega=omega, profile=profile, active_pairs=[(0, 1)]),
        sweep=SweepGrid(0.0, 1.5, 2001),
    )


def four_level(profile="gaussian", pairs=((0, 3), (1, 3), (2, 3)), selfenergy=None):
    return Scenario(
        label="quartet",
        levels=(
            LevelSpec(parse_expr("1 - a/2"), 0.5),
            LevelSpec(parse_expr("1.05 - a/2"), 0.4),
            LevelSpec(parse_expr("1.1 - a/2"), 0.6),
            LevelSpec(parse_expr("a"), 0.58523),
        ),
        coupling=CouplingSpec(
            omega=0.05 + 0.05j,
            profile=profile,
            active_pairs=pairs,
            selfenergy=selfenergy or {},
        ),
        sweep=SweepGrid(0.0, 1.5, 2001),
    )


def coupling(sc, i, j, a):
    """Off-diagonal entry w_ij of H(a), read from a length-1 batch."""
    return build_hamiltonian_batch(sc, [a])[0][i, j]


def test_gaussian_equals_omega_at_degeneracy():
    sc = Scenario(
        label="flat",
        levels=(LevelSpec(parse_expr("1"), 0.5), LevelSpec(parse_expr("1"), 0.5)),
        coupling=CouplingSpec(0.05 + 0j, "gaussian", [(0, 1)]),
        sweep=SweepGrid(0.0, 1.0, 2),
    )
    assert coupling(sc, 0, 1, 0.3) == 0.05 + 0j


def test_gaussian_at_unit_separation():
    sc = Scenario(
        label="unit",
        levels=(LevelSpec(parse_expr("1"), 0.5), LevelSpec(parse_expr("0"), 0.5)),
        coupling=CouplingSpec(0.05 + 0j, "gaussian", [(0, 1)]),
        sweep=SweepGrid(0.0, 1.0, 2),
    )
    w = coupling(sc, 0, 1, 0.0)
    assert w == 0.05 * math.exp(-1.0)
    assert abs(w - 0.018393972058572117) < 1e-18


def test_inactive_pair_is_zero():
    sc = four_level(pairs=[(0, 3)])
    assert coupling(sc, 1, 2, 0.7) == 0j


def test_two_level_matrix_values():
    h = build_hamiltonian_batch(two_level(), [2 / 3])[0]
    assert h[0, 1] == 0.05 + 0j
    assert h[1, 0] == h[0, 1]
    assert abs(h[0, 0] - (2 / 3 - 0.5j)) < 1e-15
    assert abs(h[1, 1] - (2 / 3 - 0.5999j)) < 1e-15


def test_single_level_matrix():
    sc = Scenario(
        label="solo",
        levels=(LevelSpec(parse_expr("a"), 0.5),),
        coupling=CouplingSpec(0j, "constant", []),
        sweep=SweepGrid(0.0, 2.0, 3),
    )
    h = build_hamiltonian_batch(sc, [1.0])[0]
    assert h.shape == (1, 1)
    assert h[0, 0] == 1.0 - 0.5j


def test_symmetry_is_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7
        ]
        profile = ("constant", "gaussian", "energy_weighted_gaussian")[int(rng.integers(0, 3))]
        sc = Scenario(
            label="rand",
            levels=tuple(
                LevelSpec(
                    parse_expr(f"{rng.uniform(-1, 1):.3f} + {rng.uniform(-1, 1):.3f}*a"),
                    float(rng.uniform(0, 1)),
                )
                for _ in range(n)
            ),
            coupling=CouplingSpec(
                complex(rng.normal(), rng.normal()), profile, pairs,
                selfenergy={0: complex(rng.normal(), rng.normal())},
            ),
            sweep=SweepGrid(-1.0, 1.0, 5),
        )
        h = build_hamiltonian_batch(sc, sc.sweep.points())
        assert np.array_equal(h, np.swapaxes(h, 1, 2))


def test_energy_weighted_gaussian_weights_by_lower_index():
    sc = four_level(profile="energy_weighted_gaussian")
    a = 0.55
    e = bare_levels(sc, a)[0].real
    w = coupling(sc, 2, 3, a)
    assert w == (0.05 + 0.05j) * (e[2] * np.exp(-((e[2] - e[3]) ** 2)))


def test_selfenergy_only_named_level():
    shift = 0.05 + 0.05j
    sc = four_level(selfenergy={3: shift})
    bare = four_level()
    h1 = build_hamiltonian_batch(sc, [0.6])[0]
    h0 = build_hamiltonian_batch(bare, [0.6])[0]
    assert h1[3, 3] == h0[3, 3] + shift
    assert np.array_equal(np.delete(h1.ravel(), 15), np.delete(h0.ravel(), 15))


def test_batch_matches_length_one_batches_bitwise():
    # a sweep assembles its whole grid at once and an EP search a few
    # points per call; the same point must give the same bits either way
    weighted = four_level(profile="energy_weighted_gaussian", selfenergy={3: 0.05j})
    for sc in (four_level(), weighted):
        grid = np.linspace(0.0, 1.5, 17)
        batch = build_hamiltonian_batch(sc, grid)
        for k, a in enumerate(grid):
            assert np.array_equal(batch[k], build_hamiltonian_batch(sc, [float(a)])[0])


def test_gaussian_magnitude_decays_with_separation():
    sc = two_level(profile="gaussian")
    # separation |e1 - e2| = |1 - 1.5a| grows away from a = 2/3
    seps, mags = [], []
    for a in [2 / 3, 0.8, 1.0, 1.2, 1.5]:
        e = bare_levels(sc, a)[0].real
        seps.append(abs(e[0] - e[1]))
        mags.append(abs(coupling(sc, 0, 1, a)))
    assert seps == sorted(seps)
    assert mags == sorted(mags, reverse=True)


def test_tunable_gamma_half():
    sc = two_level()
    h = build_hamiltonian_batch(sc, [2 / 3], tunable=Tunable("gamma_half", 1), value=0.6)[0]
    assert h[1, 1].imag == -0.6


def test_tunable_energy_offset_shifts_profile_too():
    sc = two_level(profile="gaussian")
    t = Tunable("energy_offset", 0)
    h = build_hamiltonian_batch(sc, [0.0], tunable=t, value=-1.0)[0]
    # offset moves e_1 from 1 to 0, onto e_2: gaussian factor becomes 1
    assert h[0, 0].real == 0.0
    assert h[0, 1] == 0.05 + 0j


def test_tunable_accepts_per_point_values():
    sc = two_level()
    vals = np.array([0.4, 0.5, 0.6])
    h = build_hamiltonian_batch(sc, [0.1, 0.2, 0.3], tunable=Tunable("gamma_half", 1), value=vals)
    assert np.array_equal(h[:, 1, 1].imag, -vals)


def test_tunable_validation():
    with pytest.raises(ScenarioError):
        Tunable("width", 0)
    with pytest.raises(ScenarioError, match="tunable level must be >= 1, got 0"):
        Tunable("gamma_half", -1)
    sc = two_level()
    with pytest.raises(ScenarioError):
        build_hamiltonian_batch(sc, [0.5], tunable=Tunable("gamma_half", 5), value=0.5)
    with pytest.raises(ScenarioError):
        build_hamiltonian_batch(sc, [0.5], tunable=Tunable("gamma_half", 1))


def test_roundtrip_through_dict():
    for sc in [two_level(), four_level(selfenergy={3: 0.05 + 0.05j})]:
        clone = scenario_from_dict(scenario_to_dict(sc))
        assert clone == sc


def test_roundtrip_through_file(tmp_path):
    sc = four_level(profile="energy_weighted_gaussian", selfenergy={3: 0.05 + 0.05j})
    path = tmp_path / "quartet.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_pairs_all_sugar():
    obj = scenario_to_dict(four_level())
    obj["coupling"]["pairs"] = "all"
    sc = scenario_from_dict(obj)
    assert sc.coupling.active_pairs == frozenset(
        (i, j) for i in range(4) for j in range(i + 1, 4)
    )
    # serialization always writes the explicit sorted list
    assert scenario_to_dict(sc)["coupling"]["pairs"] == [
        [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
    ]


def test_file_indices_are_one_based():
    obj = scenario_to_dict(four_level(selfenergy={3: 0.1 + 0j}))
    assert obj["coupling"]["pairs"][0] == [1, 4]
    assert list(obj["coupling"]["selfenergy"]) == ["4"]


def test_float_fidelity_through_json_text():
    sc = four_level()
    obj = json.loads(json.dumps(scenario_to_dict(sc)))
    assert scenario_from_dict(obj) == sc


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o["coupling"].update(profile="triangle"),
        lambda o: o["coupling"].update(pairs=[[0, 1]]),
        lambda o: o["coupling"].update(pairs=[[1, 9]]),
        lambda o: o["coupling"].update(pairs=[[2, 2]]),
        lambda o: o["sweep"].update(steps=1),
        lambda o: o["sweep"].update(a_min=2.0),
        lambda o: o["levels"][0].update(gamma_half=-0.1),
        lambda o: o["levels"][0].update(e="1 - b/2"),
        lambda o: o["coupling"].update(omega={"re": 0.05}),
        lambda o: o.pop("levels"),
    ],
)
def test_invalid_scenario_dicts(mutate):
    obj = scenario_to_dict(four_level())
    mutate(obj)
    with pytest.raises(ScenarioError):
        scenario_from_dict(obj)


def test_load_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_with_profile_changes_only_profile():
    sc = two_level(profile="constant")
    alt = with_profile(sc, "gaussian")
    assert alt.coupling.profile == "gaussian"
    assert alt.levels == sc.levels
    assert alt.sweep == sc.sweep
