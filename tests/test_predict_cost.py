"""``tools/predict_cost.py`` still runs against the package it times.

The tool calls ``RegionModel.predict_matrix`` and ``own_objective``,
``colony.score_rounds`` and ``colony.score_footprints`` by name, and
nothing else runs it. Here it runs on a shorter plan, with one repeat
per figure, and must print every figure for every topology it met.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "predict_cost.py"


@pytest.mark.slow
def test_predict_cost_prints_every_figure(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("predict_cost", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "REPEATS", 1)
    monkeypatch.setattr(tool, "INTERVALS", 20)
    assert tool.main() == 0
    result = json.loads(capsys.readouterr().out)

    keys = {
        "predict_matrix_us_per_call": {"k_1", "k_150", "k_6x150"},
        "own_objective_us_per_call": {"k_20x150"},
        "violation_counts_us_per_call": {"k_6x150"},
        "construction_us_per_block": {"full_6x150", "footprint_6x150"},
    }
    assert set(result) == set(keys) | {"ant_sampling_us_per_round"}
    topologies = set(result["predict_matrix_us_per_call"])
    assert "primitives_12" in topologies
    for figure, names in keys.items():
        assert set(result[figure]) == topologies
        assert all(set(times) == names for times in result[figure].values())
    assert set(result["ant_sampling_us_per_round"]) == {f"{t}_ants_150" for t in topologies}
    for times in result["ant_sampling_us_per_round"].values():
        assert set(times) == {"comparison", "guide", "guide_block_6", "guide_table_build"}
    for figure in result.values():
        assert all(value > 0 for times in figure.values() for value in times.values())
