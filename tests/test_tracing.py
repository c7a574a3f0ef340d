"""The benchmark's tracer still finds every layer function it wraps.

``perfbench/tracing.py`` replaces package functions by name, so renaming one
breaks ``perfbench/run.py --trace 1``. The tracer is loaded from its file
and run around a small smoke plan.
"""

import importlib.util
from pathlib import Path

from antscale import baselines, colony, domain, dominance, experiment, traces
from antscale.experiment import ExperimentPlan, run_experiment
from antscale.qosmodel import RegionModel
from antscale.simulator import Simulator
from conftest import SMOKE_PATH

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PATCHED = (domain, traces, dominance, baselines, colony, experiment, RegionModel, Simulator)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_wraps_a_smoke_plan_and_restores_the_package(tmp_path):
    Tracer = load_tracer()
    before = [dict(vars(owner)) for owner in PATCHED]
    original_ranks = baselines.nondominated_ranks
    plan = ExperimentPlan(
        name="smoke", scenario=domain.load_scenario(SMOKE_PATH),
        approaches=("moga", "moaco-cd"), intervals=12, warmup=2, runs=1,
        out_dir=str(tmp_path), quiet=True,
    )
    with Tracer(cost_owners={}) as tracer:
        assert baselines.nondominated_ranks is not original_ranks
        run_experiment(plan)
    metrics = tracer.metrics()
    moga = plan.scenario.moga
    assert tracer.moga and tracer.moaco
    assert all(record["front"] for record in tracer.moga)
    # one fresh ranking of the first population and one per generation
    assert metrics["baselines.nondominated_ranks.calls"]["value"] == (
        len(tracer.moga) * (1 + moga.generations)
    )
    assert tracer.counts["baselines.crowding_distances"] == (
        len(tracer.moga) * 2 * moga.generations
    )
    assert metrics["colony.optimize.calls"]["value"] == len(tracer.moaco)
    after = [dict(vars(owner)) for owner in PATCHED]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())
