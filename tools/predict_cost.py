"""Time ``RegionModel.predict_matrix`` per call, ant sampling per round, and
one construction block built in full or footprint-only.

Runs the seeded triple_vm moaco-cd plan (plan seed 1, as the ``moaco-triple``
benchmark workload at ``--seed 1``) for the benchmark's 70 intervals. On each
topology it meets, 12 primitives before any scale-out and 16 and 20 after the
first and second, it keeps the first decision's model, workloads and grids,
and the selection cdfs of its first iteration. From those cdfs 150 ants, one per objective in turn,
draw a seeded block of 6 rounds, ``(rounds, ants, primitives)``. Then:

- ``predict_matrix_us_per_call``: rows of that block, repeated as needed,
  are timed at k = 1 and 150 rows per 2-D call, and as one stacked call of
  6 rounds of 150 ants (``k_6x150``, 900 rows), the colony's block shape
  while 150 ants are open;
- ``own_objective_us_per_call``: ``RegionModel.own_objective`` on the
  same rows as one block of 20 rounds of 150 ants (``k_20x150``, 3,000
  rows, ``colony.FOOTPRINT_BLOCK_ROWS``), each ant's own objective, the
  colony's block shape when it scores footprints;
- ``violation_counts_us_per_call``: ``RegionModel.violation_counts`` on the
  objectives that ``k_6x150`` call returns, as the colony counts a block;
- ``ant_sampling_us_per_round``: the ants draw one round from the cdfs by
  the ``argmax(cdf >= u)`` comparison the colony drew with before its guide
  table (``comparison``) and by ``colony.GuideSampler`` one round at a time
  (``guide``) and six rounds at a time (``guide_block_6``, per round);
  ``guide_table_build`` is the once-per-iteration cost of building the
  sampler;
- ``construction_us_per_block``: the 6x150 block scored by the colony's
  own block scorers, as when ants may close (``full``:
  ``colony.score_rounds``, every primitive drawn, gathered, then
  ``predict_matrix`` and ``violation_counts``) and when a requirement is
  certified unattainable (``footprint``: ``colony.score_footprints``, each
  ant's footprint drawn and gathered, then ``RegionModel.own_objective``).

Each figure is the least mean over seven repeats, in microseconds, and the
result is one JSON object on standard output. The package is imported from
``PYTHONPATH``:

    PYTHONPATH=src python3 tools/predict_cost.py
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from antscale import colony, experiment
from antscale.domain import load_scenario

ROOT = Path(__file__).resolve().parents[1]
INTERVALS = 70          # the moaco-triple plan, and every scale-out it makes
SIZES = (1, 150)
ANTS = 150
ROUNDS = 6
REPEATS = 7


def capture(out_dir: Path) -> dict:
    """n_primitives -> (model, environment, grids, first iteration's cdfs)."""
    captured = {}
    pending = {}     # the decision being built, while its cdfs are not yet kept
    original_optimize = colony.optimize
    original_cdfs = colony.selection_cdfs

    def recording_optimize(model, env, current_row, grids, *args, **kwargs):
        if len(model.all_pids) not in captured:
            pending["decision"] = (model, env, grids)
        return original_optimize(model, env, current_row, grids, *args, **kwargs)

    def recording_cdfs(*args, **kwargs):
        cdf = original_cdfs(*args, **kwargs)
        if "decision" in pending:
            model, env, grids = pending.pop("decision")
            captured[len(model.all_pids)] = (model, env, grids, cdf)
        return cdf

    colony.optimize = recording_optimize
    colony.selection_cdfs = recording_cdfs
    try:
        plan = experiment.ExperimentPlan(
            name="predict-cost", scenario=load_scenario(ROOT / "scenarios" / "triple_vm.json"),
            approaches=("moaco-cd",), intervals=INTERVALS, warmup=0, runs=1, seed=1,
            out_dir=str(out_dir), quiet=True,
        )
        experiment.run_experiment(plan)
    finally:
        colony.optimize = original_optimize
        colony.selection_cdfs = original_cdfs
    return captured


def us_per_call(fn, calls: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - started) / calls)
    return 1e6 * best


def predict_costs(model, block, env) -> dict:
    rows = block.reshape(-1, block.shape[-1])
    costs = {
        f"k_{k}": us_per_call(
            lambda batch=np.resize(rows, (k, rows.shape[1])): model.predict_matrix(batch, env), 1000,
        )
        for k in SIZES
    }
    stacked = np.resize(rows, (ROUNDS, ANTS, rows.shape[1]))
    costs[f"k_{ROUNDS}x{ANTS}"] = us_per_call(lambda: model.predict_matrix(stacked, env), 100)
    return costs


def own_objective_costs(model, block, env, objs) -> dict:
    rows = block.reshape(-1, block.shape[-1])
    rounds = colony.FOOTPRINT_BLOCK_ROWS // ANTS
    stacked = np.resize(rows, (rounds, ANTS, rows.shape[1]))
    return {f"k_{rounds}x{ANTS}": us_per_call(lambda: model.own_objective(stacked, env, objs), 100)}


def violation_costs(model, block, env) -> dict:
    rows = block.reshape(-1, block.shape[-1])
    vectors = model.predict_matrix(np.resize(rows, (ROUNDS, ANTS, rows.shape[1])), env)
    return {f"k_{ROUNDS}x{ANTS}": us_per_call(lambda: model.violation_counts(vectors), 1000)}


def sampling_costs(cdf) -> dict:
    objs = np.arange(ANTS) % cdf.shape[0]
    u = np.random.default_rng(0).random((ROUNDS, ANTS, cdf.shape[1]))
    sampler = colony.GuideSampler(cdf)
    return {
        "comparison": us_per_call(lambda: (cdf[objs] >= u[0][:, :, None]).argmax(axis=2), 1000),
        "guide": us_per_call(lambda: sampler.draw(u[:1], objs), 1000),
        f"guide_block_{ROUNDS}": us_per_call(lambda: sampler.draw(u, objs), 200) / ROUNDS,
        "guide_table_build": us_per_call(lambda: colony.GuideSampler(cdf), 200),
    }


def construction_costs(model, env, values, u, sampler, objs) -> dict:
    # both of colony.optimize's block scorers; the kept rows' evaluation
    # ends the iteration, not the block
    layout = colony.footprint_layout(model, values, objs, ROUNDS)
    return {
        f"full_{ROUNDS}x{ANTS}": us_per_call(
            lambda: colony.score_rounds(model, env, values, sampler, u, objs), 200),
        f"footprint_{ROUNDS}x{ANTS}": us_per_call(
            lambda: colony.score_footprints(model, env, values, sampler, u, objs, layout), 200),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        captured = capture(Path(tmp))
    predict, own, violations, sampling, construction = {}, {}, {}, {}, {}
    for n_prims, (model, env, grids, cdf) in sorted(captured.items()):
        values, _ = colony.grid_table(grids)
        objs = np.arange(ANTS) % cdf.shape[0]
        u = np.random.default_rng(1).random((ROUNDS, ANTS, values.shape[0]))
        sampler = colony.GuideSampler(cdf)
        block = values[np.arange(values.shape[0]), sampler.draw(u, objs)]
        key = f"primitives_{n_prims}"
        predict[key] = {k: round(v, 1) for k, v in predict_costs(model, block, env).items()}
        own[key] = {k: round(v, 1) for k, v in own_objective_costs(model, block, env, objs).items()}
        violations[key] = {k: round(v, 1) for k, v in violation_costs(model, block, env).items()}
        sampling[f"{key}_ants_{ANTS}"] = {
            k: round(v, 1) for k, v in sampling_costs(cdf).items()
        }
        construction[key] = {
            k: round(v, 1)
            for k, v in construction_costs(model, env, values, u, sampler, objs).items()
        }
    print(json.dumps({
        "predict_matrix_us_per_call": predict, "own_objective_us_per_call": own,
        "violation_counts_us_per_call": violations,
        "ant_sampling_us_per_round": sampling, "construction_us_per_block": construction,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
