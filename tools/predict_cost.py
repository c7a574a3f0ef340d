"""Time ``RegionModel.predict_matrix`` per call at fixed batch sizes.

Runs the seeded triple_vm moaco-cd plan (plan seed 1, as the ``moaco-triple``
benchmark workload at ``--seed 1``) until after its second scale-out. It keeps
the first batch of 100 or more rows the colony sent to the model on each
topology: 12 primitives before any scale-out, 16 and 20 after. Rows of that
batch, repeated as needed, are then timed at k = 1, 150 and 1500 rows per
call. The least mean over seven repeats is reported in microseconds per
call, as one JSON object on standard output.

The package is imported from ``PYTHONPATH``, so one script times any
checkout:

    PYTHONPATH=src python3 tools/predict_cost.py
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from antscale import experiment, qosmodel
from antscale.domain import load_scenario

ROOT = Path(__file__).resolve().parents[1]
INTERVALS = 46          # the seed-1 plan scales out at intervals 36 and 44
SIZES = (1, 150, 1500)
REPEATS = 7


def capture(out_dir: Path) -> dict:
    """n_primitives -> (model, first large batch, its environment)."""
    captured = {}
    original = qosmodel.RegionModel.predict_matrix

    def recording(model, values, env):
        if np.ndim(values) == 2 and len(values) >= 100:
            captured.setdefault(len(model.all_pids), (model, np.array(values), env))
        return original(model, values, env)

    qosmodel.RegionModel.predict_matrix = recording
    try:
        plan = experiment.ExperimentPlan(
            name="predict-cost", scenario=load_scenario(ROOT / "scenarios" / "triple_vm.json"),
            approaches=("moaco-cd",), intervals=INTERVALS, warmup=0, runs=1, seed=1,
            out_dir=str(out_dir), quiet=True,
        )
        experiment.run_experiment(plan)
    finally:
        qosmodel.RegionModel.predict_matrix = original
    return captured


def us_per_call(model, rows, env) -> float:
    calls = 1000 if len(rows) <= 150 else 100
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(calls):
            model.predict_matrix(rows, env)
        best = min(best, (time.perf_counter() - started) / calls)
    return 1e6 * best


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        captured = capture(Path(tmp))
    result = {}
    for n_prims, (model, batch, env) in sorted(captured.items()):
        result[f"primitives_{n_prims}"] = {
            f"k_{k}": round(us_per_call(model, np.resize(batch, (k, batch.shape[1])), env), 1)
            for k in SIZES
        }
    print(json.dumps({"predict_matrix_us_per_call": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
