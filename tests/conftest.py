"""Shared scenario builders for the test suite.

The bundled scenario files cover the integration paths; the toy document
below gives an enumerable nine-decision space for exhaustive checks against
brute-force answers.
"""

import copy
import json
from pathlib import Path

import pytest

from antscale import traces
from antscale.domain import load_scenario, scenario_from_dict
from antscale.simulator import EnvironmentState, Simulator

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SMOKE_PATH = SCENARIO_DIR / "smoke.json"
TRIPLE_PATH = SCENARIO_DIR / "triple_vm.json"

_DOC_CACHE = {}


def _doc(path) -> dict:
    if path not in _DOC_CACHE:
        with open(path) as fh:
            _DOC_CACHE[path] = json.load(fh)
    return copy.deepcopy(_DOC_CACHE[path])


def smoke_doc() -> dict:
    return _doc(SMOKE_PATH)


def triple_doc() -> dict:
    return _doc(TRIPLE_PATH)


def smoke_without_vm_memory_doc() -> dict:
    """smoke with no memory primitive on v1, which both services' queue models read."""
    doc = smoke_doc()
    doc["primitives"] = [p for p in doc["primitives"] if p["id"] != "v1.memory"]
    doc["regions"][0]["primitives"].remove("v1.memory")
    return doc


def triple_split_doc() -> dict:
    """triple_vm with v2's primitives, s3's and s4's threads and objectives in a region r2.

    Every VM shares pm1, so r1's s1.rt still reads v2.cpu, which r2 decides.
    """
    doc = triple_doc()
    moved = ["v2.cpu", "v2.memory", "s3.thread", "s4.thread"]
    r1 = doc["regions"][0]
    objectives = [oid for oid in r1["objectives"] if oid.split(".")[0] in ("s3", "s4")]
    r1["objectives"] = [oid for oid in r1["objectives"] if oid not in objectives]
    r1["primitives"] = [pid for pid in r1["primitives"] if pid not in moved]
    doc["regions"].append({"id": "r2", "objectives": objectives, "primitives": moved})
    return doc


def toy_doc() -> dict:
    """One service with two free knobs of three values each.

    Memory is pinned to a single grid value, so the space holds exactly
    3 x 3 = 9 assignments. Response time and cost pull in opposite
    directions through the shared capacity term.
    """
    return {
        "name": "toy",
        "topology": {
            "pms": [{"id": "pm1", "capacity": {"cpu": 100, "memory": 1000}}],
            "vms": [{"id": "v1", "pm": "pm1"}],
            "services": [{"id": "s1", "vm": "v1"}],
        },
        "primitives": [
            {"id": "v1.cpu", "scope": "per-vm-shared", "owner": "v1",
             "resource": "cpu", "unit": "%", "initial": 15, "step": 10,
             "min": 15, "max": 35, "hard_min": 5, "hard_max": 95,
             "price": 0.01, "util_trigger": 0.5,
             "adapt_threshold": 0.7, "adapt_fraction": 0.1},
            {"id": "v1.memory", "scope": "per-vm-shared", "owner": "v1",
             "resource": "memory", "unit": "MB", "initial": 250, "step": 5,
             "min": 250, "max": 250, "hard_min": 200, "hard_max": 300,
             "price": 0.002, "util_trigger": 0.5,
             "adapt_threshold": 0.7, "adapt_fraction": 0.1},
            {"id": "s1.thread", "scope": "per-service", "owner": "s1",
             "resource": "thread", "unit": "count", "initial": 2, "step": 2,
             "min": 2, "max": 6, "hard_min": 1, "hard_max": 10,
             "price": 0.017, "util_trigger": 0.5,
             "adapt_threshold": 0.7, "adapt_fraction": 0.1},
        ],
        "objectives": [
            {"id": "s1.rt", "kind": "response_time", "owner": "s1", "threshold": 2.0},
            {"id": "s1.cost", "kind": "cost", "owner": "s1", "threshold": 0.85},
        ],
        "regions": [{"id": "r1", "objectives": ["s1.rt", "s1.cost"],
                     "primitives": ["v1.cpu", "v1.memory", "s1.thread"]}],
        "model": {"noise_std": 0.0},
        "algorithms": {"moaco": {"max_ant": 20, "max_iteration": 5}},
        "trace": {"peak": 150.0, "noise": 0.0},
    }


def toy_runtime(workload: float = 150.0):
    """Decision-time view of the toy region before any bound adaptation."""
    scenario = scenario_from_dict(toy_doc())
    sim = Simulator(scenario, {"s1": [workload] * 4}, seed=0)
    env = EnvironmentState(0, {"s1": float(workload)}, dict(sim.config), {})
    return sim.region_runtime("r1", env)


def smoke_runtime(seed: int = 3):
    """(simulator, runtime, first interval result) for the smoke scenario."""
    scenario = load_scenario(SMOKE_PATH)
    trace = traces.synthetic_trace(["s1", "s2"], 6, seed=seed, peak=120.0, noise=0.05)
    sim = Simulator(scenario, trace, seed=seed)
    result = sim.step()
    return sim, sim.region_runtime("r1", result.env), result


@pytest.fixture
def smoke_scenario():
    return load_scenario(SMOKE_PATH)


@pytest.fixture
def triple_scenario():
    return load_scenario(TRIPLE_PATH)
