"""Byte-identity gate: two seeded plans must reproduce their committed outputs.

``tests/golden/<plan>/summary.csv`` is the plan's summary, and
``tests/golden/<plan>/intervals.sha256`` holds one sha256 per run over the
run log's rows without its latency rows, which are wall-clock values. A
golden file that changes records a behaviour change, and the change that
causes it says why; a numpy upgrade counts as such a change. The QoS model
makes no BLAS call, so a BLAS upgrade does not. The model's bits do depend
on the CPU features numpy dispatches to for float64 ``exp`` and ``**``:
with AVX-512 dispatch disabled, about 5 % of those results change in
their last bit. The golden choices survive that on these two plans, and
``test_plan_bytes_hold_without_avx512_dispatch`` re-runs both in a
subprocess with that dispatch disabled and requires the same bytes; it is
skipped on a CPU numpy dispatches no AVX-512 code to. Other CPUs are not
covered: the bytes are promised only on the dispatch that wrote them.

Regenerate after an intended behaviour change with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from antscale import cli

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCENARIOS = TESTS.parent / "scenarios"
# numpy's AVX-512 dispatch targets; their float64 exp and ** round differently
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

# plan name -> `antscale run` arguments
PLANS = {
    "triple_vm": ["--scenario", str(SCENARIOS / "triple_vm.json"),
                  "--runs", "1", "--intervals", "70", "--seed", "1"],
    "smoke": ["--scenario", str(SCENARIOS / "smoke.json"),
              "--runs", "5", "--seed", "1"],
}


def run_plan(name: str, out: Path) -> Path:
    """Run one plan with `antscale run` under ``out`` and return its directory."""
    assert cli.main(["run", *PLANS[name], "--name", name, "--out", str(out), "--quiet"]) == 0
    return out / name


def interval_digests(plan_dir: Path) -> str:
    """`<sha256>  <approach>/<run>/intervals.csv` per run, latency rows left out."""
    lines = []
    for path in sorted(plan_dir.glob("*/run-*/intervals.csv")):
        kept = [row for row in path.read_bytes().splitlines(keepends=True)
                if not row.startswith(b"latency,")]
        digest = hashlib.sha256(b"".join(kept)).hexdigest()
        lines.append(f"{digest}  {path.relative_to(plan_dir).as_posix()}\n")
    return "".join(lines)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_reproduces_golden_bytes(name, tmp_path):
    plan_dir = run_plan(name, tmp_path)
    golden = GOLDEN / name
    assert (plan_dir / "summary.csv").read_bytes() == (golden / "summary.csv").read_bytes()
    assert interval_digests(plan_dir) == (golden / "intervals.sha256").read_text()


@pytest.mark.slow
def test_plan_bytes_hold_without_avx512_dispatch(tmp_path):
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    if not features.get("X86_V4"):
        pytest.skip("numpy dispatches no AVX-512 code on this CPU")
    recheck = (
        "import sys, test_golden\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "assert not __cpu_features__['X86_V4'], 'AVX-512 dispatch is still on'\n"
        "for name in test_golden.PLANS:\n"
        "    test_golden.test_plan_reproduces_golden_bytes(name, test_golden.Path(sys.argv[1]))\n"
    )
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", recheck, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]


def regenerate(scratch: Path) -> None:
    for name in PLANS:
        plan_dir = run_plan(name, scratch)
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(plan_dir / "summary.csv", target / "summary.csv")
        (target / "intervals.sha256").write_text(interval_digests(plan_dir))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        regenerate(Path(scratch))
