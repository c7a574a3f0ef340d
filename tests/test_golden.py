"""Byte-identity gate: two seeded plans must reproduce their committed outputs.

``tests/golden/<plan>/summary.csv`` is the plan's summary, and
``tests/golden/<plan>/intervals.sha256`` holds one sha256 per run over the
run log's rows without its latency rows, which are wall-clock values. A
golden file that changes records a behaviour change, and the change that
causes it says why; a numpy upgrade counts as such a change. The QoS model
makes no BLAS call, so a BLAS upgrade does not. The model's bits do depend
on the CPU features numpy dispatches to for float64 ``exp`` and ``**``:
with AVX-512 dispatch disabled, about 5 % of those results changed in
their last bit. The golden choices survived that on these two plans, but
the bytes are only promised on a CPU with the dispatch that wrote them.

Regenerate after an intended behaviour change with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from antscale import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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
