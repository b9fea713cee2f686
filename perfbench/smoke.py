"""Smoke test of the benchmark: one timed pass per run, every workload.

    python3 perfbench/smoke.py

Checks, for each workload, that every metric named in BENCHMARK.json prints
by name with its unit in both modes, that no operation fails, and that two
runs at one seed give identical program outputs.  Also checks that the
benchmark exits non-zero, printing no result, where the program is absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.001", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(proc, names: dict[str, str], label: str) -> str:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: {result}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{label}: {result}\n{proc.stdout}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == names, f"{label}: metrics {sorted(got)} != {sorted(names)}"
    for name, unit in names.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), \
            f"{label}: no '{name} = ... {unit}' line"
    assert any(line.startswith("failed_ratio = ") for line in lines), f"{label}: no failed_ratio"
    return next(line for line in lines if line.startswith("outputs_sha256 = "))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        first = check_run(bench(ROOT, name, 0), e2e, f"{name} trace 0")
        second = check_run(bench(ROOT, name, 0), e2e, f"{name} trace 0, again")
        assert first == second, f"{name}: outputs differ between runs at seed {SEED}"
        check_run(bench(ROOT, name, 1), layers, f"{name} trace 1")
        print(f"ok {name}")

    bare = HERE / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), \
            f"without the program: exit {proc.returncode}, output {proc.stdout!r}"
        print("ok exits non-zero without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
