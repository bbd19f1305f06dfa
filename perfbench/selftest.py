"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, from the repository root:
  * the exact root checker flags the known wrong N=24 root and passes the
    exact N=1 roots;
  * every workload runs at a tiny size, untraced and traced, and prints a
    result line with exactly the metric names and units listed in
    BENCHMARK.json (`cli` too, which BENCHMARK.json leaves out);
  * the traced counts repeat exactly when a traced run is repeated;
  * in a directory holding only BENCHMARK.json and the benchmark's files, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import rootcheck
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
TIMEOUT_S = 180


def run(spec: dict, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                             "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S)


def check_result(done, expected: dict, label: str) -> tuple[list[str], dict]:
    """Problems with one run's result line, and the parsed result."""
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}"], {}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')!r}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append(f"{label}: attempted/failed {result.get('attempted')!r}/{result.get('failed')!r}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
                        f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
    return problems, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = [f"checker: {p}" for p in rootcheck.self_test()]

    traced = {}
    for wl in workloads.NAMES:
        found, result = check_result(run(spec, wl, 0), end_to_end, f"{wl} trace 0")
        problems += found
        for name, m in result.get("metrics", {}).items():
            if m["value"] == 0:
                problems.append(f"{wl} trace 0: end-to-end metric {name} is 0")
        found, traced[wl] = check_result(run(spec, wl, 1), per_layer, f"{wl} trace 1")
        problems += found
        print(f"{wl}: ran untraced and traced", file=sys.stderr)

    again_wl = "spectrum"
    found, again = check_result(run(spec, again_wl, 1), per_layer, f"{again_wl} trace 1, repeated")
    problems += found
    for name, unit in per_layer.items():
        if unit in ("count", "ratio") and traced[again_wl].get("metrics", {}).get(name) != again.get("metrics", {}).get(name):
            problems.append(f"{again_wl}: traced {name} differs between two runs of seed 7")

    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy2(path, bare / HERE.name)
    done = run(spec, spec["workloads"][0]["name"], 0, cwd=bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("without the package sources the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
