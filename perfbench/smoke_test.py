#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage (from the root of a checkout):  python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json in a short mode (graphs shrunk 16x,
2-second window) untraced and traced, and asserts that each run passes its
output checks and prints every metric BENCHMARK.json names, with its unit.
Then runs each output check once more on a deliberately altered answer and
asserts that the run is reported incorrect and exits non-zero. Exits 0 when
everything holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each output check, a workload on which it runs, and whether it needs a
# traced run.
CHECKS = [("setup_coreness_bz", "build-fs", 0),
          ("build_answers_1t_vs_4t", "build-fs", 0),
          ("build_coreness_bz", "build-fs", 0),
          ("serve_answers_match", "serve-it", 0),
          ("final_coreness_bz", "serve-it", 0),
          ("served_epochs_published", "live-it", 0),
          ("final_epoch_answers_match", "live-it", 0),
          ("trace_valid", "serve-it", 1)]


def run(workload: str, trace: int, corrupt: str = "") -> tuple:
    """(exit code, result line, line before it, stderr) of one short run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--small"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2]) if len(lines) > 1 else None
    return proc.returncode, result, detail, proc.stderr


def main() -> int:
    failures = []
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            rc, result, detail, stderr = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if rc != 0 or result is None or result["correct"] is not True:
                failures.append(f"{label}: rc={rc}\n{stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append(f"{label}: attempted/failed {result}")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not \
                        isinstance(got.get("value"), (int, float)):
                    failures.append(f"{label}: metric {m['name']} = {got}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                failures.append(f"{label}: unexpected metrics {sorted(extra)}")
            if not set(detail["samples"]) >= set(metrics):
                failures.append(f"{label}: sample counts missing")
            print(f"ok   {label}: {len(metrics)} metrics", flush=True)

    for check, workload, trace in CHECKS:
        rc, result, detail, _ = run(workload, trace, corrupt=check)
        failed = detail is not None and detail["checks"].get(check) is False
        others = [k for k, ok in (detail or {}).get("checks", {}).items()
                  if not ok and k != check]
        if rc == 0 or result is None or result["correct"] is not False \
                or not failed or others:
            failures.append(f"altered input of {check} on {workload} was not "
                            f"rejected by it alone: rc={rc} detail={detail}")
        else:
            print(f"ok   {check} rejects an altered answer", flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
