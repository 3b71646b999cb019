#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload build-fs|serve-it|live-it --seed N
                           --seconds S --trace 0|1 [--small] [--corrupt CHECK]

Builds perfbench/hcd_perfbench.cc and the library sources under src/ in
Release mode (into $CARGO_TARGET_DIR, default .bench_build), runs the
workload, validates the trace of a --trace 1 run with scripts/check_trace.py,
and prints as its last line one JSON object

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1), each as {"value": ..., "unit": ...}. The
line before it holds the provenance of the run and the sample count of
every metric. Exits 0 only when the run completed and every output check
passed. --small shrinks the graphs 16x and --corrupt CHECK alters the input
of the named output check; both exist for perfbench/smoke_test.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
SERVER_PHASES = ("queue", "decode", "cache", "search", "encode")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> Path:
    """Configures (once) and builds the benchmark program; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return out / "hcd_perfbench"


def source_provenance() -> dict:
    """The commit when the checkout is a git repository, and always a digest
    of the sources the benchmark compiles."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.glob("*")):
        if path.is_file() and path.suffix in (".h", ".cc", ".py", ".txt"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def server_phase_metrics(stats: dict | None) -> dict:
    """server.<phase>_p50_us / _p99_us from the kStats lifetime totals."""
    out = {}
    phases = ((stats or {}).get("total") or {}).get("phases_us") or {}
    for phase in SERVER_PHASES:
        q = phases.get(phase) or {}
        for p in ("p50", "p99"):
            out[f"server.{phase}_{p}_us"] = {
                "value": float(q.get(f"{p}_us", 0.0)), "unit": "us",
                "samples": int(q.get("count", 0))}
    return out


# Spans every traced run records (the benchmark's own, one per layer call).
TRACE_SPANS = ["bench.build_iteration", "graph.load", "core.decomposition",
               "hcd.rank", "hcd.construction", "hcd.freeze", "search.index",
               "engine.snapshot", "search.answer", "server.query",
               "search.execute_query", "engine.apply_batch"]


def check_trace(trace: Path) -> tuple:
    """Validates the Chrome trace with the repository's own checker."""
    cmd = [sys.executable, str(ROOT / "scripts" / "check_trace.py"), str(trace),
           "--min-subsystems=7", "--min-tids=2"]
    cmd += [f"--require={name}" for name in TRACE_SPANS]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build-fs", "serve-it", "live-it"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--corrupt", default="", metavar="CHECK")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
    except RuntimeError as err:
        log(str(err))
        return 1

    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    trace_path = work / f"trace-{args.workload}-{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    if args.small:
        cmd.append("--small")
    if args.corrupt and args.corrupt != "trace_valid":
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"workload exited {proc.returncode} without a result")
        return 1
    raw = json.loads(lines[-1])

    metrics = raw["metrics"]
    metrics.update(server_phase_metrics(raw.get("server_stats")))
    checks = raw["checks"]
    if args.trace:
        if args.corrupt == "trace_valid":
            doc = json.loads(trace_path.read_text())
            doc["traceEvents"][0]["ph"] = "B"
            trace_path.write_text(json.dumps(doc))
        ok, detail = check_trace(trace_path)
        checks["trace_valid"] = {"ok": ok, "detail": detail}

    missing = [m["name"] for m in wanted if m["name"] not in metrics or
               metrics[m["name"]]["unit"] != m["unit"]]
    if missing:
        log(f"metrics missing or with another unit: {missing}")
        return 1
    failed_checks = sorted(k for k, c in checks.items() if not c["ok"])
    for name in failed_checks:
        log(f"check {name} failed: {checks[name]['detail']}")
    correct = raw["correct"] and not failed_checks and proc.returncode == 0

    provenance = dict(raw["provenance"], **source_provenance())
    print(json.dumps({
        "provenance": provenance,
        "samples": {m["name"]: metrics[m["name"]]["samples"] for m in wanted},
        "checks": {k: c["ok"] for k, c in checks.items()},
    }, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
