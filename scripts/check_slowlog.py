#!/usr/bin/env python3
"""Validates a slow-query log written by hcd_cli serve --slow-log.

The log is JSONL: one JSON object per line, appended by the server's
flusher thread for every request that crossed --slow-query-ms (reason
"slow") or hit the 1-in-N sample (reason "sampled"). Each record carries
the wire trace id, the request shape, and a per-phase nanosecond
breakdown whose sum must account for the recorded total latency.

Checks, per record:
  - the line parses as a JSON object with every required key;
  - reason is "slow" or "sampled", trace_id looks like "0x<hex>";
  - total_ns is a positive integer and the four phase_ns entries
    (queue, decode, search, encode) are non-negative integers;
  - |sum(phase_ns) - total_ns| / total_ns <= --max-phase-skew.

Whole-file checks:
  - at least --min-records records;
  - with --expect-reason=R, at least one record has that reason.

Usage:
  check_slowlog.py SLOW_LOG.jsonl [--min-records=N]
                   [--max-phase-skew=FRACTION] [--expect-reason=R ...]

Exits non-zero with a diagnostic on the first violated check.
"""

import argparse
import json
import re
import sys

REQUIRED_KEYS = (
    "ts_unix_ms",
    "reason",
    "trace_id",
    "sampled",
    "regime",
    "hierarchy",
    "metric",
    "k",
    "found",
    "overloaded",
    "epoch",
    "queue_depth",
    "total_ns",
    "phase_ns",
)

PHASES = ("queue", "decode", "search", "encode")

TRACE_ID_RE = re.compile(r"^0x[0-9a-f]{1,16}$")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("log", help="path to the slow-query JSONL file")
    parser.add_argument("--min-records", type=int, default=1)
    parser.add_argument(
        "--max-phase-skew",
        type=float,
        default=0.05,
        help="largest tolerated |sum(phase_ns) - total_ns| / total_ns",
    )
    parser.add_argument(
        "--expect-reason",
        action="append",
        default=[],
        choices=["slow", "sampled"],
        help="at least one record must have this reason (repeatable)",
    )
    args = parser.parse_args()

    records = 0
    reasons_seen = set()
    worst_skew = 0.0
    with open(args.log) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"line {lineno}: not JSON ({err}): {line[:120]!r}")
                return 1
            if not isinstance(record, dict):
                print(f"line {lineno}: not a JSON object")
                return 1
            for key in REQUIRED_KEYS:
                if key not in record:
                    print(f"line {lineno}: missing key {key!r}")
                    return 1
            if record["reason"] not in ("slow", "sampled"):
                print(f"line {lineno}: unknown reason {record['reason']!r}")
                return 1
            if not TRACE_ID_RE.match(record["trace_id"]):
                print(f"line {lineno}: malformed trace_id "
                      f"{record['trace_id']!r}")
                return 1
            total = record["total_ns"]
            if not isinstance(total, int) or total <= 0:
                print(f"line {lineno}: total_ns {total!r} is not a positive "
                      "integer")
                return 1
            phases = record["phase_ns"]
            if not isinstance(phases, dict):
                print(f"line {lineno}: phase_ns is not an object")
                return 1
            for phase in PHASES:
                value = phases.get(phase)
                if not isinstance(value, int) or value < 0:
                    print(f"line {lineno}: phase_ns.{phase} {value!r} is not "
                          "a non-negative integer")
                    return 1
            phase_sum = sum(phases[p] for p in PHASES)
            skew = abs(phase_sum - total) / total
            worst_skew = max(worst_skew, skew)
            if skew > args.max_phase_skew:
                print(
                    f"line {lineno}: phase sum {phase_sum} vs total_ns "
                    f"{total} skews by {skew:.4f} "
                    f"(> {args.max_phase_skew})"
                )
                return 1
            reasons_seen.add(record["reason"])
            records += 1

    if records < args.min_records:
        print(f"only {records} records, want >= {args.min_records}")
        return 1
    for reason in args.expect_reason:
        if reason not in reasons_seen:
            print(f"no record with reason {reason!r} "
                  f"(saw {sorted(reasons_seen)})")
            return 1

    print(f"OK: {records} records, reasons {sorted(reasons_seen)}, "
          f"worst phase skew {worst_skew:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
