#!/usr/bin/env python3
"""Short self-check of the benchmark (about two minutes on 4 cores).

Usage (from the repository root):

    python3 perfbench/selfcheck.py

For every workload the program knows, it runs run.py briefly with
tracing off and on, and checks that:

- the result line is valid JSON, correct is true and nothing failed;
- every metric named in BENCHMARK.json prints, each with a unit;
- a stamp line (hardware, backend, threads, seed, build type) precedes it;
- the deterministic metrics are identical across two runs with one seed.

Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fresh_open", "flood_open", "wire_mixed")
SECONDS = 2
SEED = 5

# Metrics that depend only on the seed, never on timing.
DETERMINISTIC = {
    0: ("benign_work_per_exch", "attacker_work_ratio", "server_bytes_per_client"),
    1: ("server.allocs_per_request", "server.allocs_per_submission",
        "server.alloc_bytes_per_msg", "policy.mean_d.benign",
        "policy.mean_d.attacker", "verifier.replay_entries",
        "protocol.bytes_per_exch"),
}


def fail(message: str) -> None:
    print(f"selfcheck: FAIL: {message}")
    sys.exit(1)


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n"
             f"{proc.stdout}\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} trace={trace}: last line is not JSON: {lines[-1]}")
    return result, lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, report = run(workload, trace)
            if set(first) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: keys {sorted(first)}")
            if first["correct"] is not True or first["failed"] != 0:
                fail(f"{workload} trace={trace}: correct={first['correct']} "
                     f"failed={first['failed']}\n" + "\n".join(report))
            if first["attempted"] < 1:
                fail(f"{workload} trace={trace}: nothing attempted")
            if not any(line.startswith("stamp: ") for line in report):
                fail(f"{workload} trace={trace}: no stamp line")
            metrics = first["metrics"]
            if sorted(metrics) != sorted(names[trace]):
                fail(f"{workload} trace={trace}: metrics differ from "
                     f"BENCHMARK.json: {sorted(set(metrics) ^ set(names[trace]))}")
            for name, entry in metrics.items():
                if entry.get("unit") != units[name]:
                    fail(f"{workload}: {name} unit {entry.get('unit')!r}, "
                         f"expected {units[name]!r}")
                if not isinstance(entry.get("value"), (int, float)):
                    fail(f"{workload}: {name} value {entry.get('value')!r}")
            second, _ = run(workload, trace)
            for name in DETERMINISTIC[trace]:
                a = metrics[name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    fail(f"{workload}: deterministic {name} differs: {a} vs {b}")
            print(f"selfcheck: {workload} trace={trace} ok "
                  f"({len(metrics)} metrics, {first['attempted']} operations)")
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
