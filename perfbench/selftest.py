"""Quick self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Asserts that each run exits 0, that every metric BENCHMARK.json names is
present with its unit, and that every job passed its checks.  Takes about
half a minute; it is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {proc.stdout.strip()[-800:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, unexpected {extra}, "
                                f"wrong unit {wrong}")
            print(f"{label}: {result['attempted']} jobs, correct={result['correct']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
