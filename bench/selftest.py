"""Self-test of the benchmark at tiny sizes (one round per workload).

    python3 bench/selftest.py

Checks, for every workload in BENCHMARK.json:

- the untraced run emits exactly the end-to-end metrics and the traced
  run exactly the per-layer metrics named there;
- no request fails, so ``fail_ratio`` is 0;
- every per-layer count (and ratio of counts) is identical between two
  traced runs of the same request set.

It also traces a single chain-n ``cause_reports`` request twice and
checks that its fixpoint count repeats exactly.  At the seed commit that
count is 2^n + 1; the number is printed, not asserted, because later
engines are meant to lower it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
CHAIN = 6


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--rounds", "1"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def chain_fixpoints() -> list[int]:
    """Fixpoints of two chain-n cause_reports requests with distinct names."""
    sys.path[:0] = [str(BENCH), str(REPO / "src"), str(REPO / "tests")]
    import whyd
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    program = whyd.parse_program(workloads.TC_PROGRAM)
    counts = []
    for tag in ("a", "b"):
        spec = workloads._tc_spec("causes", tag, "chain", CHAIN, random.Random(0))
        instance = whyd.parse_instance(spec["text"])
        target = whyd.parse_ground_atom(spec["target"])
        tracer.spans.clear()
        whyd.cause_reports(instance, program, target)
        counts.append(sum(1 for s in tracer.spans if s[0] == "evaluator.evaluate_fixpoint"))
    return counts


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = {name for name, unit in per_layer.items() if unit != "ms" and name != "trace.overhead_ratio"}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 0)
        first, second = run(workload, 1), run(workload, 1)
        for label, result, names in (("untraced", plain, end_to_end), ("traced", first, set(per_layer))):
            if set(result["metrics"]) != names:
                problems.append(f"{workload} {label}: metrics differ: {sorted(set(result['metrics']) ^ names)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} {label}: {result['failed']}/{result['attempted']} requests failed")
        for name in sorted(exact):
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs: {a} != {b}")
        print(f"{workload}: ok ({plain['attempted']} + {first['attempted']} + {second['attempted']} requests)")

    counts = chain_fixpoints()
    seed_count = 2**CHAIN + 1
    print(f"chain-{CHAIN} cause_reports: {counts[0]} fixpoints (2^{CHAIN} + 1 = {seed_count} at the seed commit)")
    if counts[0] != counts[1]:
        problems.append(f"chain-{CHAIN} fixpoint count does not repeat: {counts}")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
