"""whyd's benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload tc-causes --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Untraced (``--trace 0``): the workload's fixed request set runs in fresh
worker processes, one pass per process, until ``--seconds`` have passed
(at least five passes); passes take turns on the available CPUs.  A
fresh process per pass keeps whyd's module-level caches from turning a
repeated request into a lookup.

The host's speed changes by up to 2x, for seconds or minutes at a time,
from load outside this process.  So every pass times a fixed probe
(``worker.probe``) between its requests, every ``PROBE_GAP_S`` seconds,
and each request's wall time is scaled by ``PROBE_REF_S`` over the
median of the probes nearest to it: times are reported as on a host
where the probe takes ``PROBE_REF_S``.  How much slower than that the
host ran is printed with the metrics.  From the scaled times:

- ``latency_p50_ms``, ``latency_p90_ms``: per-request wall time, each
  request's median over the passes;
- ``throughput_rps``: requests completed per second of a pass (one
  client, no think time), median over the passes;
- ``setup_s``: process start until whyd is imported and the inputs are
  built, median over the passes;
- ``peak_rss_mb``: the worker's own peak resident memory (VmHWM),
  median over the passes.

Traced (``--trace 1``): two untraced and two traced passes over the
same request set, alternating; the per-layer metrics come from the
quicker traced one, with times scaled by its probes' median, and only
its spans are kept, in ``.bench_build/traces/``.

Every output is checked against a reference that does not come from
whyd's engine.  A request fails if it raises, the CLI exits non-zero,
or its output disagrees with the reference; failures are counted and
the run goes on.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload both ways and writes the results
to ``--out``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
BUILD = REPO / ".bench_build"
TRACES = BUILD / "traces"

MIN_PASSES = 5
MAX_PASSES = 40
TRACE_PAIRS = 2
BUDGET_S = 130  # stop starting passes after this; the run must end in 180 s
PROBE_REF_S = 0.3e-3  # worker.probe between requests, fast stretches of a 2.1 GHz Xeon, Python 3.11
PROBE_NEAREST = 5

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # WHYD_JOBS is a documented no-op, and a bad value crashes the CLI
    env.pop("WHYD_JOBS", None)
    # a fixed hash seed makes set iteration order, and so the work done,
    # the same in every pass
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(rundir: Path, timeout: float, cpu: int | None = None, trace_out: Path | None = None):
    """One worker process over the specs and input files in ``rundir``;
    returns its report, or None if it failed."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--specs", str(rundir / "specs.json")]
    cmd += ["--inputs", str(rundir), "--t0", repr(t0)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=REPO, env=_worker_env(), capture_output=True, text=True, timeout=max(timeout, 1)
        )
    except subprocess.TimeoutExpired:
        print("bench: a pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"bench: a pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(passes: list, specs: list) -> tuple[int, int]:
    """(attempted, failed) over all passes, against the references."""
    import workloads
    from worker import digest

    memo: dict = {}
    expected = [digest(workloads.reference(spec, memo)) for spec in specs]
    attempted = failed = 0
    for report in passes:
        attempted += len(specs)
        if report is None:
            failed += len(specs)
            continue
        for i, (spec, got, want) in enumerate(zip(specs, report["digests"], expected)):
            if got != want:
                failed += 1
                reason = report["errors"].get(str(i), "output differs from the reference")
                print(f"bench: request {i} ({spec['label']}) failed: {reason}", file=sys.stderr)
    return attempted, failed


def scaled_latencies(report: dict) -> list[float]:
    """The pass's request times, each scaled by the probes nearest to it."""
    probes = report["probes_s"]  # [index of the next request, seconds], in order
    keys = [p[0] for p in probes]
    out = []
    for i, latency in enumerate(report["latencies_s"]):
        j = bisect.bisect_left(keys, i)
        window = probes[max(0, j - PROBE_NEAREST) : j + PROBE_NEAREST]
        near = sorted(window, key=lambda p: abs(p[0] - i))[:PROBE_NEAREST]
        out.append(latency * PROBE_REF_S / statistics.median(p[1] for p in near))
    return out


def slowdown(report: dict) -> float:
    """How much slower than the reference the host ran during the pass."""
    return statistics.median(p[1] for p in report["probes_s"]) / PROBE_REF_S


def end_to_end(reports: list) -> dict[str, float]:
    """End-to-end metrics of the passes of one run (see the module doc)."""
    scaled = [scaled_latencies(r) for r in reports]
    latencies = [statistics.median(times) for times in zip(*scaled)]
    # set-up ends just before the pass's first probes
    setup = [r["setup_s"] * PROBE_REF_S / statistics.median(p[1] for p in r["probes_s"][:5]) for r in reports]
    return {
        "throughput_rps": statistics.median(len(times) / sum(times) for times in scaled),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, rounds: int | None = None) -> dict:
    import workloads

    chosen = workloads.WORKLOADS[workload]
    specs = chosen.requests(seed, rounds)
    warmup = chosen.warmup(seed)
    # a fresh directory even if a killed run left its own behind
    BUILD.mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=BUILD))
    (rundir / "specs.json").write_text(json.dumps({"requests": specs, "warmup": warmup}), encoding="utf-8")
    workloads.write_inputs(specs + warmup, rundir)
    start = time.monotonic()
    passes: list = []
    try:
        if trace:
            TRACES.mkdir(parents=True, exist_ok=True)
            plain, traced = [], []
            for i in range(TRACE_PAIRS):
                plain.append(run_pass(rundir, BUDGET_S - (time.monotonic() - start)))
                out = rundir / f"trace-{i}.jsonl"
                traced.append(run_pass(rundir, BUDGET_S - (time.monotonic() - start), trace_out=out))
            passes = plain + traced
            metrics = {}
            if all(passes):
                # the quicker of each kind, as scaled to the reference host
                best = min(range(TRACE_PAIRS), key=lambda i: sum(scaled_latencies(traced[i])))
                (rundir / f"trace-{best}.jsonl").replace(TRACES / f"{workload}-seed{seed}.jsonl")
                # layer times are scaled by the pass's probes, as latencies are
                scale = 1 / slowdown(traced[best])
                metrics = {k: v * scale if _units(k) == "ms" else v for k, v in traced[best]["layers"].items()}
                metrics["trace.overhead_ratio"] = sum(scaled_latencies(traced[best])) / min(
                    sum(scaled_latencies(r)) for r in plain
                )
        else:
            # Passes take turns on the CPUs this process may use: the host
            # slows each CPU down at times, not always both at once.
            cpus = sorted(os.sched_getaffinity(0))
            while len(passes) < MAX_PASSES:
                elapsed = time.monotonic() - start
                if len(passes) >= MIN_PASSES and elapsed >= seconds:
                    break
                if passes and elapsed * (len(passes) + 1) / len(passes) > BUDGET_S:
                    break
                report = run_pass(rundir, BUDGET_S - elapsed + 20, cpus[len(passes) % len(cpus)])
                passes.append(report)
                if report is None:
                    break
            done = [p for p in passes if p is not None]
            metrics = end_to_end(done) if done else {}
    finally:
        shutil.rmtree(rundir)
    attempted, failed = check(passes, specs)
    done = [p for p in passes if p is not None]
    return {
        "passes": len(passes),
        "slowdown": statistics.median(slowdown(p) for p in done) if done else None,
        "requests": len(specs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _units(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms") or ".ms_per_" in name:
        return "ms"
    if name.endswith("_ratio") or "_per_" in name:
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def report_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0 and bool(result["metrics"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": _units(k)} for k, v in sorted(result["metrics"].items())},
    }


def print_result(workload: str, result: dict) -> None:
    print(f"{workload}: {result['requests']} requests x {result['passes']} passes, closed loop, 1 client")
    if result["slowdown"] is not None:
        print(f"  host ran {result['slowdown']:.2f}x the reference probe time (median over passes); times scaled")
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name:32s} {value:14.4f} {_units(name)}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'fail_ratio':32s} {ratio:14.4f} ratio ({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help="shrink the request set (self-test)")
    parser.add_argument("--out", default=str(BUILD / "bench-all.json"))
    args = parser.parse_args(argv)

    if not (REPO / "src" / "whyd" / "__init__.py").is_file() or not (REPO / "tests" / "oracle.py").is_file():
        return _fail(f"run from a whyd checkout: {REPO} has no src/whyd or tests/oracle.py")
    sys.path[:0] = [str(BENCH), str(REPO / "src"), str(REPO / "tests")]
    import workloads

    if args.workload == "all":
        summary = {}
        for name in workloads.WORKLOADS:
            plain = measure(name, args.seed, args.seconds, False, args.rounds)
            traced = measure(name, args.seed, args.seconds, True, args.rounds)
            print_result(name, plain)
            print_result(name + " (traced)", traced)
            summary[name] = {"end_to_end": report_line(plain), "per_layer": report_line(traced)}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"per-layer metrics written to {args.out}")
        line = {
            "correct": all(s[k]["correct"] for s in summary.values() for k in s),
            "attempted": sum(s[k]["attempted"] for s in summary.values() for k in s),
            "failed": sum(s[k]["failed"] for s in summary.values() for k in s),
            "metrics": {},
        }
        print(json.dumps(line))
        return 0
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.rounds)
    print_result(args.workload, result)
    print(json.dumps(report_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
