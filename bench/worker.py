"""One pass over a workload's request set, in a fresh process.

Started by ``run.py`` with the request specs in a JSON file and the CLI
requests' input files in a directory; prints one JSON object on stdout.
The pass sets up (imports whyd, reads the specs, parses every request's
inputs), warms up on requests from a different seed, then sends the
requests one at a time, each only after the previous one returned (a
closed loop with one client).  Peak memory is read before the outputs
are canonicalized and digested, so it covers whyd's work only.

Between requests, at most every ``PROBE_GAP_S`` seconds, the pass times
``probe``, a fixed piece of pure-Python work that no whyd code runs, so
``run.py`` can tell how fast the host ran during the pass.

    python3 bench/worker.py --specs DIR/specs.json --inputs DIR --t0 <time.monotonic() at start>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src"), str(REPO / "tests")]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


PROBE_GAP_S = 0.025
_PROBE_EDGES = [(f"n{i}", f"n{i + 1}") for i in range(30)]


def probe() -> float:
    """Seconds taken to compute a fixed transitive closure over tuples of
    strings with plain sets and dicts: a join loop of the kind whyd runs,
    so it slows down with the host much as whyd's work does."""
    start = time.perf_counter()
    successors: dict[str, list[str]] = {}
    for a, b in _PROBE_EDGES:
        successors.setdefault(a, []).append(b)
    paths = delta = set(_PROBE_EDGES)
    while delta:
        delta = {(x, z) for x, y in delta for z in successors.get(y, ()) if (x, z) not in paths}
        paths = paths | delta
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's own peak resident memory.  VmHWM starts afresh at
    exec; getrusage's ru_maxrss would inherit the parent's peak."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--specs", required=True, help="JSON file with 'requests' and 'warmup' specs")
    parser.add_argument("--inputs", required=True, help="directory with the CLI requests' input files")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--trace-out", default=None, help="trace the pass and write its spans here")
    parser.add_argument("--cpu", type=int, default=None, help="run this pass on one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import workloads  # set-up time includes importing whyd

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    session = workloads.Session(Path(args.inputs))
    with open(args.specs, encoding="utf-8") as handle:
        plan = json.load(handle)
    specs = plan["requests"]
    calls = [session.build(spec) for spec in specs]
    warm = [session.build(spec) for spec in plan["warmup"]]
    setup_s = time.monotonic() - args.t0

    for call in warm:
        call()
    if tracer:
        before = tracer.cache_counts()
        tracer.spans.clear()

    results, latencies, errors = [], [], {}
    clock = time.perf_counter
    probes = [(0, probe()) for _ in range(5)]
    probed = clock()
    for i, call in enumerate(calls):
        if tracer:
            tracer.request = i
        if clock() - probed >= PROBE_GAP_S:
            probes.append((i, probe()))
            probed = clock()
        sent = clock()
        try:
            results.append(call())
        except Exception as exc:  # a failed request counts; the run goes on
            results.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - sent)
    probes += [(len(calls), probe()) for _ in range(5)]
    peak_mb = peak_rss_mb()

    digests = []
    for i, (spec, result) in enumerate(zip(specs, results)):
        if i in errors:
            digests.append(None)
            continue
        try:
            digests.append(digest(workloads.canon(spec, result)))
        except Exception as exc:  # malformed output
            digests.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"

    out = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "probes_s": probes,
        "peak_rss_mb": peak_mb,
        "digests": digests,
        "errors": {str(i): e for i, e in errors.items()},
    }
    if tracer:
        from tracing import layer_metrics

        after = tracer.cache_counts()
        delta = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
        out["layers"] = layer_metrics(tracer.spans, delta)
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
