"""One workload run in a fresh interpreter; started by ``run.py``.

Imports ``robinopt.cli`` and builds the workload's inputs: set-up, timed
from ``--started``, the monotonic clock reading taken just before this
interpreter was started. Unless ``--setup-only`` is given it then runs
whole rounds of the workload until ``--seconds`` have passed and checks the
outputs. It prints one JSON line with the timings. With ``--trace`` the
layers are wrapped by ``tracer.Tracer`` before the inputs are built, and the
JSON carries the per-layer metrics of set-up plus one round (the median
round, for the times; counts repeat exactly from round to round).
"""

import argparse
import json
import resource
import statistics
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import robinopt.cli  # noqa: F401  (the import is part of set-up)
    import robinopt as rb
    import workloads

    tracer = None
    if args.trace:
        from tracer import METRICS, Tracer

        tracer = Tracer()
        tracer.install(rb)
    work = workloads.build(args.workload, rb, args.seed, args.tmpdir)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_layers = tracer.aggregate() if tracer else None
    round_layers = []
    round_s, op_s = [], []
    attempted = failed = 0
    first = None
    mismatched = 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        outputs = []
        t_round = time.perf_counter()
        for label, fn in work.ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                out = None
                print(f"operation {label} failed: {exc!r}", file=sys.stderr)
            op_s.append(time.perf_counter() - t0)
            outputs.append(out)
        now = time.perf_counter()
        round_s.append(now - t_round)
        if tracer:
            round_layers.append(tracer.aggregate())
        if first is None:
            first = outputs
        elif not work.same(first, outputs):
            mismatched += 1
        if now - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    failures = work.check(first)
    if mismatched:
        failures.append(f"{mismatched} rounds gave other outputs than the "
                        "first")
    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        result["layers"] = {}
        for name, unit in METRICS.items():
            per_round = [r[name] for r in round_layers]
            if unit == "count" and len(set(per_round)) > 1:
                failures.append(f"{name} differs between rounds: {per_round}")
            result["layers"][name] = (setup_layers[name]
                                      + statistics.median(per_round))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
