"""robinopt benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload {sweep,optimality,heat} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts fresh interpreters (``worker.py``): a few that only set up,
to time set-up, then one that also runs whole rounds of the workload for
``--seconds`` and checks their outputs. A run that cannot finish within
170 seconds is stopped and fails. The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``). See README.md for what each number means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "optimality", "heat")
SETUP_PROBES = 4
# a run ends within this many seconds, or fails
DEADLINE_S = 170


def _env():
    env = dict(os.environ)
    env.pop("ROBINOPT_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args, tmpdir, setup_only, deadline):
    """Run a worker to its end; return the JSON result it printed last."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--tmpdir", str(tmpdir),
           "--started", repr(time.monotonic())]
    if args.trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "robinopt" / "__init__.py").is_file():
        print(f"error: no robinopt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmpdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, tmpdir, True, deadline)["setup_s"])
        res = _worker(args, tmpdir, False, deadline)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass
    setups.append(res["setup_s"])

    for failure in res["failures"]:
        print(f"check failed: {failure}")
    rounds = res["round_s"]
    print(f"{args.workload}: {len(rounds)} rounds, round median "
          f"{statistics.median(rounds):.3f} s, {res['attempted']} operations,"
          f" {res['failed']} failed")
    if args.trace:
        from tracer import METRICS

        # the worker checks that counts repeat from round to round
        metrics = {name: {"value": int(res["layers"][name])
                          if unit == "count" else res["layers"][name],
                          "unit": unit}
                   for name, unit in METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(rounds), "unit": "s"},
            "op_p50_s": {"value": statistics.median(res["op_s"]),
                         "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
