"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json

The parent revision is exported with ``git archive`` into a temporary
directory. For each workload, pair k runs ``perfbench/run.py`` once in that
export and once in this tree, on seed ``SEEDS[k]``, at the ``run_seconds``
that ``BENCHMARK.json`` fixes; which side runs first alternates from pair to
pair. ``PAIRS`` fixes the number of pairs per workload. After the pairs,
one traced run on seed 1 per side gives the per-layer counts. Both sides use
the benchmark files of their own checkout.

The JSON written to ``--out`` holds the host, both commits, every run, each
side's median and quartiles per end-to-end metric, how many pairs the tree
won (lower is better; ties count for neither side), and the traced metrics.
Needs only the standard library and git; run it from anywhere in the
repository, on an otherwise idle machine.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = {"sweep": 10, "optimality": 10, "heat": 10}
SEEDS = range(1, 11)


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev, dest):
    """Write the files of ``rev`` under ``dest`` with ``git archive``."""
    archive = Path(dest) / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=fh)
    checkout = Path(dest) / "parent"
    with tarfile.open(archive) as tar:
        tar.extractall(checkout, filter="data")
    archive.unlink()
    return checkout


def _run(checkout, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run; its result line plus the seed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _summary(pairs, metrics):
    """Per-metric medians and quartiles of each side, and the pair wins."""
    out = {}
    for name in metrics:
        sides = {side: [p[side]["metrics"][name] for p in pairs
                        if "metrics" in p[side]]
                 for side in ("parent", "change")}
        if any(len(v) < 2 for v in sides.values()):
            continue
        entry = {side: _spread(v) for side, v in sides.items()}
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs
                if "metrics" in p["parent"] and "metrics" in p["change"]]
        entry["change_wins"] = sum(c < a for a, c in both)
        entry["parent_wins"] = sum(a < c for a, c in both)
        entry["pairs"] = len(both)
        entry["median_ratio"] = (entry["change"]["median"]
                                 / entry["parent"]["median"])
        out[name] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the tree against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]

    report = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "system": platform.platform(),
                 "python": platform.python_version()},
        "commits": {
            "parent": _git("rev-parse", args.parent),
            "change": _git("rev-parse", "HEAD"),
            "change_src_tree": _git("rev-parse", "HEAD:src"),
            "change_uncommitted": bool(_git("status", "--porcelain", "--",
                                            "src", "perfbench")),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent = _export(args.parent, tmp)
        sides = {"parent": parent, "change": ROOT}
        for workload, count in PAIRS.items():
            pairs = []
            for k in range(count):
                seed = SEEDS[k]
                order = ("parent", "change") if k % 2 == 0 else ("change",
                                                                 "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = _run(sides[side], workload, seed, seconds,
                                      trace=False)
                pair["seed"] = seed
                pairs.append(pair)
                print(f"{workload} pair {k + 1}/{count} seed {seed}: "
                      + ", ".join(
                          f"{s} run_s={pair[s].get('metrics', {}).get('run_s')}"
                          for s in ("parent", "change")),
                      file=sys.stderr)
            traced = {side: _run(sides[side], workload, 1, seconds, trace=True)
                      for side in ("parent", "change")}
            report["workloads"][workload] = {
                "pairs": pairs,
                "summary": _summary(pairs, metrics),
                "traced_seed1": traced,
            }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
