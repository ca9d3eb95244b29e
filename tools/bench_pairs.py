"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json

The parent revision is exported with ``git archive`` into a temporary
directory. For each workload, pair k runs ``perfbench/run.py`` once in that
export and once in this tree, on seed ``SEEDS[k]``, at the ``run_seconds``
that ``BENCHMARK.json`` fixes; which side runs first alternates from pair to
pair. ``PAIRS`` fixes the number of pairs per workload. After the pairs,
one traced run on seed 1 per side gives the per-layer counts. Both sides use
the benchmark files of their own checkout.

The probe runs each side once more on seed 1, in a fresh interpreter: it
builds the workload, runs one round to warm up, then wraps
``robinopt.fem.dpbtrf``, ``dpbtrs`` and ``splu`` by name and the
constructors of ``geometry.Mesh``, ``fem.Assembly`` and ``fem._BandScatter``
in their classes, and ``fem.solve_resolvent`` by name, and runs one more
round. It records, for that round, the calls and seconds of each, and how
many ``dpbtrf`` calls failed (info != 0:
a system that is not positive definite, which ``fem._factorize`` refuses;
in the eigen path a refused shift, which is then lowered, and anywhere
else an error).

After the timed round the probe runs one more round under ``tracemalloc``
and records its traced allocation peak (``traced_peak_mb``): numpy's
arrays, apart from how much of the freed heap glibc keeps.

Paired rounds then show gains smaller than the spread between runs: for
each workload on seed 1, one warm worker per side (its own checkout's
``src`` and ``perfbench``) builds the workload, and the two take turns at
``ROUNDS`` whole rounds after ``WARMUP`` untimed ones, alternating which
goes first. The claim rule stays the pairs'; the rounds are a finer
reading.

The JSON written to ``--out`` holds the host, both commits, every run, each
side's median and quartiles per end-to-end metric, how many pairs the tree
won (lower is better; ties count for neither side), the traced metrics, the
probe: LAPACK and SuperLU calls (``lapack_seed1``), the set-up of meshes,
assemblies and band scatters (``setup_seed1``), the resolvent solves
(``resolvent_seed1``) and the traced peaks (``traced_peak_seed1``), and the
paired rounds (``rounds_seed1``): each
side's median round and op seconds, the median per-round ratio of tree to
parent and the rounds the tree won.
The host record names the numpy and scipy versions and the OpenBLAS and
OpenMP thread variables as this interpreter sees them (null when unset):
factorization speed depends on them.
Needs only the standard library and git; run it from anywhere in the
repository, on an otherwise idle machine.
"""

import argparse
import datetime
import importlib.metadata
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
ROUNDS, WARMUP = 30, 3


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


# The probe, run in the checkout by ``python -c``; prints one JSON line
_PROBE = """
import json, sys, tempfile, time, tracemalloc
import robinopt.cli
import robinopt as rb
import workloads

name = sys.argv[1]
lapack, setup = {}, {}
resolvent = {"calls": 0, "s": 0.0}


def wrap(fn, entry, key=None):
    def wrapped(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        entry["s"] += time.perf_counter() - t0
        entry["calls"] += 1
        if key == "dpbtrf" and out[1] != 0:
            entry["failed"] += 1
        return out
    return wrapped


with tempfile.TemporaryDirectory() as tmp:
    work = workloads.build(name, rb, 1, tmp)
    for _, fn in work.ops:
        fn()
    for key in ("dpbtrf", "dpbtrs", "splu"):
        lapack[key] = {"calls": 0, "s": 0.0}
        setattr(rb.fem, key, wrap(getattr(rb.fem, key), lapack[key], key))
    lapack["dpbtrf"]["failed"] = 0
    rb.fem.solve_resolvent = wrap(rb.fem.solve_resolvent, resolvent)
    for module, cls in (("geometry", rb.geometry.Mesh),
                        ("fem", rb.fem.Assembly),
                        ("fem", rb.fem._BandScatter)):
        entry = setup[f"{module}.{cls.__name__}"] = {"calls": 0, "s": 0.0}
        cls.__init__ = wrap(cls.__init__, entry)
    for _, fn in work.ops:
        fn()
    # a copy, since the wrappers go on counting in the traced round
    record = json.loads(json.dumps({"lapack": lapack, "setup": setup,
                                    "resolvent": resolvent}))
    tracemalloc.start()
    for _, fn in work.ops:
        fn()
    record["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
print(json.dumps(record))
"""

# A paired-round worker, run in the checkout by ``python -c``: builds the
# workload on seed 1, then runs one round per line read and prints its
# round and op seconds as one JSON line
_TURNS = """
import json, sys, tempfile, time
import robinopt.cli
import robinopt as rb
import workloads

with tempfile.TemporaryDirectory() as tmp:
    work = workloads.build(sys.argv[1], rb, 1, tmp)
    for _ in sys.stdin:
        ops = []
        for _, fn in work.ops:
            t0 = time.perf_counter()
            fn()
            ops.append(time.perf_counter() - t0)
        print(json.dumps({"round_s": sum(ops), "op_s": ops}), flush=True)
"""


def _env(checkout):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(Path(checkout) / d) for d in ("src", "perfbench")))
    env.pop("ROBINOPT_JOBS", None)
    return env


def _probe(checkout, workload):
    """LAPACK, SuperLU, set-up and resolvent calls of one warm round on
    seed 1, and the traced allocation peak of the next."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, workload],
                          cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def _paired_rounds(sides, workload):
    """Two warm workers, one per side, taking turns at rounds on seed 1."""
    workers = {side: subprocess.Popen(
        [sys.executable, "-c", _TURNS, workload], cwd=checkout,
        env=_env(checkout), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
        for side, checkout in sides.items()}
    rounds = {side: [] for side in sides}
    try:
        for k in range(WARMUP + ROUNDS):
            for side in (("parent", "change") if k % 2 == 0
                         else ("change", "parent")):
                worker = workers[side]
                worker.stdin.write("round\n")
                worker.stdin.flush()
                line = worker.stdout.readline()
                if not line:
                    return {"error": f"{side} worker exited "
                            f"{worker.wait()}"}
                if k >= WARMUP:
                    rounds[side].append(json.loads(line))
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    out = {side: {"round_s_median": statistics.median(
                      r["round_s"] for r in rounds[side]),
                  "op_s_median": statistics.median(
                      t for r in rounds[side] for t in r["op_s"])}
           for side in sides}
    ratios = [c["round_s"] / p["round_s"]
              for p, c in zip(rounds["parent"], rounds["change"])]
    out.update(rounds=ROUNDS, warmup=WARMUP,
               round_ratio_median=statistics.median(ratios),
               change_wins=sum(r < 1 for r in ratios))
    return out


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
                 "python": platform.python_version(),
                 **{pkg: importlib.metadata.version(pkg)
                    for pkg in ("numpy", "scipy")},
                 **{var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
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
            probes = {side: _probe(sides[side], workload)
                      for side in ("parent", "change")}
            report["workloads"][workload] = {
                "pairs": pairs,
                "summary": _summary(pairs, metrics),
                "traced_seed1": traced,
                "lapack_seed1": {side: probe.get("lapack", probe)
                                 for side, probe in probes.items()},
                "setup_seed1": {side: probe.get("setup", probe)
                                for side, probe in probes.items()},
                "resolvent_seed1": {side: probe.get("resolvent", probe)
                                    for side, probe in probes.items()},
                "traced_peak_seed1": {side: probe.get("traced_peak_mb", probe)
                                      for side, probe in probes.items()},
                "rounds_seed1": _paired_rounds(sides, workload),
            }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
