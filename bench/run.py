"""Closed-loop, oracle-checked benchmark of the bosonsim workbench.

Usage (from the repository root):

    python3 bench/run.py --workload compile_sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

One client keeps one task in flight: the next task starts when the
previous one returns.  Each workload runs in fresh child processes with
BLAS and OpenMP pinned to one thread; set-up is measured in several
children and reported as the median.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import LAYERS, per_layer_metrics  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5  # children whose set-up is timed; the median is reported
# Time limits per workload, from its start: the child starts no task after
# LAST_TASK_S and reports what it measured; a child still running at
# TIMEOUT_S is killed.  A slow program thus reads as slow, not as a crash.
LAST_TASK_S = 140.0
TIMEOUT_S = 175.0
THREADS = "1"
# glibc malloc raises its mmap threshold when a large block is freed, so the
# order of earlier large frees changed every later task's cost by 30-60 %
# between seeds.  Fixing the thresholds gives each run the same allocator.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
TAIL_BEYOND = 10  # task_tail_s is a percentile with at least this many samples beyond
LANDING = 0.05  # share of the ranks on each side of a percentile's rank that it lands on

END_TO_END = [("tasks_per_s", "1/s"), ("task_p50_s", "s"), ("task_tail_s", "s"),
              ("peak_rss_mb", "MiB"), ("setup_s", "s")]


def _load_manifest() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def machine_record() -> dict:
    rec = {"nproc": len(os.sched_getaffinity(0)), "threads": int(THREADS), **MALLOC_ENV,
           "python": platform.python_version(), "numpy": metadata.version("numpy"),
           "scipy": metadata.version("scipy"), "cpu": platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu"] = next(l.split(":", 1)[1].strip() for l in fh
                              if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                rec[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    return rec


def _percentile(sorted_vals, p):
    """Linear interpolation between order statistics (numpy's default)."""
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def min_tasks(p) -> int:
    """Fewest task times that leave TAIL_BEYOND of them above the p-th percentile."""
    n = TAIL_BEYOND + 1
    while n - 1 - int((n - 1) * p / 100.0) < TAIL_BEYOND:
        n += 1
    return n


def landing(records, p) -> dict:
    """Task labels (with counts) whose ranks lie near the rank of the p-th percentile."""
    recs = sorted(records, key=lambda r: r["seconds"])
    pos = round((len(recs) - 1) * p / 100.0)
    half = max(2, int(LANDING * len(recs)))
    near = recs[max(0, pos - half):pos + half + 1]
    labels = sorted({r["label"] for r in near})
    counts = {lab: sum(r["label"] == lab for r in near) for lab in labels}
    return dict(sorted(counts.items(), key=lambda kv: -kv[1]))


def by_label(records) -> dict:
    """Count, median time and share of task time for each task label."""
    busy = sum(r["seconds"] for r in records)
    out = {}
    for lab in sorted({r["label"] for r in records}):
        ts = [r["seconds"] for r in records if r["label"] == lab]
        out[lab] = {"n": len(ts), "median_s": _median(ts), "share": sum(ts) / busy}
    return dict(sorted(out.items(), key=lambda kv: kv[1]["median_s"]))


def _median(xs):
    return _percentile(sorted(xs), 50.0)


def _spawn(workload, seed, seconds, trace, setup_only, env, started, tail_p) -> dict:
    wdir = WORK / workload
    result = WORK / f"{workload}.child.json"
    WORK.mkdir(exist_ok=True)
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(wdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned), "--last-task-at", repr(started + LAST_TASK_S),
            "--min-tasks", str(min_tasks(tail_p))]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, started + TIMEOUT_S - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, env, tail_p) -> dict:
    started = time.monotonic()
    setups = [_spawn(workload, seed, seconds, trace, True, env, started, tail_p)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = _spawn(workload, seed, seconds, trace, False, env, started, tail_p)
    setups.append(res["setup_s"])
    if res["warmup"]["error"]:
        raise RuntimeError(f"{workload} warm-up task failed: {res['warmup']['error']}")
    recs = res["records"] + res["traced"]
    failed = [r for r in recs if r["error"]]
    out = {"workload": workload, "attempted": len(recs), "failed": len(failed),
           "failures": failed[:5], "cycles": res["cycles"], "blas": res.get("blas"),
           "stopped_early": res["stopped_early"]}
    times = [r["seconds"] for r in res["records"]]
    if not times:
        raise RuntimeError(f"{workload}: no task finished within {LAST_TASK_S:g} s")
    v = _percentile(sorted(times), tail_p)
    out["tail"] = {"percentile": tail_p, "samples": len(times),
                   "beyond": sum(x > v for x in times)}
    out["lands_on"] = {"p50": landing(res["records"], 50.0),
                       f"p{tail_p:g}": landing(res["records"], tail_p)}
    out["by_label"] = by_label(res["records"])
    out["failed_frac"] = len(failed) / max(1, len(recs))
    if not trace:
        busy = sum(times)
        passed = sum(1 for r in res["records"] if not r["error"])
        out["metrics"] = {
            "tasks_per_s": passed / busy, "task_p50_s": _median(times),
            "task_tail_s": v, "peak_rss_mb": res["maxrss_kib"] / 1024.0,
            "setup_s": _median(setups)}
        out["units"] = dict(END_TO_END)
        return out
    names = per_layer_metrics()
    cycles = res["cycles"]
    traced = sum(r["seconds"] for r in res["traced"])
    untraced = sum(r["seconds"] for r in res["records"])
    m = {}
    for name, unit in names:
        if name.startswith(("share.", "trace.")):
            continue
        if unit == "s":
            m[name] = res["self_s"].get(name[:-2], 0.0) / cycles
        elif name == "pauli.qubits_max":
            m[name] = res["counts"].get(name, 0)
        else:
            m[name] = res["counts"].get(name, 0) / cycles
    for layer in LAYERS:
        m[f"share.{layer}"] = sum(s for n, s in res["self_s"].items()
                                  if n.split(".")[0] == layer) / traced
    m["share.other"] = 1.0 - sum(m[f"share.{layer}"] for layer in LAYERS)
    m["trace.overhead_s"] = (traced - untraced) / cycles
    m["trace.overhead_frac"] = (traced - untraced) / untraced
    out["metrics"] = m
    out["units"] = dict(names)
    return out


def report(out: dict):
    w = out["workload"]
    print(f"== {w}: {out['attempted']} tasks in {out['cycles']:.3g} cycles, "
          f"{out['failed']} failed (failed_frac {out['failed_frac']:.4g} ratio)")
    t = out["tail"]
    print(f"   tail = p{t['percentile']:g} of {t['samples']} task times "
          f"({t['beyond']} beyond it)")
    if out["stopped_early"]:
        print(f"   stopped {LAST_TASK_S:g} s after the workload started, "
              "inside a cycle")
    for q, labels in out["lands_on"].items():
        near = ", ".join(f"{lab} x{n}" for lab, n in labels.items())
        print(f"   {q} lands on: {near}")
    for lab, row in out["by_label"].items():
        print(f"   task {lab:58s} n={row['n']:<4d} median {row['median_s']:.4g} s, "
              f"{row['share']:.3f} of task time")
    for name, val in out["metrics"].items():
        print(f"   {name:42s} {val:.6g} {out['units'][name]}")
    for f in out["failures"]:
        print(f"   FAILED {f['tag']} ({f['kind']}): {f['error']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not (ROOT / "src" / "bosonsim" / "__init__.py").is_file():
        print(f"error: no bosonsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = _load_manifest()
    names = list(manifest["workloads"]) if a.workload == "all" else [a.workload]
    if any(n not in manifest["workloads"] for n in names):
        print(f"error: unknown workload {a.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0", **MALLOC_ENV)
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    outs = []
    try:
        for n in names:
            out = run_workload(n, a.seed, a.seconds, a.trace, env,
                               manifest["tail_percentile"])
            report(out)
            outs.append(out)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if outs[0].get("blas"):
        print("blas " + json.dumps(outs[0]["blas"], sort_keys=True))
    with open(WORK / f"report-{a.workload}-seed{a.seed}-trace{a.trace}.json", "w") as fh:
        json.dump({"machine": machine, "seed": a.seed, "seconds": a.seconds,
                   "workloads": outs}, fh, indent=1, sort_keys=True)
    prefix = len(outs) > 1
    metrics = {(f"{o['workload']}.{k}" if prefix else k): {"value": v, "unit": o["units"][k]}
               for o in outs for k, v in o["metrics"].items()}
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(o["attempted"] for o in outs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
