"""One benchmark child process: set up, run whole cycles, check every task.

Started by ``run.py`` with the parent's monotonic clock reading at spawn
time, so set-up time covers interpreter start, imports (every bosonsim
module, including the ones ``cli`` imports lazily), input generation and
one untimed warm-up task.  Writes one JSON result file and exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy  # noqa: E402

# Only what the program imports: every bosonsim module, plus the module
# that trunc_bounds.truncation_defect imports lazily on its first call.
import scipy.sparse.linalg  # noqa: E402,F401
from bosonsim import (block_encoding, cli, downfolding, dynamics, encodings,  # noqa: E402,F401
                      flows, ground_state, models, open_systems, pauli, state_prep,
                      trunc_bounds)

import checks  # noqa: E402
import tasks  # noqa: E402
from spans import Tracer  # noqa: E402


def run_one(task: dict, tracer: Tracer | None = None, corrupt=None) -> dict:
    """Time one task, then check it outside the timed interval."""
    tasks.write_inputs(task)
    gc.collect()  # no task pays for collecting its predecessors' cycles
    if tracer is not None:
        tracer.task = task["tag"]
        tracer.install()
    start = time.perf_counter()
    try:
        outcome = tasks.run_task(task, cli.run)
        error = ""
    except Exception as exc:  # a task that raises is a failure, not a crash
        outcome, error = {}, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if not error:
        if corrupt is not None:
            corrupt(task, outcome)
        try:
            error = checks.check(task, outcome)
        except Exception as exc:  # unreadable output fails its check
            error = f"check raised {type(exc).__name__}: {exc}"
    tasks.clean_outputs(task)
    return {"kind": task["kind"], "label": task["label"], "tag": task["tag"],
            "seconds": elapsed, "error": error}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--last-task-at", type=float, required=True)
    ap.add_argument("--min-tasks", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    a = ap.parse_args(argv)

    workdir = Path(a.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    manifest = tasks.load_manifest()
    cycle = tasks.make_cycle(a.workload, a.seed, 0, workdir, manifest)
    warm = run_one(tasks.make_warmup(a.workload, a.seed, workdir, manifest))
    setup_s = time.monotonic() - a.spawned_at
    result = {"setup_s": setup_s, "warmup": warm, "records": [], "traced": [],
              "cycles": 0, "stopped_early": False}
    if not a.setup_only:
        tracer = Tracer() if a.trace else None
        records = result["records"]
        timed = 0.0
        c = 0
        # Whole cycles until --seconds of task time and --min-tasks tasks, but
        # no task starts after --last-task-at: a slow program then reports a
        # partial cycle instead of overrunning the run's time limit.
        while not result["stopped_early"] and (timed < a.seconds or len(records) < a.min_tasks):
            if c:
                cycle = tasks.make_cycle(a.workload, a.seed, c, workdir, manifest)
            for i, t in enumerate(cycle):
                if time.monotonic() > a.last_task_at:
                    result["stopped_early"] = True
                    break
                if tracer is None:
                    records.append(run_one(t))
                    timed += records[-1]["seconds"]
                    continue
                # each task untraced and traced back to back, so both runs see
                # the same machine state; alternate which of the two goes first
                for tr in ([None, tracer] if (i + c) % 2 == 0 else [tracer, None]):
                    rec = run_one(t, tr)
                    (result["traced"] if tr else records).append(rec)
                    timed += rec["seconds"]
            c += 1
        result["cycles"] = len(records) / len(cycle)
        if tracer is not None:
            result["self_s"] = dict(tracer.self_times())
            result["counts"] = dict(tracer.counts)
            tracer.dump(workdir / "spans.jsonl")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(a.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
