"""Tests of the benchmark itself: inputs, oracle checks and the result line.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import tasks  # noqa: E402

MANIFEST = tasks.load_manifest()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _all_tasks(seed, workdir):
    out = []
    for name in MANIFEST["workloads"]:
        out.append(tasks.make_warmup(name, seed, workdir))
        for c in range(2):
            out += tasks.make_cycle(name, seed, c, workdir)
    return out


def test_one_seed_gives_byte_identical_inputs():
    wd = Path(".bench_work/inputs")
    a = json.dumps(_all_tasks(7, wd), sort_keys=True).encode()
    b = json.dumps(_all_tasks(7, wd), sort_keys=True).encode()
    assert a == b
    assert a != json.dumps(_all_tasks(8, wd), sort_keys=True).encode()


def test_coefficients_do_not_repeat_across_cycles():
    wd = Path(".bench_work/inputs")
    specs = [json.dumps(t["params"]["spec"], sort_keys=True)
             for c in range(3) for t in tasks.make_cycle("compile_sweep", 1, c, wd)]
    assert len(set(specs)) == len(specs)


def test_every_readme_subcommand_runs():
    wd = Path(".bench_work/inputs")
    used = {t["calls"][0][0] for t in _all_tasks(1, wd) if t["calls"]}
    assert used == {"compile", "evolve", "walk", "lindblad", "pds", "downfold", "trunc",
                    "blockenc", "prep", "wegner", "xy"}


# ---------------------------------------------------------------------------
# every check type can fail
# ---------------------------------------------------------------------------


def _edit_text(path, fn):
    p = Path(path)
    p.write_text(fn(p.read_text()))


def _edit_csv(path, fn):
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    fn(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    Path(path).write_text(buf.getvalue())


def _edit_json(path, fn):
    data = json.loads(Path(path).read_text())
    fn(data)
    Path(path).write_text(json.dumps(data))


def _bump(row, col, delta):
    row[col] = repr(float(row[col]) + delta)


def _flat_pds(rows):
    """Every E_PDS(K) set to E_PDS1, the trial-state energy, which lies above E_ED."""
    for row in rows[1:]:
        row[3:] = [row[2]] * len(row[3:])


# one or more wrong results per check type
CORRUPT = {
    "compile": lambda t, o: _edit_text(t["outputs"][0], lambda s: s.replace(" 0.0 ", " 0.5 ", 1)),
    "evolve": [
        lambda t, o: _edit_json(t["outputs"][1], lambda d: d.update(
            error_2norm=json.loads(Path(t["outputs"][0]).read_text())["error_2norm"])),
        # the Trotter path swapped for the exact propagator
        lambda t, o: [_edit_json(f, lambda d: d.update(error_2norm=0.0, fidelity=1.0))
                      for f in t["outputs"]],
    ],
    "pds": [
        lambda t, o: _edit_csv(t["outputs"][0], lambda r: _bump(r[-1], -1, -1.0)),
        lambda t, o: _edit_csv(t["outputs"][0], _flat_pds),
    ],
    "lindblad": lambda t, o: _edit_csv(t["outputs"][0], lambda r: _bump(r[-1], 2, 0.1)),
    "walk": lambda t, o: _edit_csv(t["outputs"][0], lambda r: _bump(r[2], 2, 0.1)),
    "wegner": lambda t, o: _edit_csv(t["outputs"][0], lambda r: _bump(r[-1], 2, 1e-3)),
    "downfold": lambda t, o: _edit_json(t["outputs"][0], lambda d: d.update(
        energy=d["energy"] + 1e-3)),
    "trunc": lambda t, o: _edit_csv(t["outputs"][0], lambda r: _bump(r[-1], -1, 1.0)),
    "blockenc": lambda t, o: _edit_json(t["outputs"][0], lambda d: d.update(
        measured_error=1.0)),
    "prep": lambda t, o: _edit_json(t["outputs"][0], lambda d: d.update(fidelity=0.5)),
    "xy": lambda t, o: _edit_csv(t["outputs"][0], lambda r: _bump(r[-1], -1, 1e-6)),
    "defect_scan": lambda t, o: o["result"].update(defect=2.0 * o["result"]["defect"]),
    "leakage": lambda t, o: o["result"].update(value=1e-3),
    "cc": lambda t, o: o["result"].update(energy=o["result"]["energy"] + 1e-6),
}


def _size(task):
    p = task["params"]
    return p.get("qubits") or p.get("sites") or p.get("dim") or 0


def _cheapest(kind, workdir):
    found = [t for name in MANIFEST["workloads"]
             for t in tasks.make_cycle(name, 1, 0, workdir) if t["kind"] == kind]
    return min(found, key=_size)


CASES = [(kind, i, fn) for kind, fns in sorted(CORRUPT.items())
         for i, fn in enumerate(fns if isinstance(fns, list) else [fns])]


def test_corruptions_cover_every_check():
    import checks
    assert set(CORRUPT) == set(checks.CHECKS)


@pytest.mark.parametrize("kind,case,corrupt", CASES, ids=[f"{k}-{i}" for k, i, _ in CASES])
def test_wrong_result_fails_its_check(kind, case, corrupt, tmp_path):
    task = _cheapest(kind, tmp_path)
    good = child.run_one(task)
    assert good["error"] == ""
    bad = child.run_one(task, corrupt=corrupt)
    assert bad["error"]
    records = [good, bad]
    assert sum(bool(r["error"]) for r in records) / len(records) > 0


def test_wrong_pauli_matrices_fail_the_evolve_check(tmp_path, monkeypatch):
    """Exact and Trotter paths share to_matrix, so only the Fock oracle sees it wrong."""
    from bosonsim import pauli
    task = _cheapest("evolve", tmp_path)
    assert child.run_one(task)["error"] == ""
    right = pauli.PauliTerm.to_matrix

    def reversed_qubits(self, *args, **kwargs):
        return right(pauli.PauliTerm(self.letters[::-1], self.coefficient), *args, **kwargs)

    monkeypatch.setattr(pauli.PauliTerm, "to_matrix", reversed_qubits)
    assert child.run_one(task)["error"] == "identification defect >= 1e-10"


def test_child_stops_at_its_last_task_time(tmp_path):
    result = tmp_path / "child.json"
    now = time.monotonic()
    assert child.main(["--workload", "compile_sweep", "--seed", "3", "--seconds", "1000",
                       "--spawned-at", repr(now), "--last-task-at", repr(now + 1.0),
                       "--min-tasks", "1", "--workdir", str(tmp_path / "work"),
                       "--result", str(result)]) == 0
    res = json.loads(result.read_text())
    per_cycle = sum(e["per_cycle"] for e in MANIFEST["workloads"]["compile_sweep"]["mix"])
    assert res["stopped_early"] and 0 < len(res["records"]) < per_cycle
    assert res["cycles"] == len(res["records"]) / per_cycle


def test_min_tasks_leaves_ten_samples_beyond_the_tail():
    import run
    for p in (50.0, 90.0, 99.0):
        times = [float(i) for i in range(run.min_tasks(p))]
        assert sum(t > run._percentile(times, p) for t in times) >= run.TAIL_BEYOND
        fewer = times[:-1]
        assert sum(t > run._percentile(fewer, p) for t in fewer) < run.TAIL_BEYOND
    assert run.min_tasks(90.0) == 92


def test_failing_exit_code_is_counted(tmp_path):
    task = _cheapest("blockenc", tmp_path)
    task["calls"][0][task["calls"][0].index("--cutoff") + 1] = "5"  # not a power of 2
    assert child.run_one(task)["error"].startswith("exit codes [2]")


# ---------------------------------------------------------------------------
# the result line
# ---------------------------------------------------------------------------


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(MANIFEST["workloads"]))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in want:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "compile_sweep", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
