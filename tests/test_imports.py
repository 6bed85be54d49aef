import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bosonsim

# Every bosonsim module plus the lazy sparse import of truncation_defect,
# as a process that never runs a flow or an optimizer loads them.
IMPORT_ALL = """
import importlib, pkgutil, sys
import bosonsim, scipy.sparse.linalg
for mod in pkgutil.iter_modules(bosonsim.__path__):
    importlib.import_module("bosonsim." + mod.name)
print(sorted(m for m in sys.modules if m.startswith(("scipy.integrate", "scipy.optimize"))))
"""


def test_package_import_leaves_the_ode_integrator_and_optimizers_unloaded():
    # wegner_flow imports scipy.integrate, and solve_cc_amplitudes and
    # nested_optimize import scipy.optimize, when called; loading them with the
    # package would add ~40 ms and ~2 MiB, and 0.13-0.22 s and ~17 MiB, to
    # every process
    env = dict(os.environ, PYTHONPATH=str(Path(bosonsim.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_unloaded():
    # subcommands import scipy when they run: under -X importtime,
    # scipy.sparse.linalg alone took 0.57 s with numpy (2-core VM), which every
    # CLI process would otherwise pay at start-up
    env = dict(os.environ, PYTHONPATH=str(Path(bosonsim.__file__).resolve().parents[1]))
    code = "import sys, bosonsim.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _bench_spans() -> dict:
    """The namespace of the bench tracer's spans.py, read and run, never written."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spans = {"__name__": "bench_spans"}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    return spans


def test_every_name_the_bench_tracer_wraps_exists():
    # the tracer swaps these attributes in place, so a renamed or deleted one
    # would crash a traced bench run
    spans = _bench_spans()
    for module, attr_path, _, _ in spans["WRAPS"]:
        owner = importlib.import_module(module)
        *parents, attr = attr_path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        assert callable(owner.__dict__.get(attr)), f"{module}.{attr_path}"


@pytest.mark.parametrize("t, dt, rows", [("0.5004", "2e-3", 251), ("0.6", "1e-3", 600)])
def test_lindblad_propagates_once_where_the_bench_tracer_counts_it(t, dt, rows, tmp_path,
                                                                    monkeypatch):
    # the tracer's open_systems.propagate_lindblad span and rk4_steps count read
    # this one call's t and dt
    from bosonsim import open_systems
    from bosonsim.cli import run
    calls, right = [], open_systems.propagate_lindblad

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return right(*args, **kwargs)

    monkeypatch.setattr(open_systems, "propagate_lindblad", spy)
    out = tmp_path / "lb.csv"
    assert run(["lindblad", "--t", t, "--dt", dt, "--out", str(out)]) == 0
    assert len(calls) == 1
    spans, (args, kwargs) = _bench_spans(), calls[0]
    assert spans["_arg"](args, kwargs, 2, "t") == float(t)
    assert spans["_arg"](args, kwargs, 3, "dt", 1e-3) == float(dt)
    steps = spans["_count_rk4"](args, kwargs, None)["open_systems.rk4_steps"]
    assert steps == rows == len(out.read_text().splitlines()) - 1


@pytest.mark.parametrize("kind, spec", [
    ("spin_boson", {"delta": 0.8, "epsilon": 0.3, "omegas": [1.1, 0.7], "couplings": [0.2, 0.4],
                    "cutoffs": [3, 7]}),
    ("bose_hubbard", {"n_sites": 3, "Nb": 3, "t": 0.6, "U": 1.2, "V": 0.2, "mu": 0.1}),
    ("holstein", {"n_sites": 3, "v": 0.9, "omega": 1.3, "g": 0.7}),
])
def test_compile_calls_what_the_bench_tracer_counts_once_each(kind, spec, tmp_path, monkeypatch):
    # the tracer's models.build.*, dynamics.synthesize.calls and dynamics.qasm_gates
    # read these calls, so each must stay one call per model, term and circuit
    import json

    from bosonsim import dynamics, models
    from bosonsim.cli import run
    calls = {"build": [], "synthesize": [], "to_qasm": []}

    def spy(name, right):
        def wrapper(*args, **kwargs):
            calls[name].append((args, kwargs, right(*args, **kwargs)))
            return calls[name][-1][2]
        return wrapper

    builder = f"build_{kind}"
    monkeypatch.setattr(models, builder, spy("build", getattr(models, builder)))
    monkeypatch.setattr(dynamics, "synthesize_pauli_exponential",
                        spy("synthesize", dynamics.synthesize_pauli_exponential))
    monkeypatch.setattr(dynamics.GateList, "to_qasm", spy("to_qasm", dynamics.GateList.to_qasm))
    path, qasm = tmp_path / "m.json", tmp_path / "c.qasm"
    path.write_text(json.dumps(dict(spec, model=kind)))
    assert run(["compile", "--model", str(path), "--out", str(tmp_path / "h.txt"),
                "--circuits", str(qasm)]) == 0
    assert len(calls["build"]) == 1
    terms = calls["build"][0][2].pauli.terms
    moving = [t for t in terms if set(t.letters) != {"I"}]
    assert len(moving) < len(terms)  # an identity term is a phase, never synthesized
    assert [args[0] for args, _, _ in calls["synthesize"]] == [t.letters for t in moving]
    [(args, kwargs, _)] = calls["to_qasm"]
    gates = _bench_spans()["_count_qasm"](args, kwargs, None)["dynamics.qasm_gates"]
    assert gates == sum(len(gl.gates) for _, _, gl in calls["synthesize"])
    assert gates == len(qasm.read_text().splitlines()) - 3  # after the header and qreg lines
