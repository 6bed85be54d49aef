import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import bosonsim
from bosonsim import (block_encoding, cli, downfolding, dynamics, encodings, flows,
                      ground_state, models, open_systems, state_prep, trunc_bounds)
from bosonsim.cli import _parse_range, run
from bosonsim.dynamics import evolve_exact
from bosonsim.errors import ParameterError
from bosonsim.models import (BoseHubbardParams, build_bose_hubbard, embed_fock,
                             mode_matrices, walk_observables)
from bosonsim.open_systems import LindbladSpec, build_liouvillian
from bosonsim.pauli import PauliSum


SB_MODEL = {
    "model": "spin_boson",
    "delta": 1.0,
    "epsilon": 2.0,
    "omegas": [2.0],
    "couplings": [0.5],
    "cutoffs": [3],
}


@pytest.fixture
def sb_path(tmp_path):
    path = tmp_path / "sb.json"
    path.write_text(json.dumps(SB_MODEL))
    return str(path)


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand():
    assert run(["frobnicate"]) == 2


def test_parse_range_forms():
    assert _parse_range("1..4") == [1.0, 2.0, 3.0, 4.0]
    assert _parse_range("0,0.5,2") == [0.0, 0.5, 2.0]
    assert _parse_range("0.7") == [0.7]


@pytest.mark.parametrize("bad", ["0.5..2", "5..1"])
def test_trunc_rejects_overshooting_or_descending_range(bad, capsys):
    assert run(["trunc", "--t", bad]) == 2
    assert "whole steps" in capsys.readouterr().err


def test_all_selftests_pass():
    for cmd in ("compile", "evolve", "walk", "lindblad", "pds", "downfold",
                "trunc", "blockenc", "prep", "wegner", "xy"):
        assert run([cmd, "--selftest"]) == 0, cmd


def test_compile_writes_pauli_text(sb_path, tmp_path):
    out = tmp_path / "h.txt"
    assert run(["compile", "--model", sb_path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 9
    by_word = {}
    for line in lines:
        re_, im_, word = line.split()
        by_word[word] = float(re_)
        assert float(im_) == 0.0
    assert by_word["III"] == pytest.approx(3.0)
    assert by_word["IIZ"] == pytest.approx(-1.0)
    assert by_word["XIX"] == pytest.approx(0.25 * (1 + math.sqrt(3)))
    assert by_word["XXX"] == pytest.approx(0.25 * math.sqrt(2))


def test_compile_also_emits_circuit(sb_path, tmp_path):
    out = tmp_path / "h.txt"
    qasm = tmp_path / "step.qasm"
    assert run(["compile", "--model", sb_path, "--out", str(out),
                "--circuits", str(qasm), "--dt", "0.05"]) == 0
    text = qasm.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "qreg q[3];" in text


def test_compile_circuit_with_overflowing_angle_exits_2(sb_path, tmp_path, capsys):
    # finite --dt whose rotation angle 2·c·dt overflows to inf
    out, qasm = tmp_path / "h.txt", tmp_path / "step.qasm"
    assert run(["compile", "--model", sb_path, "--out", str(out),
                "--circuits", str(qasm), "--dt", "1e308"]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists() and not qasm.exists()


def test_failed_selftest_exits_1(monkeypatch, capsys):
    def broken():
        raise AssertionError("broken invariant")

    monkeypatch.setitem(cli._SELFTESTS, "pauli", broken)
    assert run(["compile", "--selftest"]) == 1
    assert "pauli: broken invariant" in capsys.readouterr().err


def _scaled_creation(ops):
    # a creation sum 1.5 times too large: b = (b†)† and n = b†b follow it
    return {"creation": 1.5 * ops["creation"],
            "annihilation": 1.5 * ops["annihilation"],
            "number": 2.25 * ops["number"]}


# module[-variant] -> (subcommand, owner, attribute, right -> wrong): a fault
# the module's --selftest check must catch
FAULTS = {
    "pauli": ("compile", PauliSum, "to_text",
              lambda right: lambda self: right(self.adjoint())),
    "encodings": ("compile", encodings, "boson_ops_unary",
                  lambda right: lambda Nb: _scaled_creation(right(Nb))),
    "models": ("compile", models, "_boson_pauli_ops",
               lambda right: lambda *a: dict(right(*a), number=1.1 * right(*a)["number"])),
    "dynamics": ("evolve", dynamics, "synthesize_pauli_exponential",
                 lambda right: lambda term, theta: right(term, 1.1 * theta)),
    "open_systems": ("lindblad", open_systems, "build_liouvillian",  # [H, ρ] sign flipped
                     lambda right: lambda spec: right(dataclasses.replace(spec, H=-spec.H))),
    "ground_state": ("pds", ground_state, "moments",
                     lambda right: lambda H, phi, k: right(H + 0.1 * np.eye(len(H)), phi, k)),
    "downfolding": ("downfold", downfolding, "apply_ansatz",  # r2 rotation dropped
                    lambda right: lambda params, space:
                    right(dataclasses.replace(params, r2=0.0), space)),
    "trunc_bounds": ("trunc", trunc_bounds, "_durations_from_profile",
                     lambda right: lambda *a: [1.01 * d for d in right(*a)]),
    "trunc_bounds-leakage": ("trunc", trunc_bounds, "short_time_leakage_bound",
                             lambda right: lambda d: trunc_bounds.LeakageBound(
                                 right(d).log_value + math.log(1e6), 1e6 * right(d).value)),
    "block_encoding": ("blockenc", block_encoding, "_sign_table",
                       lambda right: lambda *a: 0),
    "state_prep": ("prep", state_prep, "plan_prep",
                   lambda right: lambda c, scheme: dataclasses.replace(
                       right(c, scheme), p_success=0.9 * right(c, scheme).p_success)),
    "flows": ("xy", flows, "xy_spectrum",
              lambda right: lambda *a: dict(right(*a), E_k=1.1 * right(*a)["E_k"])),
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_selftest_catches_a_fault_in_its_module(case, monkeypatch, capsys):
    command, owner, attr, wrong = FAULTS[case]
    module = case.split("-")[0]
    right = getattr(owner, attr)
    # the fault holds wherever the function is bound, also where it was imported by name
    for ns in [owner] + [m for n, m in sys.modules.items() if n.startswith("bosonsim.")]:
        if getattr(ns, attr, None) is right:
            monkeypatch.setattr(ns, attr, wrong(right))
    assert run([command, "--selftest"]) == 1
    assert f"selftest FAILED: {module}: " in capsys.readouterr().err


BROKEN_XY_ORACLE = """
import sys
import numpy as np
from bosonsim import cli, flows
flows.xy_bdg_spectrum = lambda *args: np.full(6, 99.0)
sys.exit(cli.run(["xy", "--selftest"]))
"""


def test_selftest_fails_under_python_O():
    # the comparison is not an assert, so -O does not remove it
    env = dict(os.environ, PYTHONPATH=str(Path(bosonsim.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", BROKEN_XY_ORACLE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 1
    assert "selftest FAILED: flows: defect 99 exceeds 1e-10" in out.stderr


@pytest.mark.parametrize("command", ["compile", "evolve"])
def test_non_hermitian_pauli_input_exits_2(command, sb_path, tmp_path, monkeypatch, capsys):
    right = models.build_spin_boson

    def skewed(params):
        model = right(params)
        n = model.pauli.qubit_count
        return dataclasses.replace(model, pauli=model.pauli + PauliSum.from_term("X" * n, 0.3j))

    monkeypatch.setattr(models, "build_spin_boson", skewed)
    out = tmp_path / "out"
    argv = [command, "--model", sb_path, "--out", str(out)]
    if command == "compile":
        argv += ["--circuits", str(tmp_path / "c.qasm")]
    assert run(argv) == 2
    assert "not Hermitian" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {k: v for k, v in SB_MODEL.items() if k != "delta"},
    dict(SB_MODEL, cutoffs=3),
    [SB_MODEL],
    dict(SB_MODEL, model=["spin_boson"]),
    dict(SB_MODEL, delta=math.nan),
    dict(SB_MODEL, epsilon=math.inf),
    dict(SB_MODEL, omegas=[-math.inf]),
], ids=["missing-field", "scalar-cutoffs", "array", "unhashable-model", "nan", "infinity",
        "minus-infinity"])
def test_malformed_model_spec_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    assert run(["compile", "--model", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_type_error_inside_a_command_propagates(sb_path, tmp_path, monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("programming bug")

    monkeypatch.setattr(dynamics, "evolve_exact", bug)
    with pytest.raises(TypeError, match="programming bug"):
        run(["evolve", "--model", sb_path, "--out", str(tmp_path / "e.json")])


def test_compile_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "spin_boson",\n  "delta": }\n')
    assert run(["compile", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_compile_unknown_model_key(tmp_path, capsys):
    cfg = dict(SB_MODEL)
    cfg["flux"] = 1.0
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    assert run(["compile", "--model", str(path)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_model_file_is_io_error(capsys):
    assert run(["compile", "--model", "/nonexistent/m.json"]) == 4
    assert "I/O error" in capsys.readouterr().err


def test_evolve_report_improves_with_steps(sb_path, tmp_path):
    errs = {}
    for steps in (8, 64):
        out = tmp_path / f"e{steps}.json"
        assert run(["evolve", "--model", sb_path, "--t", "1.0",
                    "--steps", str(steps), "--order", "2",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        errs[steps] = rep["error_2norm"]
        assert 0.0 <= rep["fidelity"] <= 1.0 + 1e-12
    assert errs[64] < errs[8]
    # second order: 8x the steps is ~64x the accuracy
    assert errs[8] / errs[64] == pytest.approx(64.0, rel=0.3)


def test_evolve_at_a_huge_time_takes_the_eigh_branch(sb_path, tmp_path):
    out = tmp_path / "e.json"
    start = time.perf_counter()
    assert run(["evolve", "--model", sb_path, "--t", "1e300", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 5.0
    assert 0.0 <= json.loads(out.read_text())["fidelity"] <= 1.0 + 1e-12


def test_twelve_qubit_holstein_evolve_is_fast_and_second_order(tmp_path):
    path = tmp_path / "holstein.json"
    path.write_text(json.dumps({"model": "holstein", "n_sites": 4, "v": 1.0, "omega": 1.2,
                                "g": 0.8, "Nb": 3}))
    errs = []
    for steps in (8, 16):
        out = tmp_path / f"e{steps}.json"
        start = time.perf_counter()
        assert run(["evolve", "--model", str(path), "--t", "1.0", "--steps", str(steps),
                    "--order", "2", "--initial-basis-state", "5", "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        errs.append(json.loads(out.read_text())["error_2norm"])
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_evolve_refuses_to_write_a_non_finite_number(sb_path, tmp_path, capsys):
    # at t = 1e308 the phases e^{−iwt} overflow, so the error norm is NaN
    out = tmp_path / "e.json"
    assert run(["evolve", "--model", sb_path, "--t", "1e308", "--out", str(out)]) == 2
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(err) == 1 and "JSON compliant" in err[0] and not out.exists()
    assert run(["evolve", "--model", sb_path, "--t", "1e300", "--out", str(out)]) == 0
    assert math.isfinite(json.loads(out.read_text())["error_2norm"])


def test_evolve_past_the_dense_limit_exits_2_before_allocating(tmp_path, capsys):
    import tracemalloc
    path = tmp_path / "bh.json"  # 16 qubits, 12,425 Pauli strings
    path.write_text(json.dumps({"model": "bose_hubbard", "n_sites": 4, "t": 1.0, "U": 1.0,
                                "V": 0.5, "Nb": 15}))
    out = tmp_path / "e.json"
    tracemalloc.start()
    try:
        assert run(["evolve", "--model", str(path), "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: 16-qubit table of 12425 strings of shape (12425, 65536)")
    assert "exceeds dense limit" in err and err.count("\n") == 1 and not out.exists()
    assert peak < 2**26


@pytest.mark.parametrize("argv, what", [
    (["--cutoff", "-1"], "--cutoff -1 must be >= 0"),
    (["--dt", "5e-324"], "--t 1.0 over --dt 5e-324 is not a finite step count"),
    (["--t", "1e300", "--dt", "1"], "lindblad row table of shape"),
], ids=["negative-cutoff", "subnormal-dt", "huge-t"])
def test_lindblad_refuses_its_boundary_by_flag(argv, what, tmp_path, capsys):
    out = tmp_path / "l.csv"
    assert run(["lindblad", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what}") and err.count("\n") == 1 and not out.exists()


def _walk_gamma(path, sites):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,q,Gamma"
    gamma = np.zeros((sites, sites))
    for line in lines[1:]:
        p, q, g = line.split(",")
        gamma[int(p), int(q)] = float(g)
    return gamma


def test_walk_output_is_symmetric_and_sums_to_pair_count(tmp_path):
    out = tmp_path / "walk.csv"
    assert run(["walk", "--sites", "5", "--t", "0.7", "--out", str(out)]) == 0
    gamma = _walk_gamma(out, 5)
    assert np.allclose(gamma, gamma.T, atol=1e-12)
    assert gamma.sum() == pytest.approx(2.0, abs=1e-10)  # <N(N-1)> for N=2


@pytest.mark.parametrize("sites", [3, 4, 5])
def test_walk_matches_the_dense_tensor_space_path(sites, tmp_path):
    out = tmp_path / "walk.csv"
    assert run(["walk", "--sites", str(sites), "--U", "1.3", "--t", "0.7",
                "--out", str(out)]) == 0
    m = build_bose_hubbard(BoseHubbardParams(n_sites=sites, t=1.0, U=1.3, Nb=2))
    dims = m.layout.fock_dims
    occ = [0] * sites
    occ[sites // 2] = 2
    psi0 = np.zeros(m.fock.shape[0], dtype=complex)
    psi0[np.ravel_multi_index(occ, dims)] = 1.0
    ann = [embed_fock(mode_matrices(d - 1)[0], dims, i) for i, d in enumerate(dims)]
    gamma, _ = walk_observables(evolve_exact(m.fock, psi0, 0.7), ann)
    assert np.max(np.abs(_walk_gamma(out, sites) - gamma)) < 1e-12


def test_walk_at_seven_sites(tmp_path):
    out = tmp_path / "walk.csv"
    assert run(["walk", "--sites", "7", "--out", str(out)]) == 0
    assert _walk_gamma(out, 7).sum() == pytest.approx(2.0, abs=1e-10)


def test_lindblad_series_trace_preserving(tmp_path):
    out = tmp_path / "lb.csv"
    assert run(["lindblad", "--cutoff", "3", "--gamma-dephasing", "0.1",
                "--gamma-heating", "0.05", "--t", "2.0", "--dt", "1e-2",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t[1/omega],mean_n,trace,purity"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert all(abs(r[2] - 1.0) < 1e-8 for r in rows)
    assert all(r[3] <= 1.0 + 1e-10 for r in rows)
    # heating from |1> raises the mean occupation
    assert rows[-1][1] > rows[0][1]


def _lindblad_rows(out):
    return [line.split(",") for line in out.read_text().splitlines()[1:]]


def test_lindblad_series_ends_at_t(tmp_path):
    out = tmp_path / "lb.csv"
    assert run(["lindblad", "--t", "0.0016", "--dt", "1e-3",
                "--out", str(out)]) == 0
    # one whole step, then a remainder step that lands exactly on t
    assert [float(r[0]) for r in _lindblad_rows(out)] == [1e-3, 0.0016]
    assert run(["lindblad", "--t", "1", "--dt", "1e-3", "--out", str(out)]) == 0
    rows = _lindblad_rows(out)
    assert len(rows) == 1000 and rows[-1][0] == "1"


def test_lindblad_columns_match_exact_state(tmp_path):
    out = tmp_path / "lb.csv"
    assert run(["lindblad", "--cutoff", "3", "--omega", "1.3",
                "--gamma-dephasing", "0.1", "--gamma-heating", "0.05",
                "--t", "0.05", "--dt", "1e-2", "--initial-level", "2",
                "--out", str(out)]) == 0
    b, _, n = mode_matrices(3)
    L = build_liouvillian(LindbladSpec(1.3 * n, 0.1, 0.05, b, n))
    v0 = np.zeros(16, dtype=complex)
    v0[10] = 1.0  # vec(|2><2|)
    rows = _lindblad_rows(out)
    assert len(rows) == 5
    for row in rows:
        tau, mean_n, trace, purity = map(float, row)
        rho = (expm(L * tau) @ v0).reshape((4, 4), order="F")
        assert mean_n == pytest.approx(np.trace(n @ rho).real, abs=1e-12)
        assert trace == pytest.approx(1.0, abs=1e-12)
        assert purity == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["lindblad", "--t", "-1"],
    ["lindblad", "--cutoff", "3", "--initial-level", "9"],
    ["lindblad", "--cutoff", "3", "--initial-level", "-1"],
    ["evolve", "--initial-basis-state", "99999"],
    ["evolve", "--initial-basis-state", "-3"],
    ["pds", "--max-k", "0"],
    ["pds", "--max-k", "-1"],
    ["prep", "--c", "0,0"],
    ["prep", "--c", "nan,1"],
    ["prep", "--c", "1,inf"],
    ["xy", "--seed", "1"],  # only wegner draws at random
    ["evolve", "--t", "nan"],
    ["walk", "--t", "inf"],
    ["xy", "--lam", "nan"],
    ["lindblad", "--omega", "nan"],
    ["pds", "--hop", "nan"],
    ["pds", "--g", "0,nan"],
    ["downfold", "--mu", "0,inf,1"],
    ["trunc", "--t", "1..nan"],
    ["compile", "--dt=-inf"],
])
def test_out_of_range_time_or_index_exits_2(argv, sb_path, tmp_path):
    model = {"evolve": ["--model", sb_path, "--steps", "4"], "compile": ["--model", sb_path]}
    assert run(argv + model.get(argv[0], []) + ["--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_pds_sweep_layout(tmp_path):
    out = tmp_path / "pds.csv"
    assert run(["pds", "--g", "0,1.0", "--max-k", "3",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "g,E_ED,E_PDS1,E_PDS2,E_PDS3"
    for line in lines[1:]:
        vals = list(map(float, line.split(",")))
        # every moment estimate sits at or above the true ground energy
        assert all(v >= vals[1] - 1e-9 for v in vals[2:])
    row0 = list(map(float, lines[1].split(",")))
    assert row0[1] == pytest.approx(-2.0, abs=1e-10)


def test_downfold_report(tmp_path):
    out = tmp_path / "df.json"
    csv_out = tmp_path / "df.csv"
    assert run(["downfold", "--out", str(out), "--csv", str(csv_out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["energy"] - rep["exact_energy"]) <= 1e-6
    assert len(rep["H_eff_row_major"]) == 9
    assert len(rep["iterations"]) <= 10
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "iteration,abs_energy_error"
    assert len(lines) == len(rep["iterations"]) + 1


def test_trunc_sweep_monotone_in_time(tmp_path):
    out = tmp_path / "tr.csv"
    assert run(["trunc", "--t", "1..5", "--eps", "1e-2",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t[1/omega],eps,N,dLambda,s,Lambda~"
    lams = [float(line.split(",")[-1]) for line in lines[1:]]
    assert lams[0] == 3721.0
    assert all(a <= b for a, b in zip(lams, lams[1:]))


def test_trunc_rejects_lambda0_below_one(capsys):
    assert run(["trunc", "--t", "1", "--lambda0", "0"]) == 2
    err = capsys.readouterr().err
    assert "lambda0 must be >= 1" in err and "1/(χ√Λ)" in err


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--t", "nan"), ("--chi", "nan"),
    ("--t", "inf"), ("--chi", "inf"), ("--t", "1e300"),
])
def test_trunc_non_finite_or_overflowing_input_exits_2(flag, value, capsys):
    inputs = dict(lambda0=1, chi=2.0, t=1.0, eps=1e-3)
    inputs[flag[2:]] = float(value)
    if value != "1e300":  # rejected on construction, before a schedule scan could spin
        with pytest.raises(ParameterError):
            trunc_bounds.TruncationInput(**inputs)
    assert run(["trunc", flag, value]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_trunc_mode_count_beyond_a_float_exits_2(capsys):
    modes = "1" + "0" * 310
    with pytest.raises(ParameterError):
        trunc_bounds.TruncationInput(lambda0=1, chi=2.0, t=1.0, eps=1e-3, n_modes=int(modes))
    assert run(["trunc", "--t", "1", "--modes", modes]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_wegner_non_finite_s_max_is_a_usage_error(capsys):
    # parsed only: where nan gets through, the flow never returns
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["wegner", "--s-max", "nan"])
    assert exc.value.code == 2


def test_overflowing_number_in_model_json_exits_2(tmp_path, capsys):
    # 1e400 parses to inf; json.dumps cannot write it, so the text is edited
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SB_MODEL).replace('"delta": 1.0', '"delta": 1e400'))
    assert run(["compile", "--model", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_trunc_cost_does_not_grow_with_the_step_count(capsys):
    start = time.perf_counter()
    assert run(["trunc", "--t", "1000"]) == 0
    assert time.perf_counter() - start < 1.0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert row[4] == "60002000"  # s


def test_blockenc_report(tmp_path):
    out = tmp_path / "be.json"
    assert run(["blockenc", "--cutoff", "8", "--xi", "1024",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["Lambda"] == 8 and rep["Xi"] == 1024
    assert rep["measured_error"] <= rep["error_bound"] + 1e-15
    assert rep["error_bound"] == pytest.approx(2 / 1024)


def test_blockenc_rejects_bad_cutoff(capsys):
    assert run(["blockenc", "--cutoff", "5", "--xi", "64"]) == 2


def test_blockenc_accepts_xi_up_to_two_to_the_48(tmp_path, capsys):
    out = tmp_path / "be.json"
    assert run(["blockenc", "--xi", str(2 ** 48), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["Xi"] == 2 ** 48
    assert run(["blockenc", "--xi", str(2 ** 49)]) == 2
    assert "Ξ must be a power of 2 from 2 to 2**48" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    # d⁴ complex entries; mode_matrices alone would ask for 7.28 TiB
    (["lindblad", "--cutoff", "1000000"], "Liouvillian"),
    # the 2**20 x 2**20 block alone is 8 TiB
    (["blockenc", "--cutoff", "1048576", "--xi", "2"], "block encoding"),
    # 721,801 sector states; building them recursively exceeds Python's recursion limit
    (["walk", "--sites", "1200"], "walk on 1200 sites"),
    # the random start matrix alone is 1.16 TiB
    (["wegner", "--dim", "400000"], "Wegner flow"),
], ids=["lindblad", "blockenc", "walk", "wegner"])
def test_oversized_command_exits_2_before_allocating(argv, what, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} of shape") and "exceeds dense limit" in err
    assert err.count("\n") == 1 and not out.exists()


def test_prep_report(tmp_path):
    out = tmp_path / "prep.json"
    assert run(["prep", "--scheme", "B", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    expect = 1.0 / (math.sqrt(1 / 3) + math.sqrt(2 / 3)) ** 2
    assert rep["p_success"] == pytest.approx(expect, abs=1e-12)
    assert rep["simulated_probability"] == pytest.approx(expect, abs=1e-10)
    assert rep["fidelity"] >= 1 - 1e-10


@pytest.mark.parametrize("argv, named", [(["--s-max", "-1"], "s_max=-1.0"),
                                         (["--dim", "0"], "H0 is empty")])
def test_wegner_rejects_bad_input_by_name(argv, named, tmp_path, capsys):
    assert run(["wegner", *argv, "--out", str(tmp_path / "w.csv")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def test_wegner_trajectory_converges(tmp_path):
    out = tmp_path / "wf.csv"
    assert run(["wegner", "--dim", "4", "--seed", "3",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,offdiag_norm,d0,d1,d2,d3"
    offs = [float(line.split(",")[1]) for line in lines[1:]]
    assert offs[-1] < 1e-5 * max(offs[0], 1.0)


def test_wegner_nonconvergence_exit_code(tmp_path, capsys):
    assert run(["wegner", "--dim", "6", "--seed", "3",
                "--s-max", "0.001", "--out", str(tmp_path / "w.csv")]) == 3


def test_wegner_csv_reaches_the_spectrum(tmp_path):
    out = tmp_path / "wf.csv"
    assert run(["wegner", "--dim", "5", "--seed", "7", "--out", str(out)]) == 0
    A = np.random.default_rng(7).normal(size=(5, 5))
    H0 = (A + A.T) / 2.0
    last = np.array([float(v) for v in out.read_text().strip().splitlines()[-1].split(",")])
    assert np.max(np.abs(np.sort(last[2:]) - np.linalg.eigvalsh(H0))) <= 1e-8
    tr_h2 = float(np.sum(H0 * H0))
    assert abs(np.sum(last[2:] ** 2) + last[1] ** 2 - tr_h2) <= 1e-10 * tr_h2


def test_wegner_stalling_flow_exit_code(tmp_path):
    # a near-degenerate start matrix stalls the flow until s_max
    assert run(["wegner", "--dim", "6", "--seed", "6",
                "--out", str(tmp_path / "w.csv")]) == 3


def test_xy_spectrum_output(tmp_path):
    out = tmp_path / "xy.csv"
    assert run(["xy", "--n", "6", "--gamma", "1.0", "--lam", "0.0",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k[1/a],eps_k,delta_k,E_k[J]"
    Es = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(Es) == 6
    assert all(E == pytest.approx(1.0) for E in Es)


def test_outputs_are_deterministic(tmp_path, sb_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["wegner", "--dim", "5", "--seed", "7",
                    "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    for path in (ja, jb):
        assert run(["evolve", "--model", sb_path, "--steps", "16",
                    "--out", str(path)]) == 0
    assert ja.read_bytes() == jb.read_bytes()
    la, lb = tmp_path / "a_lb.csv", tmp_path / "b_lb.csv"
    for path in (la, lb):
        assert run(["lindblad", "--cutoff", "7", "--gamma-dephasing", "0.1",
                    "--gamma-heating", "0.05", "--out", str(path)]) == 0
    assert la.read_bytes() == lb.read_bytes()


def test_float_format_round_trips(tmp_path):
    out = tmp_path / "lb.csv"
    assert run(["lindblad", "--t", "0.01", "--dt", "1e-3",
                "--gamma-heating", "0.3", "--out", str(out)]) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        for field in line.split(","):
            v = float(field)
            assert "{:.17g}".format(v) == field


@pytest.mark.parametrize("command, flags, usage_error", [
    ("xy", ["--n", "8", "--j", "2", "--gamma", "0.3", "--lam", "0.7"], ["--n", "six"]),
    ("trunc", ["--t", "0.5,2", "--chi", "1", "--eps", "1e-2", "--modes", "2"],
     ["--modes", "two"]),
])
def test_repeated_runs_in_one_process_share_no_state(command, flags, usage_error, capsys):
    cli.build_parser.cache_clear()  # the default run below is the first on a new parser
    assert run([command]) == 0
    first = capsys.readouterr().out
    for argv, code in [(flags, 0), (usage_error, 2), (["--selftest"], 0)]:
        assert run([command, *argv]) == code
        assert capsys.readouterr().out != first
        assert run([command]) == 0
        assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


# Runs each argv list of argv[1] through cli.run in this one process, under a
# 3 GiB address-space limit and a per-case 2 s timer, and prints
# [exit code or "raised"/"timeout", captured stderr] per case as JSON.
BOUNDARY_CHILD = r"""
import contextlib, io, json, resource, signal, sys, traceback
from bosonsim.cli import run


class Expired(BaseException):  # not an Exception, so cli.run cannot swallow it
    pass


def expire(signum, frame):
    raise Expired


hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
signal.signal(signal.SIGALRM, expire)
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        with contextlib.redirect_stderr(err):
            code = run(argv)
    except Expired:
        code = "timeout"
    except Exception:
        code = "raised"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def test_out_of_range_calls_exit_2_in_one_bounded_child(sb_path, tmp_path):
    cases = [
        ["evolve", "--model", sb_path, "--t", "1e308"],  # NaN error norm
        ["pds", "--max-k", str(2**40)],
        ["pds", "--max-k", "1000000"],
        ["xy", "--n", str(2**40)],
        ["xy", "--n", "10000000"],  # 0.3 GiB of arrays, 5 GiB with its rows and text
        ["lindblad", "--dt", "5e-324"],
        ["lindblad", "--t", "1e300", "--dt", "1"],
    ]
    outs = [tmp_path / f"out{i}" for i in range(len(cases))]
    argvs = [[*argv, "--out", str(out)] for argv, out in zip(cases, outs)]
    env = dict(os.environ, PYTHONPATH=str(Path(bosonsim.__file__).resolve().parents[1]))
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", BOUNDARY_CHILD, json.dumps(argvs)],
                           env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert child.returncode == 0, child.stderr
    wrong = [(argv[0:3], code, err[-300:])
             for argv, out, (code, err) in zip(cases, outs, json.loads(child.stdout))
             if (code, "Traceback" in err, out.exists()) != (2, False, False)]
    assert not wrong
    assert elapsed < 5.0


@pytest.fixture
def guard_counts(monkeypatch):
    """Bytes each cli.require_capacity call counted, in call order."""
    counts = []

    def counting(shape, itemsize, what):
        counts.append(itemsize * math.prod(shape))
        right(shape, itemsize, what)

    right = cli.require_capacity
    monkeypatch.setattr(cli, "require_capacity", counting)
    return counts


def _traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["xy", "--n", "4096"],
    ["lindblad", "--t", "2", "--dt", "1e-3"],
], ids=["xy", "lindblad"])
def test_row_table_guards_count_the_command_peak(argv, guard_counts, tmp_path):
    out = str(tmp_path / "out.csv")
    assert run([*argv, "--out", out]) == 0  # imports and caches outside the trace
    guard_counts.clear()
    peak = _traced_peak(lambda: run([*argv, "--out", out]))
    assert guard_counts and peak <= sum(guard_counts)


def test_pds_guard_counts_the_peak_of_its_moment_and_hankel_work(guard_counts, tmp_path):
    K = 64
    assert run(["pds", "--max-k", str(K), "--g", "0.5", "--out", str(tmp_path / "p.csv")]) == 0
    model = models.build_holstein(models.HolsteinParams(n_sites=3, v=1.0, omega=1.0, g=0.5,
                                                        Nb=1, boundary="periodic"))
    H = model.pauli.to_matrix()
    phi = ground_state.holstein_trial_state(model.layout)

    def k_loop():  # what cmd_pds does per g once H is built
        mom = ground_state.moments(H, phi, 2 * K - 1)
        for k in range(1, K + 1):
            ground_state.pds(mom, k, allow_degenerate=True)

    assert guard_counts and _traced_peak(k_loop) <= sum(guard_counts)
