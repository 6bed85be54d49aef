"""Oracle checks for benchmark tasks.

Each check runs after its task, outside the timed interval, and uses the
oracle and tolerance that the repository's tests use for the same
quantity.  A check returns an empty string when the output is right and a
reason otherwise; the caller counts a failure, it never aborts the run.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from bosonsim import downfolding, dynamics, flows, models, trunc_bounds
from bosonsim.pauli import PauliSum

from tasks import wegner_h0


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _csv(path: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(_read(path).splitlines()))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def _fail_if(cond: bool, why: str) -> str:
    return why if cond else ""


def _first(*reasons: str) -> str:
    return next((r for r in reasons if r), "")


def _build_model(spec: dict):
    spec = dict(spec)
    kind = spec.pop("model")
    spec = {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}
    if kind == "bose_hubbard":
        return models.build_bose_hubbard(models.BoseHubbardParams(**spec))
    if kind == "holstein":
        return models.build_holstein(models.HolsteinParams(**spec))
    return models.build_spin_boson(models.SpinBosonParams(**spec))


def _synthesis_gate_count(letters: str) -> int:
    """Gates in the CNOT-staircase synthesis of one non-identity string."""
    support = [c for c in letters if c != "I"]
    return (2 * support.count("X") + 4 * support.count("Y")
            + 2 * (len(support) - 1) + 1)


# Full check (text equal to a freshly built model, identification defect)
# up to this width, as the tests do at every dense-testable size.
DENSE_CHECK_QUBITS = 6


def check_compile(task, outcome):
    p = task["params"]
    text, qasm = (_read(f) for f in task["outputs"])
    ps = PauliSum.from_text(text, p["qubits"])
    gl = dynamics.GateList.from_qasm(qasm)
    why = _first(
        _fail_if(ps.to_text() != text, "Pauli text does not round-trip"),
        _fail_if(any(t.coefficient.imag != 0.0 for t in ps.terms),
                 "Pauli text has imaginary coefficients"),
        _fail_if(gl.to_qasm() != qasm, "QASM does not round-trip"),
        _fail_if(gl.n_qubits != p["qubits"], "QASM register width"),
        _fail_if(len(gl.gates) != sum(_synthesis_gate_count(t.letters)
                                      for t in ps.terms if set(t.letters) != {"I"}),
                 "QASM gate count differs from the staircase synthesis"),
    )
    if why or p["qubits"] > DENSE_CHECK_QUBITS:
        return why
    model = _build_model(p["spec"])
    return _first(
        _fail_if(model.pauli != ps, "Pauli text differs from the built model"),
        _fail_if(not model.identification_defect() < 1e-10,
                 "identification defect >= 1e-10"),
    )


def _terms_commute(ps: PauliSum) -> bool:
    """True when every pair of terms commutes (an even number of clashing letters)."""
    letters = [t.letters for t in ps.terms]
    return all(sum(x != "I" and y != "I" and x != y for x, y in zip(a, b)) % 2 == 0
               for i, a in enumerate(letters) for b in letters[i + 1:])


def check_evolve(task, outcome):
    reps = [json.loads(_read(f)) for f in task["outputs"]]
    for rep in reps:
        if not 0.0 <= rep["fidelity"] <= 1.0 + 1e-12:
            return "fidelity outside [0, 1]"
    # The CLI's exact and Trotter paths both start from the Pauli matrices,
    # so the error ratio alone cannot see a wrong to_matrix: hold the model's
    # Pauli form to its Fock oracle, as compile does at smaller widths.
    model = _build_model(task["params"]["spec"])
    if not model.identification_defect() < 1e-10:
        return "identification defect >= 1e-10"
    e1, e2 = reps[0]["error_2norm"], reps[1]["error_2norm"]
    if e1 <= 1e-10:
        return _fail_if(not _terms_commute(model.pauli),
                        "no Trotter error although the terms do not commute")
    expect = 2.0 ** task["params"]["order"]
    # An order-p formula's error falls at least as 1/n^p: doubling the steps
    # divides it by at least 2^p, less the 30 % the CLI test allows on its
    # ratio.  It may fall faster when the state makes the leading term vanish.
    return _fail_if(not e1 >= 0.7 * expect * e2,
                    f"error ratio {e1 / e2 if e2 else math.inf:.4g}, "
                    f"expected >= {0.7 * expect:g}")


def check_pds(task, outcome):
    p = task["params"]
    header, rows = _csv(task["outputs"][0])
    want = ["g", "E_ED"] + [f"E_PDS{K}" for K in range(1, p["max_k"] + 1)]
    if header != want or len(rows) != len(p["g"]):
        return "pds CSV layout"
    for g, row in zip(p["g"], rows):
        model = models.build_holstein(models.HolsteinParams(
            n_sites=3, v=p["hop"], omega=p["omega"], g=g, Nb=1, boundary="periodic"))
        e_ed = float(np.linalg.eigvalsh(model.fock)[0])
        if row[0] != g or abs(row[1] - e_ed) > 1e-9:
            return f"E_ED at g={g} differs from the Fock-oracle ground energy"
        if any(v < row[1] - 1e-9 for v in row[2:]):
            return f"a PDS estimate lies below E_ED at g={g}"
        # more moments must bring the estimate closer (tests/test_ground_state.py),
        # unless it has already converged
        err2, err_k = abs(row[3] - row[1]), abs(row[-1] - row[1])
        if not (err_k < err2 or err_k <= 1e-9):
            return f"E_PDS{p['max_k']} is no closer to E_ED than E_PDS2 at g={g}"
    return ""


def check_lindblad(task, outcome):
    p = task["params"]
    header, rows = _csv(task["outputs"][0])
    steps = int(round(p["t"] / p["dt"]))
    steps += abs(p["t"] - steps * p["dt"]) > 1e-15
    return _first(
        _fail_if(header != ["t[1/omega]", "mean_n", "trace", "purity"], "CSV header"),
        _fail_if(len(rows) != steps, f"{len(rows)} rows, expected {steps}"),
        _fail_if(any(abs(r[2] - 1.0) >= 1e-8 for r in rows), "trace != 1"),
        _fail_if(any(r[3] > 1.0 + 1e-10 for r in rows), "purity > 1"),
        _fail_if(not rows or abs(rows[-1][0] - p["t"]) > 1e-9, "series does not end at t"),
    )


def check_walk(task, outcome):
    n = task["params"]["sites"]
    header, rows = _csv(task["outputs"][0])
    if header != ["p", "q", "Gamma"] or len(rows) != n * n:
        return "walk CSV layout"
    gamma = np.zeros((n, n))
    for p_, q, g in rows:
        gamma[int(p_), int(q)] = g
    return _first(
        _fail_if(not np.allclose(gamma, gamma.T, atol=1e-12), "Gamma not symmetric"),
        _fail_if(abs(gamma.sum() - 2.0) > 1e-10, "sum of Gamma != 2"),
    )


def check_wegner(task, outcome):
    p = task["params"]
    for path, seed in zip(task["outputs"], p["seeds"]):
        header, rows = _csv(path)
        H0 = wegner_h0(p["dim"], seed)
        last = np.array(rows[-1])
        diag = np.sort(last[2:])
        tr_h2_0 = float(np.sum(H0 * H0))
        tr_h2 = float(np.sum(last[2:] ** 2) + last[1] ** 2)
        # 1e-5, not the flow tests' 1e-6 and 1e-8: the CLI steps at
        # ds = 0.1/|H0|_F^2, ten times the library default those tests use,
        # and its RK4 moves the spectrum by up to ~1e-6 on seeded matrices.
        why = _first(
            _fail_if(len(header) != p["dim"] + 2, "wegner CSV layout"),
            _fail_if(np.max(np.abs(diag - np.linalg.eigvalsh(H0))) >= 1e-5,
                     f"final diagonal differs from eigvalsh(H0), seed {seed}"),
            _fail_if(abs(tr_h2 - tr_h2_0) >= 1e-5 * tr_h2_0, f"Tr H^2 not conserved, seed {seed}"),
        )
        if why:
            return why
    return ""


def check_downfold(task, outcome):
    p = task["params"]
    rep = json.loads(_read(task["outputs"][0]))
    header, rows = _csv(task["outputs"][1])
    sp = downfolding.BosonFockSpace(3, 2)
    H = downfolding.bose_hubbard_fixed_n(sp, t=p["hop"], U=p["U"], V=p["V"],
                                         mu=tuple(p["mu"]))
    e0 = float(np.linalg.eigvalsh(H)[0])
    return _first(
        _fail_if(abs(rep["exact_energy"] - e0) > 1e-10, "exact_energy is not min eig"),
        _fail_if(abs(rep["energy"] - e0) > 1e-6, "energy differs from lowest eigenvalue"),
        _fail_if(len(rep["H_eff_row_major"]) != 9, "H_eff is not 3x3"),
        _fail_if(len(rows) != len(rep["iterations"]), "CSV and JSON traces differ"),
    )


def check_trunc(task, outcome):
    p = task["params"]
    header, rows = _csv(task["outputs"][0])
    if header != ["t[1/omega]", "eps", "N", "dLambda", "s", "Lambda~"] \
            or len(rows) != len(p["t"]):
        return "trunc CSV layout"
    for t, row in zip(p["t"], rows):
        lam, plan = trunc_bounds.hamiltonian_cutoff(trunc_bounds.TruncationInput(
            lambda0=p["lambda0"], chi=p["chi"], t=t, eps=p["eps"], n_modes=p["modes"]))
        if row != [t, p["eps"], p["modes"], plan.delta_lambda, plan.steps, lam]:
            return f"row at t={t} differs from the schedule"
        if abs(sum(plan.durations) - t) > 1e-12 * max(1.0, t):
            return f"durations do not sum to t={t}"
        recheck = plan.recompute_total_bound_log()
        if any(abs(recheck[k] - s["total_log_bound"]) > 1e-12 * abs(s["total_log_bound"])
               for k, s in plan.budget.items()):
            return f"budget does not recompute at t={t}"
    return ""


def check_blockenc(task, outcome):
    p = task["params"]
    rep = json.loads(_read(task["outputs"][0]))
    return _first(
        _fail_if((rep["Lambda"], rep["Xi"]) != (p["cutoff"], p["xi"]), "echoed sizes"),
        _fail_if(abs(rep["error_bound"] - 2.0 / p["xi"]) > 1e-15, "error bound != 2/Xi"),
        _fail_if(rep["measured_error"] > rep["error_bound"] + 1e-15,
                 "measured error exceeds the bound"),
    )


def check_prep(task, outcome):
    p = task["params"]
    rep = json.loads(_read(task["outputs"][0]))
    c = np.array(p["c"]) / np.linalg.norm(p["c"])
    expect = 1.0 / len(c) if p["scheme"] == "A" else 1.0 / float(np.sum(np.abs(c))) ** 2
    return _first(
        _fail_if(abs(rep["p_success"] - expect) > 1e-12, "p_success formula"),
        _fail_if(abs(rep["simulated_probability"] - rep["p_success"]) > 1e-10,
                 "simulated probability differs from p_success"),
        _fail_if(rep["fidelity"] < 1 - 1e-10, "fidelity < 1"),
    )


def check_xy(task, outcome):
    p = task["params"]
    header, rows = _csv(task["outputs"][0])
    if header != ["k[1/a]", "eps_k", "delta_k", "E_k[J]"] or len(rows) != p["n"]:
        return "xy CSV layout"
    E = np.sort([r[3] for r in rows])
    bdg = flows.xy_bdg_spectrum(p["n"], p["j"], p["gamma"], p["lam"])
    return _fail_if(np.max(np.abs(E - bdg)) >= 1e-10, "spectrum differs from BdG oracle")


def check_defect_scan(task, outcome):
    """Re-evaluate the defect densely at the empirical cutoff (expm, not Krylov)."""
    from scipy.linalg import expm
    p, r = task["params"], outcome["result"]
    if r["cutoff"] is None:
        return "no cutoff inside the padded space"
    dim = p["dim"]
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    H = np.diag(np.arange(dim, dtype=float)) + p["g"] * (b + b.T)
    keep = np.arange(dim) <= r["cutoff"]
    Ht = np.where(np.outer(keep, keep), H, 0.0)
    cols = np.arange(dim) <= p["lambda0"]
    dense = float(np.linalg.norm(
        (expm(-1j * p["t"] * H) - expm(-1j * p["t"] * Ht))[:, cols], 2))
    return _first(
        _fail_if(abs(dense - r["defect"]) > 1e-8, "defect differs from dense expm"),
        _fail_if(r["defect"] > p["eps"], "defect above eps at the cutoff"),
        _fail_if(r["cutoff"] > p["lambda0"] and not r["defect_below"] > p["eps"],
                 "cutoff is not the smallest meeting eps"),
        _fail_if(r["cutoff"] > r["bound_cutoff"], "empirical cutoff above the bound"),
    )


# The eigh-based propagator resolves entries only to about 1e-15, while the
# short-time bound at dLambda >= 60 is below 1e-18: values under this floor
# are rounding noise, so the comparison is made at the floor.
LEAKAGE_FLOOR = 1e-14


def check_leakage(task, outcome):
    p, r = task["params"], outcome["result"]
    bound = trunc_bounds.short_time_leakage_bound(p["d_lambda"]).value
    return _first(
        _fail_if(r["value"] > max(bound, LEAKAGE_FLOOR), "leakage above the short-time bound"),
        _fail_if(r["sensitivity"] >= max(0.1 * bound, LEAKAGE_FLOOR),
                 "leakage depends on the padding"),
    )


def check_cc(task, outcome):
    """Energy against the spectrum; residual at the solver's own 1e-8.

    With the full excitation basis a converged amplitude set is exact for
    some eigenstate that overlaps the reference, not always the lowest one,
    so the energy must equal an eigenvalue of H.  ``solve_cc_amplitudes``
    ignores its ``tol`` argument: hybr stops at its default xtol, so the
    residual is held to the 1e-8 the function itself accepts.
    """
    p, r = task["params"], outcome["result"]
    sp = downfolding.BosonFockSpace(3, 2)
    H = downfolding.bose_hubbard_fixed_n(sp, t=p["t"], U=p["U"], V=p["V"],
                                         mu=tuple(p["mu"]))
    return _first(
        _fail_if(r["residual"] > 1e-8, "amplitude residual above 1e-8"),
        _fail_if(np.min(np.abs(np.linalg.eigvalsh(H) - r["energy"])) >= 1e-8,
                 "CC energy is not an eigenvalue of H"),
    )


CHECKS = {
    "compile": check_compile, "evolve": check_evolve, "pds": check_pds,
    "lindblad": check_lindblad, "walk": check_walk, "wegner": check_wegner,
    "downfold": check_downfold, "trunc": check_trunc, "blockenc": check_blockenc,
    "prep": check_prep, "xy": check_xy, "defect_scan": check_defect_scan,
    "leakage": check_leakage, "cc": check_cc,
}


def check(task: dict, outcome: dict) -> str:
    """Reason the task failed, or '' when every exit code is 0 and the oracle agrees."""
    codes = outcome.get("codes", [])
    if any(codes):
        return f"exit codes {codes}"
    return CHECKS[task["kind"]](task, outcome)
