"""Seeded task generator and task runner for the bosonsim benchmark.

A workload is a mix of task shapes read from ``workloads.json``.  One
cycle holds every mix entry ``per_cycle`` times in a seeded order; each
task draws fresh coefficients from ``random.Random`` seeded by the
workload name, the run seed and the cycle index, so one seed always
gives byte-identical inputs.  The program receives only argv and the
model JSON files written here.  Oracle tasks call the public functions
that the README's guarantees rest on and return plain results.
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).resolve().parent / "workloads.json"


def load_manifest() -> dict:
    with open(MANIFEST) as fh:
        return json.load(fh)


def _r(x: float) -> float:
    """Round to 6 significant digits, so argv and JSON stay readable."""
    return float(f"{x:.6g}")


def _arg(flag: str, value) -> list[str]:
    """One option; values that start with '-' use the --opt=value form."""
    text = value if isinstance(value, str) else repr(value)
    if text.startswith("-"):
        return [f"{flag}={text}"]
    return [flag, text]


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws, one from each of k equal sub-intervals of [lo, hi], shuffled."""
    width = (hi - lo) / k
    out = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# model JSON generation
# ---------------------------------------------------------------------------


def _model_spec(rng: random.Random, shape: dict) -> dict:
    kind = shape["model"]
    if kind == "bose_hubbard":
        n = shape["n_sites"]
        return {"model": kind, "n_sites": n, "Nb": shape["Nb"],
                "t": _r(rng.uniform(0.3, 1.2)), "U": _r(rng.uniform(0.2, 2.0)),
                "V": _r(rng.uniform(0.0, 0.6)),
                "mu": [_r(rng.uniform(-0.5, 0.5)) for _ in range(n)]}
    if kind == "holstein":
        return {"model": kind, "n_sites": shape["n_sites"], "Nb": 1,
                "v": _r(rng.uniform(0.5, 1.5)), "omega": _r(rng.uniform(0.5, 1.5)),
                "g": _r(rng.uniform(0.1, 1.5)),
                "boundary": "periodic" if shape["n_sites"] > 2 else "open"}
    if kind == "spin_boson":
        cut = list(shape["cutoffs"])
        return {"model": kind, "delta": _r(rng.uniform(0.3, 1.5)),
                "epsilon": _r(rng.uniform(-1.0, 1.0)),
                "omegas": [_r(rng.uniform(0.5, 2.0)) for _ in cut],
                "couplings": [_r(rng.uniform(0.05, 0.6)) for _ in cut],
                "cutoffs": cut}
    raise ValueError(f"unknown model shape {shape!r}")


def model_qubits(spec: dict) -> int:
    """Register width of a model spec under the binary boson encoding."""
    def width(cutoff):
        return max(1, math.ceil(math.log2(cutoff + 1)))
    if spec["model"] == "bose_hubbard":
        return spec["n_sites"] * width(spec["Nb"])
    if spec["model"] == "holstein":
        return spec["n_sites"] * (1 + width(spec["Nb"]))
    return 1 + sum(width(c) for c in spec["cutoffs"])


# ---------------------------------------------------------------------------
# wegner seed selection
# ---------------------------------------------------------------------------

# Predicted RK4 step count ln(1e6)/gap² · ‖H0‖_F² / 0.1 of the CLI's flow
# (ds = 0.1/‖H0‖_F², convergence at 1e-6·‖H0‖_F).  Seeds are accepted only
# inside a mix entry's "steps" band: near-degenerate matrices stall to s_max
# (exit 3).  The prediction is rough (flows drawn inside one band took up to
# 2.5x as many steps as each other), so a band only narrows a flow's cost.


def wegner_h0(dim: int, seed: int) -> np.ndarray:
    """The flow's start matrix, built as ``bosonsim wegner`` builds it."""
    A = np.random.default_rng(seed).normal(size=(dim, dim))
    return (A + A.T) / 2.0


def predicted_wegner_steps(dim: int, seed: int) -> float:
    H0 = wegner_h0(dim, seed)
    gap = float(np.min(np.diff(np.linalg.eigvalsh(H0))))
    return math.log(1e6) / max(gap, 1e-9) ** 2 * float(np.sum(H0 * H0)) / 0.1


def _wegner_seed(rng: random.Random, dim: int, band) -> int:
    lo, hi = band
    while True:
        seed = rng.randrange(1, 2**31)
        if lo <= predicted_wegner_steps(dim, seed) <= hi:
            return seed


# ---------------------------------------------------------------------------
# task construction
# ---------------------------------------------------------------------------


def shape_label(shape: dict) -> str:
    """A mix entry's kind and size, e.g. ``evolve(order=2,model=holstein,n_sites=4)``."""
    size = ",".join(f"{k}={v}" for k, v in shape.items() if k not in ("kind", "per_cycle"))
    return f"{shape['kind']}({size})"


def make_task(rng: random.Random, shape: dict, workdir: Path, tag: str) -> dict:
    """One task: CLI argv lists (run in order) or an oracle call, plus files.

    ``files`` maps a path to the bytes the generator writes before the
    task runs; ``params`` holds what the oracle check needs.
    """
    kind = shape["kind"]
    out = str(workdir / f"{tag}.out")
    task = {"kind": kind, "label": shape_label(shape), "tag": tag, "files": {},
            "calls": [], "outputs": [], "params": {}}
    if kind in ("compile", "evolve"):
        spec = _model_spec(rng, shape)
        mpath = str(workdir / f"{tag}.model.json")
        task["files"][mpath] = json.dumps(spec, sort_keys=True) + "\n"
        task["params"] = {"spec": spec, "qubits": model_qubits(spec)}
        if kind == "compile":
            dt = _r(rng.uniform(0.01, 0.2))
            qasm = str(workdir / f"{tag}.qasm")
            task["calls"].append(["compile", "--model", mpath, "--out", out,
                                  "--circuits", qasm, "--dt", repr(dt)])
            task["outputs"] = [out, qasm]
            task["params"]["dt"] = dt
        else:
            t = _r(rng.uniform(0.3, 1.0))
            steps = rng.choice((16, 24, 32))
            psi = rng.randrange(2 ** model_qubits(spec))
            for k, n in enumerate((steps, 2 * steps)):
                path = f"{out}.{k}"
                task["calls"].append(
                    ["evolve", "--model", mpath, "--t", repr(t), "--steps", str(n),
                     "--order", str(shape["order"]),
                     "--initial-basis-state", str(psi), "--out", path])
                task["outputs"].append(path)
            task["params"].update(order=shape["order"], t=t, steps=steps)
    elif kind == "pds":
        gs = sorted(_r(g) for g in _strata(rng, 0.0, 2.0, shape["n_g"]))
        hop, omega = _r(rng.uniform(0.5, 1.5)), _r(rng.uniform(0.5, 1.5))
        max_k = shape["max_k"]
        task["calls"].append(["pds", "--g", ",".join(repr(g) for g in gs),
                              *_arg("--hop", hop), *_arg("--omega", omega),
                              "--max-k", str(max_k), "--out", out])
        task["params"] = {"g": gs, "hop": hop, "omega": omega, "max_k": max_k}
    elif kind == "lindblad":
        t = 1.0
        gd, gh = _r(rng.uniform(0.0, 0.2)), _r(rng.uniform(0.0, 0.1))
        omega = _r(rng.uniform(0.5, 2.0))
        level = rng.randrange(0, min(shape["cutoff"], 3) + 1)
        task["calls"].append(["lindblad", "--cutoff", str(shape["cutoff"]),
                              "--omega", repr(omega), "--gamma-dephasing", repr(gd),
                              "--gamma-heating", repr(gh), "--t", repr(t),
                              "--initial-level", str(level), "--out", out])
        task["params"] = {"t": t, "dt": 1e-3, "cutoff": shape["cutoff"]}
    elif kind == "walk":
        hop, U = _r(rng.uniform(0.5, 1.5)), _r(rng.uniform(-2.0, 2.0))
        V, t = _r(rng.uniform(0.0, 0.5)), _r(rng.uniform(0.3, 1.5))
        task["calls"].append(["walk", "--sites", str(shape["sites"]),
                              *_arg("--hop", hop), *_arg("--U", U), *_arg("--V", V),
                              *_arg("--t", t), "--out", out])
        task["params"] = {"sites": shape["sites"]}
    elif kind == "wegner":
        # a sweep of "flows" seeds, as a script scanning random matrices runs it
        seeds = [_wegner_seed(rng, shape["dim"], shape["steps"])
                 for _ in range(shape.get("flows", 1))]
        for k, seed in enumerate(seeds):
            task["calls"].append(["wegner", "--dim", str(shape["dim"]),
                                  "--seed", str(seed), "--out", f"{out}.{k}"])
            task["outputs"].append(f"{out}.{k}")
        task["params"] = {"dim": shape["dim"], "seeds": seeds}
    elif kind == "downfold":
        hop, U = _r(rng.uniform(0.6, 1.2)), _r(rng.uniform(0.3, 0.8))
        V = _r(rng.uniform(0.6, 1.2))
        mu = [_r(-1.0 + rng.uniform(-0.2, 0.2)), _r(rng.uniform(-0.2, 0.2)),
              _r(1.0 + rng.uniform(-0.2, 0.2))]
        csv = f"{out}.csv"
        task["calls"].append(["downfold", *_arg("--hop", hop), *_arg("--U", U),
                              *_arg("--V", V), *_arg("--mu", ",".join(map(repr, mu))),
                              "--out", out, "--csv", csv])
        task["outputs"] = [out, csv]
        task["params"] = {"hop": hop, "U": U, "V": V, "mu": mu}
    elif kind == "trunc":
        # The sweep ends at t = 100, whose schedule (600k steps) sets the
        # memory peak.  cli trunc holds one schedule while it builds the next,
        # so the other times are seeded in [1, 25], whose schedules are at most
        # 1/16 of that size: the peak then no longer depends on the seed.
        ts = sorted(_r(t) for t in _strata(rng, 1.0, 25.0, shape["n_t"] - 1)) + [100.0]
        eps = _r(10 ** rng.uniform(-4, -2))
        chi, modes, lam0 = 2.0, rng.randrange(1, 11), rng.randrange(1, 4)
        task["calls"].append(["trunc", "--t", ",".join(repr(t) for t in ts),
                              "--eps", repr(eps), "--chi", repr(chi), "--modes", str(modes),
                              "--lambda0", str(lam0), "--out", out])
        task["params"] = {"t": ts, "eps": eps, "chi": chi, "modes": modes, "lambda0": lam0}
    elif kind == "blockenc":
        task["calls"].append(["blockenc", "--cutoff", str(shape["cutoff"]),
                              "--xi", str(shape["xi"]), "--out", out])
        task["params"] = {"cutoff": shape["cutoff"], "xi": shape["xi"]}
    elif kind == "prep":
        c = [_r(rng.uniform(0.05, 1.0)) * rng.choice((1, -1)) for _ in range(shape["K"])]
        task["calls"].append(["prep", *_arg("--c", ",".join(map(repr, c))),
                              "--scheme", shape["scheme"], "--out", out])
        task["params"] = {"c": c, "scheme": shape["scheme"]}
    elif kind == "xy":
        j, gamma, lam = _r(rng.uniform(0.5, 1.5)), _r(rng.uniform(0.0, 1.0)), _r(rng.uniform(0.0, 2.0))
        task["calls"].append(["xy", "--n", str(shape["n"]), *_arg("--j", j),
                              *_arg("--gamma", gamma), *_arg("--lam", lam), "--out", out])
        task["params"] = {"n": shape["n"], "j": j, "gamma": gamma, "lam": lam}
    elif kind == "defect_scan":
        task["oracle"] = "defect_scan"
        task["params"] = {"g": _r(rng.uniform(0.6, 1.0)), "t": _r(rng.uniform(0.6, 1.0)),
                          "eps": _r(10 ** rng.uniform(-3, -1.5)), "dim": 200, "lambda0": 1}
    elif kind == "leakage":
        task["oracle"] = "leakage"
        task["params"] = {"g": _r(rng.uniform(0.5, 1.2)), "omega": _r(rng.uniform(0.5, 1.5)),
                          "lam": rng.randrange(1, 4), "d_lambda": rng.randrange(60, 71),
                          "pad": rng.randrange(20, 41)}
    elif kind == "cc":
        task["oracle"] = "cc"
        task["params"] = {"t": _r(rng.uniform(0.3, 0.6)), "U": _r(rng.uniform(0.3, 0.7)),
                          "V": _r(rng.uniform(0.1, 0.3)),
                          "mu": [_r(1.0 + rng.uniform(-0.2, 0.2)), _r(rng.uniform(-0.2, 0.2)),
                                 _r(-1.0 + rng.uniform(-0.2, 0.2))]}
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    if not task["outputs"]:
        task["outputs"] = [out] if task["calls"] else []
    return task


def make_cycle(workload: str, seed: int, cycle: int, workdir: Path,
               manifest: dict | None = None) -> list[dict]:
    """All tasks of one cycle, in seeded order; writes no files."""
    manifest = manifest or load_manifest()
    rng = random.Random(f"{workload}/{seed}/{cycle}")
    shapes = [s for s in manifest["workloads"][workload]["mix"]
              for _ in range(s["per_cycle"])]
    rng.shuffle(shapes)
    return [make_task(rng, s, workdir, f"c{cycle}-{i}") for i, s in enumerate(shapes)]


def make_warmup(workload: str, seed: int, workdir: Path,
                manifest: dict | None = None) -> dict:
    manifest = manifest or load_manifest()
    rng = random.Random(f"{workload}/{seed}/warmup")
    return make_task(rng, manifest["workloads"][workload]["warmup"], workdir, "warmup")


def write_inputs(task: dict):
    for path, text in task["files"].items():
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# running a task
# ---------------------------------------------------------------------------


def _oracle_defect_scan(p):
    """Empirical cutoff: smallest Λ̃ whose truncation defect meets ε.

    Padded 200-level oscillator H = n̂ + g(b + b†), whose H_w has χ = 2g;
    the rigorous cutoff Λ̃ for the same (χ, t, ε) comes from
    ``hamiltonian_cutoff``.
    """
    from bosonsim import trunc_bounds
    dim = p["dim"]
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    H = np.diag(np.arange(dim, dtype=float)) + p["g"] * (b + b.T)
    occ = np.arange(dim)
    bound, _ = trunc_bounds.hamiltonian_cutoff(trunc_bounds.TruncationInput(
        lambda0=p["lambda0"], chi=2.0 * p["g"], t=p["t"], eps=p["eps"]))
    prev = None
    for lam in range(p["lambda0"], dim - 1):
        d = trunc_bounds.truncation_defect(H, occ, p["lambda0"], lam, p["t"])
        if d <= p["eps"]:
            return {"cutoff": lam, "defect": d, "defect_below": prev,
                    "bound_cutoff": bound}
        prev = d
    return {"cutoff": None, "defect": prev, "defect_below": prev, "bound_cutoff": bound}


def _oracle_leakage(p):
    from bosonsim import trunc_bounds
    lam_prime = p["lam"] + p["d_lambda"]
    dim = lam_prime + p["pad"] + 1
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    H = p["omega"] * np.diag(np.arange(dim, dtype=float)) + p["g"] * (b + b.T)
    dt = 1.0 / (2.0 * p["g"] * math.sqrt(p["lam"]))
    rep = trunc_bounds.leakage_oracle(H, np.arange(dim), p["lam"], lam_prime, dt)
    return {"value": rep["value"], "sensitivity": rep["sensitivity"]}


def _oracle_cc(p):
    from bosonsim import downfolding
    sp = downfolding.BosonFockSpace(3, 2)
    H = downfolding.bose_hubbard_fixed_n(sp, t=p["t"], U=p["U"], V=p["V"],
                                         mu=tuple(p["mu"]))
    basis = downfolding.excitation_basis(sp)
    amps, energy, res = downfolding.solve_cc_amplitudes(H, sp, basis)
    return {"energy": energy, "residual": res}


ORACLES = {"defect_scan": _oracle_defect_scan, "leakage": _oracle_leakage,
           "cc": _oracle_cc}


def run_task(task: dict, cli_run) -> dict:
    """Run one task; returns {"codes": [...]} or {"result": ...}.

    ``cli_run`` is ``bosonsim.cli.run``, passed in so the tracer's wrapper
    is the one called.  Exceptions propagate to the caller, which counts
    them as failures.
    """
    if "oracle" in task:
        return {"result": ORACLES[task["oracle"]](task["params"])}
    return {"codes": [cli_run(list(argv)) for argv in task["calls"]]}


def clean_outputs(task: dict):
    for path in task["outputs"]:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
