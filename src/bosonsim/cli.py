"""Command-line surface: deterministic data emission for every module.

Exit codes: 0 success, 1 a --selftest check failed, 2 validation/usage
error, 3 convergence failure, 4 I/O error.  CSV output is a header row
and comma-joined rows whose fields never need quoting; floats are printed
with 17 significant digits so they round-trip exactly.  JSON output uses
sorted keys; a NaN or infinite value in it is a validation error.  Every
subcommand accepts ``--selftest``: each module check reports its defect
against the module's own oracle, and a defect above the check's bound (or
NaN) exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import dynamics, models
from .encodings import FockSpace, occupation_sector
from .errors import BosonSimError, ConvergenceError, ParameterError
from .pauli import PauliSum, require_capacity

_FLOAT = "%.17g"


def emit_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join([_FLOAT % v if isinstance(v, float) else str(v) for v in row])
              for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _json_value(x):
    """The JSON form of a complex number or numpy value, which json cannot write."""
    if isinstance(x, complex):  # numpy complex scalars included
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def emit_json(path, data):
    _write(path, json.dumps(data, default=_json_value, sort_keys=True, indent=2,
                            allow_nan=False) + "\n")


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _finite(text):
    """float(text), or ParameterError if it is NaN or infinite."""
    x = float(text)
    if not math.isfinite(x):
        raise ParameterError(f"{text!r} is not a finite number")
    return x


def _load_model(path):
    with open(path) as fh:
        try:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as exc:
            raise BosonSimError(
                f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    if not isinstance(cfg, dict):
        raise BosonSimError("model spec must be a JSON object")
    known = {
        "bose_hubbard": (models.BoseHubbardParams, models.build_bose_hubbard),
        "spin_boson": (models.SpinBosonParams, models.build_spin_boson),
        "holstein": (models.HolsteinParams, models.build_holstein),
    }
    kind = cfg.pop("model", None)
    if not isinstance(kind, str) or kind not in known:
        raise BosonSimError(f"unknown model {kind!r}; expected one of "
                            f"{sorted(known)}")
    cls, builder = known[kind]
    fields = {f.name for f in cls.__dataclass_fields__.values()}
    unknown = set(cfg) - fields
    if unknown:
        raise BosonSimError(f"unknown keys in model spec: {sorted(unknown)}")
    for key, val in cfg.items():
        if isinstance(val, list):
            cfg[key] = tuple(val)
    try:
        return builder(cls(**cfg))
    except (KeyError, TypeError) as exc:
        raise BosonSimError(f"invalid {kind} model spec: {exc}") from exc


def _parse_range(text):
    """'1..10' → ten integer-spaced floats; '0.5' → [0.5]; 'a,b,c' → list."""
    if ".." in text:
        lo, hi = text.split("..")
        lo, hi = _finite(lo), _finite(hi)
        span = hi - lo
        if not 0 <= span < math.inf or abs(span - round(span)) > 1e-9:
            raise ParameterError(f"range {text!r} must ascend in whole steps")
        return [lo + i for i in range(round(span) + 1)]
    if "," in text:
        return [_finite(v) for v in text.split(",")]
    return [_finite(text)]


def _index(i, size, flag):
    """`i` if it indexes an axis of length `size`, else ParameterError."""
    if not 0 <= i < size:
        raise ParameterError(f"{flag} {i} is outside 0..{size - 1}")
    return i


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compile(args):
    model = _load_model(args.model)
    gl = _first_order_circuit(model, args.dt) if args.circuits else None
    _write(args.out, model.pauli.to_text())
    if gl is not None:
        _write(args.circuits, gl.to_qasm())
    return 0


def _first_order_circuit(model, dt):
    """One step of e^{−iH dt} as the product of each term's e^{−i c P dt}."""
    gates, terms = [], model.pauli.terms
    for term, c in zip(terms, dynamics.hermitian_coefficients(terms)):
        if set(term.letters) != {"I"}:  # an identity string is only a global phase
            gates += dynamics.synthesize_pauli_exponential(term.letters, 2.0 * c * dt).gates
    return dynamics.GateList(model.layout.total_qubits, tuple(gates))


def cmd_evolve(args):
    model = _load_model(args.model)
    H = model.pauli.to_sparse()
    dim = H.shape[0]
    psi0 = np.zeros(dim, dtype=complex)
    psi0[_index(args.initial_basis_state, dim, "--initial-basis-state")] = 1.0
    exact = dynamics.evolve_exact(H, psi0, args.t)
    approx = dynamics.trotter_evolve(model.pauli.terms, psi0, args.t, args.steps, args.order)
    emit_json(args.out, {
        "t": args.t,
        "steps": args.steps,
        "order": args.order,
        "error_2norm": float(np.linalg.norm(exact - approx)),
        "fidelity": float(abs(np.vdot(exact, approx)) ** 2),
    })
    return 0


def cmd_walk(args):
    params = models.BoseHubbardParams(
        n_sites=args.sites, t=args.hop, U=args.U, V=args.V,
        mu=0.0, Nb=2)
    # two bosons on the central site; b_q b_p reaches the sectors below.  The
    # command holds H, its eigenvectors, their adjoint and one annihilator per site.
    dim = math.comb(args.sites + 2, 2)
    require_capacity((args.sites + 3, dim, dim), 8, f"walk on {args.sites} sites")
    space = FockSpace(occupation_sector(args.sites, 2, bounded=True))
    occ = [0] * args.sites
    occ[args.sites // 2] = 2
    psi = dynamics.evolve_exact(models.bose_hubbard_fock(space, params),
                                space.state(occ), args.t)
    ann = [space.excitation_matrix((), (i,)) for i in range(args.sites)]
    gamma, _ = models.walk_observables(psi, ann)
    rows = [(p, q, gamma[p, q]) for p in range(args.sites)
            for q in range(args.sites)]
    emit_csv(args.out, ["p", "q", "Gamma"], rows)
    return 0


def cmd_lindblad(args):
    from . import open_systems
    if args.cutoff < 0:
        raise ParameterError(f"--cutoff {args.cutoff} must be >= 0")
    steps = args.t / args.dt if args.dt > 0 else 0.0  # propagate_lindblad refuses dt <= 0
    if not math.isfinite(steps):
        raise ParameterError(f"--t {args.t!r} over --dt {args.dt!r} is not a finite step count")
    d = args.cutoff + 1
    require_capacity((d * d, d * d), 16, "Liouvillian")
    # a row per step and one for a remainder step, then the CSV text: about 75 B an entry
    require_capacity((max(0, math.ceil(steps)) + 1, 4), 80, "lindblad row table")
    # propagate_lindblad's block of states and record's C-order copy of it
    require_capacity((2, open_systems.STATE_BLOCK, d * d), 16, "lindblad state block")
    b, bd, n = models.mode_matrices(args.cutoff)
    H = args.omega * n
    spec = open_systems.LindbladSpec(H, args.gamma_dephasing,
                                     args.gamma_heating, b, n)
    L = open_systems.build_liouvillian(spec)
    rho0 = np.zeros((d, d), dtype=complex)
    level = _index(args.initial_level, d, "--initial-level")
    rho0[level, level] = 1.0
    n_c = n.astype(complex)  # what np.vdot would convert n to on every call
    rows = []

    def record(taus, rhos):  # O(d²) per step: n and rho are Hermitian
        cells = np.ascontiguousarray(rhos)  # np.vdot reads each rho in C order
        table = np.empty((len(taus), 4))
        table[:, 0] = taus
        table[:, 1] = [np.vdot(n_c, rho).real for rho in cells]
        table[:, 2] = rhos.diagonal(0, 1, 2).sum(axis=1).real  # np.trace's pairwise sum
        table[:, 3] = [np.vdot(rho, rho).real for rho in cells]
        rows.extend(map(tuple, table.tolist()))  # tuples, the smaller rows

    open_systems.propagate_lindblad(L, rho0, args.t, dt=args.dt, record=record)
    emit_csv(args.out, ["t[1/omega]", "mean_n", "trace", "purity"], rows)
    return 0


def cmd_pds(args):
    from . import ground_state
    if args.max_k < 1:
        raise ParameterError(f"--max-k {args.max_k} must be >= 1")
    # per K the K×K Hankel matrix, its cond/lstsq copies and the companion matrix,
    # after the 2K moments: traced at about 20 B an entry for K = 64
    require_capacity((args.max_k, args.max_k), 32, "pds Hankel work")
    gs = _parse_range(args.g)
    rows = []
    for g in gs:
        params = models.HolsteinParams(n_sites=3, v=args.hop, omega=args.omega,
                                       g=g, Nb=1, boundary="periodic")
        model = models.build_holstein(params)
        H = model.pauli.to_matrix()
        w, _ = ground_state.exact_diagonalize(H)
        phi = ground_state.holstein_trial_state(model.layout)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, by order
            mom = ground_state.moments(H, phi, 2 * args.max_k - 1)
        overflow = np.flatnonzero(~np.isfinite(mom))
        if overflow.size:
            raise ParameterError(
                f"--max-k {args.max_k} needs moments up to order {2 * args.max_k - 1}, "
                f"but the moment of order {overflow[0]} is not finite at g={g!r}")
        row = [g, float(w[0])]
        for K in range(1, args.max_k + 1):
            res = ground_state.pds(mom, K, allow_degenerate=True)
            row.append(res.lowest_root)
        rows.append(row)
    header = ["g", "E_ED"] + [f"E_PDS{K}" for K in range(1, args.max_k + 1)]
    emit_csv(args.out, header, rows)
    return 0


def cmd_downfold(args):
    from . import downfolding
    sp = downfolding.BosonFockSpace(3, 2)
    H = downfolding.bose_hubbard_fixed_n(
        sp, t=args.hop, U=args.U, V=args.V, mu=tuple(_parse_range(args.mu)))
    result = downfolding.nested_optimize(H, sp)
    w = np.linalg.eigvalsh(H)
    emit_json(args.out, {
        "energy": result["energy"],
        "exact_energy": float(w[0]),
        "H_eff_row_major": list(np.asarray(result["H_eff"]).reshape(-1)),
        "params": {
            "r1": result["params"].r1, "r2": result["params"].r2,
            "s1": result["params"].s1, "s2": result["params"].s2,
            "s3": result["params"].s3,
        },
        "iterations": [
            {"iteration": it, "abs_energy_error": err}
            for it, err in result["trace"]
        ],
    })
    if args.csv:
        emit_csv(args.csv, ["iteration", "abs_energy_error"], result["trace"])
    return 0


def cmd_trunc(args):
    from . import trunc_bounds
    rows = []
    for t in _parse_range(args.t):
        inp = trunc_bounds.TruncationInput(
            lambda0=args.lambda0, chi=args.chi, t=t, eps=args.eps,
            n_modes=args.modes)
        lam, plan = trunc_bounds.hamiltonian_cutoff(inp)
        rows.append((t, args.eps, args.modes, plan.delta_lambda,
                     plan.steps, lam))
    emit_csv(args.out, ["t[1/omega]", "eps", "N", "dLambda", "s", "Lambda~"],
             rows)
    return 0


def cmd_blockenc(args):
    from . import block_encoding
    enc = block_encoding.boson_block_encode(args.cutoff, args.xi)
    emit_json(args.out, {
        "Lambda": enc.capital_lambda,
        "Xi": enc.capital_xi,
        "measured_error": enc.measured_error,
        "error_bound": enc.error_bound,
        "gate_cost_bitops": enc.gate_cost(),
    })
    return 0


def cmd_prep(args):
    from . import state_prep
    c = np.array([complex(v) for v in args.c.split(",")])
    if not 0 < np.linalg.norm(c) < math.inf:
        raise ParameterError("--c must be finite and not all zero")
    c = c / np.linalg.norm(c)
    plan = state_prep.plan_prep(c, args.scheme)
    sim = state_prep.simulate_prep(plan, np.eye(len(c)))
    emit_json(args.out, {
        "scheme": plan.scheme,
        "coefficients": [complex(v) for v in c],
        "x": list(map(float, plan.x)),
        "y": [complex(v) for v in plan.y],
        "p_success": plan.p_success,
        "amplification_steps": plan.amplification_steps,
        "simulated_probability": sim["probability"],
        "fidelity": sim["fidelity"],
    })
    return 0


def cmd_wegner(args):
    from . import flows
    # A, H0, the flow's state and derivative and DOP853's 12 stages
    require_capacity((16, args.dim, args.dim), 8, "Wegner flow")
    rng = np.random.default_rng(args.seed)
    A = rng.normal(size=(args.dim, args.dim))
    H0 = (A + A.T) / 2.0
    # the flow is adaptive: ds only spaces the CSV rows, 10·ds = 1/‖H0‖_F² apart
    ds = 0.1 / max(float(np.linalg.norm(H0)) ** 2, 1e-12)
    traj = flows.wegner_flow(H0, ds=ds, s_max=args.s_max)
    rows = []
    for st in traj:
        rows.append([st.s, st.off_diagonal_norm]
                    + [float(np.real(v)) for v in np.diag(st.H)])
    header = ["s", "offdiag_norm"] + [f"d{i}" for i in range(args.dim)]
    emit_csv(args.out, header, rows)
    return 0


def cmd_xy(args):
    from . import flows
    # four n-point arrays, their rows as numpy scalars and the CSV text: about 125 B an entry
    require_capacity((args.n, 4), 128, "xy row table")
    spec = flows.xy_spectrum(args.n, args.j, args.gamma, args.lam)
    rows = list(zip(spec["k"], spec["eps_k"], spec["delta_k"], spec["E_k"]))
    emit_csv(args.out, ["k[1/a]", "eps_k", "delta_k", "E_k[J]"], rows)
    return 0


# ---------------------------------------------------------------------------
# self-tests: each returns (defect, bound) against its module's own oracle
# ---------------------------------------------------------------------------


def _selftest(module_names):
    failures = []
    for name in module_names:
        try:
            defect, bound = _SELFTESTS[name]()
            if not defect <= bound:  # a NaN defect fails too
                failures.append(f"{name}: defect {defect:.3g} exceeds {bound:g}")
        except Exception as exc:  # report, keep going
            failures.append(f"{name}: {exc}")
    for line in failures:
        print("selftest FAILED:", line, file=sys.stderr)
    return 1 if failures else 0


def _max_abs(a, b):
    return float(np.max(np.abs(a - b)))


def _st_pauli():
    H = PauliSum({"XYZ": 0.25 - 0.5j, "ZIX": 1 / 3, "YYI": -0.7}, 3)
    return _max_abs(PauliSum.from_text(H.to_text()).to_matrix(), H.to_matrix()), 1e-12


def _st_identification(encoding):
    params = models.SpinBosonParams(delta=1.0, epsilon=0.5, omegas=(1.0,),
                                    couplings=(0.2,), cutoffs=(3,))
    return models.build_spin_boson(params, encoding).identification_defect(), 1e-10


def _st_dynamics():
    U = dynamics.synthesize_pauli_exponential("XY", 0.37).unitary()
    P = PauliSum.from_term("XY").to_matrix()
    return _max_abs(U, dynamics.expm_hermitian(P, -0.5j * 0.37)), 1e-12


def _st_open_systems():
    from . import open_systems as osys
    b, _, n = models.mode_matrices(3)
    spec = osys.LindbladSpec(n, 0.05, 0.02, b, n)
    rho = np.full((4, 4), 0.25, dtype=complex)  # off-diagonal, so [H, ρ] ≠ 0
    L = osys.build_liouvillian(spec)
    rhs = _max_abs(L @ osys.vectorize(rho), osys.vectorize(osys.lindblad_rhs(spec, rho)))
    trace = abs(np.trace(osys.propagate_lindblad(L, rho, 0.5, dt=1e-3)) - 1.0)
    return float(np.max([rhs, trace])), 1e-10


def _st_ground_state():
    from . import ground_state
    mom = ground_state.moments(np.diag([0.0, 1.0, 3.0]), np.array([0.8, 0.6, 0.0]), 3)
    return abs(ground_state.pds(mom, 2).lowest_root), 1e-8


def _st_downfolding():
    from . import downfolding
    sp = downfolding.BosonFockSpace(3, 2)
    H = downfolding.bose_hubbard_fixed_n(sp, 1.0, 0.5, 1.0, (-1.0, 0.0, 1.0))
    energy = downfolding.nested_optimize(H, sp)["energy"]
    return abs(energy - float(np.linalg.eigvalsh(H)[0])), 1e-6


def _st_trunc_bounds():
    from . import trunc_bounds
    inp = trunc_bounds.TruncationInput(lambda0=1, chi=2.0, t=1.0, eps=1e-2)
    _, plan = trunc_bounds.hamiltonian_cutoff(inp)
    recheck = plan.recompute_total_bound_log()
    defects = [abs(recheck[k] - slot["total_log_bound"]) for k, slot in plan.budget.items()]
    return float(np.max(defects + [abs(sum(plan.durations) - inp.t)])), 1e-12


def _st_block_encoding():
    from . import block_encoding
    enc = block_encoding.boson_block_encode(8, 256)
    return enc.measured_error, enc.error_bound + 1e-15


def _st_state_prep():
    from . import state_prep
    plan = state_prep.plan_prep(np.sqrt([1 / 3.0, 2 / 3.0]), "B")
    sim = state_prep.simulate_prep(plan, np.eye(2))
    return float(np.max([1.0 - sim["fidelity"],
                         abs(sim["probability"] - plan.p_success)])), 1e-10


def _st_flows():
    from . import flows
    sp = flows.xy_spectrum(6, 1.0, 0.5, 1.0)
    return _max_abs(np.sort(sp["E_k"]), flows.xy_bdg_spectrum(6, 1.0, 0.5, 1.0)), 1e-10


_SELFTESTS = {
    "pauli": _st_pauli,
    "encodings": lambda: _st_identification("unary"),
    "models": lambda: _st_identification("binary"),
    "dynamics": _st_dynamics,
    "open_systems": _st_open_systems,
    "ground_state": _st_ground_state,
    "downfolding": _st_downfolding,
    "trunc_bounds": _st_trunc_bounds,
    "block_encoding": _st_block_encoding,
    "state_prep": _st_state_prep,
    "flows": _st_flows,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The parser, built on first use and shared: parsing never changes it."""
    p = argparse.ArgumentParser(
        prog="bosonsim",
        description="Bosonic simulation workbench: encodings, dynamics, "
                    "bounds, and downfolding.")
    sub = p.add_subparsers(dest="command")

    def add(name, fn, help_, *checks):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn, checks=checks)
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        sp.add_argument("--selftest", action="store_true",
                        help="check the modules against their oracles and exit")
        return sp

    sp = add("compile", cmd_compile, "compile a model to a Pauli-sum text file",
             "pauli", "encodings", "models")
    sp.add_argument("--model", help="model JSON path")
    sp.add_argument("--circuits", help="also write a first-order step as QASM")
    sp.add_argument("--dt", type=_finite, default=0.1)

    sp = add("evolve", cmd_evolve, "Trotter vs exact evolution report", "dynamics")
    sp.add_argument("--model", help="model JSON path")
    sp.add_argument("--t", type=_finite, default=1.0)
    sp.add_argument("--steps", type=int, default=64)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--initial-basis-state", type=int, default=0)

    sp = add("walk", cmd_walk, "two-boson walk pair correlations", "models")
    sp.add_argument("--sites", type=int, default=5)
    sp.add_argument("--hop", type=_finite, default=1.0)
    sp.add_argument("--U", type=_finite, default=1.0)
    sp.add_argument("--V", type=_finite, default=0.0)
    sp.add_argument("--t", type=_finite, default=1.0)

    sp = add("lindblad", cmd_lindblad, "single-mode open-system time series", "open_systems")
    sp.add_argument("--cutoff", type=int, default=3)
    sp.add_argument("--omega", type=_finite, default=1.0)
    sp.add_argument("--gamma-dephasing", type=_finite, default=0.0)
    sp.add_argument("--gamma-heating", type=_finite, default=0.0)
    sp.add_argument("--t", type=_finite, default=1.0)
    sp.add_argument("--dt", type=_finite, default=1e-3)
    sp.add_argument("--initial-level", type=int, default=1)

    sp = add("pds", cmd_pds, "moment-method sweep on the 3-site Holstein model",
             "ground_state")
    sp.add_argument("--g", default="0,0.5,1.0,1.5,2.0")
    sp.add_argument("--hop", type=_finite, default=1.0)
    sp.add_argument("--omega", type=_finite, default=1.0)
    sp.add_argument("--max-k", type=int, default=5)

    sp = add("downfold", cmd_downfold, "nested ansatz optimization report", "downfolding")
    sp.add_argument("--hop", type=_finite, default=1.0)
    sp.add_argument("--U", type=_finite, default=0.5)
    sp.add_argument("--V", type=_finite, default=1.0)
    sp.add_argument("--mu", default="-1,0,1")
    sp.add_argument("--csv", help="also write per-iteration error CSV")

    sp = add("trunc", cmd_trunc, "truncation-cutoff calculator sweep", "trunc_bounds")
    sp.add_argument("--lambda0", type=int, default=1)
    # --chi and --eps stay plain floats: TruncationInput rejects non-finite values
    sp.add_argument("--chi", type=float, default=2.0)
    sp.add_argument("--t", default="1..10")
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--modes", type=int, default=1)

    sp = add("blockenc", cmd_blockenc, "creation-operator block encoding report",
             "block_encoding")
    sp.add_argument("--cutoff", type=int, default=8, help="Λ (power of 2)")
    sp.add_argument("--xi", type=int, default=256, help="Ξ (power of 2)")

    sp = add("prep", cmd_prep, "state-preparation plan and simulation", "state_prep")
    sp.add_argument("--c", default="0.5773502691896258,0.816496580927726")
    sp.add_argument("--scheme", choices=("A", "B"), default="A")

    sp = add("wegner", cmd_wegner, "diagonalizing flow trajectory", "flows")
    sp.add_argument("--seed", type=int, default=0, help="seed of the random start matrix")
    sp.add_argument("--dim", type=int, default=6)
    sp.add_argument("--s-max", type=_finite, default=500.0)

    sp = add("xy", cmd_xy, "XY-chain single-particle spectrum", "flows")
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--j", type=_finite, default=1.0)
    sp.add_argument("--gamma", type=_finite, default=0.5)
    sp.add_argument("--lam", type=_finite, default=1.0)

    return p


def run(argv) -> int:
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if not hasattr(args, "fn"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.selftest:
            return _selftest(args.checks)
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BosonSimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
