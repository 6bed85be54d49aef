"""Spans and counters recorded from outside bosonsim.

The tracer replaces public functions of the bosonsim modules that the
CLI and the oracle tasks call with wrappers that record a span (name,
start, end, parent, task) and add counts computed from the call's
arguments and return value.  Spans stay in memory until the run writes
them out.  A layer's self time is its span durations minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_write(args, kwargs, result):
    return {"cli.emit.bytes": len(_arg(args, kwargs, 1, "text"))}


def _count_to_text(args, kwargs, result):
    return {"pauli.terms": len(args[0]), "pauli.qubits_max": ("max", args[0].qubit_count)}


def _count_build(args, kwargs, result):
    return {"models.build.calls": 1, "models.fock_dim": result.fock.shape[0]}


def _count_trotter(args, kwargs, result):
    terms = _arg(args, kwargs, 0, "terms")
    n = _arg(args, kwargs, 3, "n")
    order = _arg(args, kwargs, 4, "order", 1)
    return {"dynamics.trotter_matvecs": n * len(terms) * order}


def _count_rk4(args, kwargs, result):
    t = _arg(args, kwargs, 2, "t")
    dt = _arg(args, kwargs, 3, "dt", 1e-3)
    steps = int(round(t / dt))
    return {"open_systems.rk4_steps": steps + (abs(t - steps * dt) > 1e-15)}


def _count_pds(args, kwargs, result):
    limit = _arg(args, kwargs, 2, "cond_limit", 1e12)
    degenerate = not math.isfinite(result.condition) or result.condition > limit
    return {"ground_state.pds.degenerate": int(degenerate)}


def _count_wegner(args, kwargs, result):
    ds = _arg(args, kwargs, 1, "ds")
    return {"flows.wegner_steps": int(round(result[-1].s / ds)),
            "flows.wegner_samples": len(result)}


def _count_nested(args, kwargs, result):
    return {"downfolding.macro_iters": len(result["trace"])}


def _count_cutoff(args, kwargs, result):
    budget = result[1].budget
    return {"trunc_bounds.scan_candidates":
            sum(slot["delta_lambda"] - 59 for slot in budget.values())}


def _calls(name):
    return lambda args, kwargs, result: {name: 1}


def _count_qasm(args, kwargs, result):
    return {"dynamics.qasm_gates": len(args[0].gates)}


# (module, attribute path, span name, counter)
WRAPS = [
    ("bosonsim.cli", "run", "cli.run", None),
    ("bosonsim.cli", "emit_csv", "cli.emit", None),
    ("bosonsim.cli", "emit_json", "cli.emit", None),
    ("bosonsim.cli", "_write", "cli.emit", _count_write),
    ("bosonsim.pauli", "PauliSum.to_text", "pauli.to_text", _count_to_text),
    ("bosonsim.pauli", "PauliSum.to_matrix", "pauli.to_matrix", _calls("pauli.to_matrix.calls")),
    ("bosonsim.pauli", "PauliTerm.to_matrix", "pauli.term_to_matrix",
     _calls("pauli.term_to_matrix.calls")),
    ("bosonsim.models", "build_bose_hubbard", "models.build", _count_build),
    ("bosonsim.models", "build_spin_boson", "models.build", _count_build),
    ("bosonsim.models", "build_holstein", "models.build", _count_build),
    ("bosonsim.models", "walk_observables", "models.walk_observables", None),
    ("bosonsim.models", "embed_fock", "models.embed_fock", None),
    ("bosonsim.dynamics", "synthesize_pauli_exponential", "dynamics.synthesize",
     _calls("dynamics.synthesize.calls")),
    ("bosonsim.dynamics", "GateList.to_qasm", "dynamics.to_qasm", _count_qasm),
    ("bosonsim.dynamics", "evolve_exact", "dynamics.evolve_exact", None),
    ("bosonsim.dynamics", "trotter_evolve", "dynamics.trotter_evolve", _count_trotter),
    ("bosonsim.open_systems", "build_liouvillian", "open_systems.build_liouvillian", None),
    ("bosonsim.open_systems", "propagate_lindblad", "open_systems.propagate_lindblad",
     _count_rk4),
    ("bosonsim.ground_state", "exact_diagonalize", "ground_state.exact_diagonalize", None),
    ("bosonsim.ground_state", "moments", "ground_state.moments", None),
    ("bosonsim.ground_state", "pds", "ground_state.pds", _count_pds),
    ("bosonsim.flows", "wegner_flow", "flows.wegner_flow", _count_wegner),
    ("bosonsim.flows", "xy_spectrum", "flows.xy", None),
    ("bosonsim.downfolding", "nested_optimize", "downfolding.nested_optimize", _count_nested),
    ("bosonsim.downfolding", "solve_cc_amplitudes", "downfolding.solve_cc", None),
    ("bosonsim.downfolding", "bose_hubbard_fixed_n", "downfolding.bose_hubbard_fixed_n", None),
    ("bosonsim.trunc_bounds", "hamiltonian_cutoff", "trunc_bounds.hamiltonian_cutoff",
     _count_cutoff),
    ("bosonsim.trunc_bounds", "truncation_defect", "trunc_bounds.truncation_defect",
     _calls("trunc_bounds.truncation_defect.calls")),
    ("bosonsim.trunc_bounds", "leakage_oracle", "trunc_bounds.leakage_oracle", None),
    ("bosonsim.block_encoding", "boson_block_encode", "block_encoding.boson_block_encode", None),
    ("bosonsim.state_prep", "plan_prep", "state_prep.plan_prep", None),
    ("bosonsim.state_prep", "simulate_prep", "state_prep.simulate_prep", None),
]

LAYERS = ["cli", "pauli", "models", "dynamics", "open_systems", "ground_state", "flows",
          "downfolding", "trunc_bounds", "block_encoding", "state_prep"]

SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS})

COUNT_NAMES = ["cli.emit.bytes", "pauli.terms", "pauli.qubits_max", "pauli.to_matrix.calls",
               "pauli.term_to_matrix.calls", "models.build.calls", "models.fock_dim",
               "dynamics.synthesize.calls", "dynamics.qasm_gates", "dynamics.trotter_matvecs",
               "open_systems.rk4_steps", "ground_state.pds.degenerate", "flows.wegner_steps",
               "flows.wegner_samples", "downfolding.macro_iters",
               "trunc_bounds.scan_candidates", "trunc_bounds.truncation_defect.calls"]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = [(f"{n}.s", "s") for n in SPAN_NAMES]
    out += [(n, "B" if n.endswith("bytes") else "count") for n in COUNT_NAMES]
    out += [(f"share.{layer}", "ratio") for layer in LAYERS + ["other"]]
    return out + [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, task)
        self.counts = defaultdict(float)
        self.task = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end, self.task)
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    if isinstance(val, tuple):
                        self.counts[key] = max(self.counts[key], val[1])
                    else:
                        self.counts[key] += val
            return result
        return wrapper

    def install(self):
        for module, path, name, counter in WRAPS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """Summed self time per span name."""
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, task in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "task": task}) + "\n")
