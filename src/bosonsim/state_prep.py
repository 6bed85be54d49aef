"""Ancilla-based superposition preparation and permutation relabeling.

Two post-selected schemes prepare Σ c_k|φ_k⟩ from orthonormal targets:

* scheme A loads c_k directly onto a one-hot ancilla chain and erases
  against the uniform state — success probability 1/K;
* scheme B loads √|c_k| amplitudes, injects the phases of c_k at the
  controlled-target stage, and erases against the same √|c| state —
  success probability 1/(Σ|c_k|)², never worse than scheme A.

The ancilla is modeled as a K-dimensional register with an abstract
post-selection projector (the one-hot qubit wiring and its two flag
ancillas are not reproduced).  Basis relabelings |k⟩ → |φ_{b,k}⟩ are
synthesized as cycles, then transpositions, each costed by the Hamming
distance between its two binary labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class PrepPlan:
    coefficients: np.ndarray
    scheme: str  # "A" or "B"
    x: np.ndarray
    y: np.ndarray
    phases: np.ndarray  # injected at the controlled stage (scheme B)
    p_success: float
    amplification_steps: int


def _rotation_chain(targets: np.ndarray):
    """(x_k, y_k) with x_1···x_{k−1}·y_k = targets_k and |x|²+|y|² = 1."""
    K = len(targets)
    x = np.ones(K)
    y = np.zeros(K, dtype=complex)
    prefix = 1.0
    for k in range(K):
        if prefix < 1e-15:
            if abs(targets[k]) > 1e-12:
                raise DomainError("prefix product vanished with weight left "
                                  "(unreachable for normalized coefficients)")
            y[k] = 0.0
            x[k] = 1.0
            continue
        y[k] = targets[k] / prefix
        mag2 = min(abs(y[k]) ** 2, 1.0)
        x[k] = math.sqrt(1.0 - mag2)
        prefix *= x[k]
    return x, y


def plan_prep(c, scheme: str) -> PrepPlan:
    """Rotation angles, success probability, and amplification count."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or len(c) == 0:
        raise ParameterError("need a non-empty coefficient vector")
    if not abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12:  # NaN fails too
        raise ParameterError("coefficients must satisfy Σ|c_k|² = 1")
    if scheme not in ("A", "B"):
        raise ParameterError("scheme must be 'A' or 'B'")
    K = len(c)
    one_norm = float(np.sum(np.abs(c)))
    if scheme == "A":
        x, y = _rotation_chain(c)
        phases = np.zeros(K)
        p = 1.0 / K
        steps = math.ceil(math.sqrt(K))
    else:
        x, y = _rotation_chain(np.sqrt(np.abs(c)) / math.sqrt(one_norm))
        phases = np.angle(c)
        p = 1.0 / one_norm ** 2
        steps = math.ceil(one_norm)
    return PrepPlan(c, scheme, x, np.asarray(y), phases, p, steps)


def ancilla_state(plan: PrepPlan) -> np.ndarray:
    """One-hot register amplitudes produced by the rotation chain."""
    K = len(plan.coefficients)
    amps = np.empty(K, dtype=complex)
    prefix = 1.0
    for k in range(K):
        amps[k] = prefix * plan.y[k]
        prefix *= plan.x[k]
    return amps


def simulate_prep(plan: PrepPlan, basis_targets) -> dict:
    """Statevector run of prepare → controlled-target → erase → post-select."""
    phis = [np.asarray(v, dtype=complex) for v in basis_targets]
    K = len(plan.coefficients)
    if len(phis) != K:
        raise ParameterError("need one target state per coefficient")
    P = np.array(phis)
    if np.max(np.abs(P.conj() @ P.T - np.eye(K))) > 1e-10:  # the Gram matrix
        raise DomainError("target states must be orthonormal")

    amps = ancilla_state(plan)
    if plan.scheme == "B":
        amps = amps * np.exp(1j * plan.phases)
        erase = ancilla_state(plan)
    else:
        erase = np.full(K, 1.0 / math.sqrt(K))
    # joint state Σ_k amps_k |k⟩⊗|φ_k⟩, ancilla projected onto `erase`
    psi = sum(a * np.conj(w) * phi for a, w, phi in zip(amps, erase, phis))
    prob = float(np.real(np.vdot(psi, psi)))
    if prob <= 0:
        raise DomainError("post-selection probability vanished")
    psi = psi / math.sqrt(prob)
    target = sum(ck * phi for ck, phi in zip(plan.coefficients, phis))
    fidelity = float(abs(np.vdot(target, psi)) ** 2)
    return {"state": psi, "probability": prob, "fidelity": fidelity}


# ---------------------------------------------------------------------------
# Permutation synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermutationSynthesis:
    permutation: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    transpositions: tuple[tuple[int, int], ...]
    report: dict

    def apply(self, label: int) -> int:
        out = label
        for a, b in self.transpositions:
            if out == a:
                out = b
            elif out == b:
                out = a
        return out


def _complete_mapping(mapping: dict, size: int) -> list[int]:
    perm = [None] * size
    used = set()
    for k, v in mapping.items():
        if not (0 <= k < size and 0 <= v < size):
            raise ParameterError("labels out of range")
        if v in used:
            raise ParameterError("mapping is not injective")
        perm[k] = v
        used.add(v)
    free_targets = [v for v in range(size) if v not in used]
    # fix unmapped labels pointwise where possible, then pair leftovers
    leftovers = []
    for k in range(size):
        if perm[k] is None:
            if k in used:
                leftovers.append(k)
            else:
                perm[k] = k
                used.add(k)
                free_targets.remove(k)
    for k, v in zip(sorted(leftovers), sorted(free_targets)):
        perm[k] = v
    return perm


def synthesize_permutation(mapping: dict, size: int) -> PermutationSynthesis:
    """Cycle/transposition decomposition of k → φ_{b,k} label relabeling.

    Partial injective mappings are completed deterministically (unmapped
    labels fixed where possible, leftovers paired in sorted order).
    Applying the transpositions right-to-left reproduces the permutation;
    their count is Σ(cycle length − 1) ≤ size − 1.
    """
    perm = _complete_mapping(dict(mapping), size)
    seen = [False] * size
    cycles = []
    for start in range(size):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append(tuple(cyc))
    transpositions = []
    for cyc in cycles:
        # applying (a1 a2), (a1 a3), …, (a1 am) in sequence realizes the cycle
        for j in range(1, len(cyc)):
            transpositions.append((cyc[0], cyc[j]))
    width = max(1, (size - 1).bit_length())
    hamming = [bin(a ^ b).count("1") for a, b in transpositions]
    report = {
        "n_cycles": len(cycles),
        "n_transpositions": len(transpositions),
        "cycle_length_sum": sum(len(c) for c in cycles),
        "label_width": width,
        "hamming_path_lengths": hamming,
        "hamming_total": sum(hamming),
    }
    return PermutationSynthesis(tuple(perm), tuple(cycles),
                                tuple(transpositions), report)
