"""Unitary propagation, Trotter error budgeting, and circuit synthesis.

Propagators work on dense Hermitian matrices; a Trotter factor given as a
Pauli string is applied in closed form instead.  Circuit synthesis targets
single Pauli-string exponentials e^{-i(θ/2)P} via the CNOT-staircase
construction, with basis changes H (for X) and S·H (for Y, using
S X S† = Y).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError
from .pauli import PauliTerm, require_letters

HERMITIAN_TOL = 1e-10  # relative to max(1, largest entry or coefficient)

# ---------------------------------------------------------------------------
# Exact and Trotterized propagation
# ---------------------------------------------------------------------------


def require_hermitian(H: np.ndarray) -> np.ndarray:
    """H as a complex square array, Hermitian to HERMITIAN_TOL·max(1, max|H_ij|)."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionError("H must be square")
    if np.max(np.abs(H - H.conj().T)) > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(H)))):
        raise DomainError("H is not Hermitian within tolerance")
    return H


def expm_hermitian(H: np.ndarray, scale: complex) -> np.ndarray:
    """e^{scale·H} for Hermitian H via eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(scale * w)) @ V.conj().T


def evolve_exact(H: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """ψ(t) = e^{−iHt} ψ0 by eigendecomposition."""
    H = require_hermitian(H)
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ParameterError("psi0 must be normalized")
    w, V = np.linalg.eigh(H)
    return V @ (np.exp(-1.0j * w * t) * (V.conj().T @ psi0))


def require_hermitian_terms(terms) -> list[PauliTerm]:
    """Pauli terms with real coefficients; Im c may reach HERMITIAN_TOL·max(1, max|c|)."""
    terms = list(terms)
    scale = max([1.0] + [abs(t.coefficient) for t in terms])
    if any(abs(complex(t.coefficient).imag) > HERMITIAN_TOL * scale for t in terms):
        raise DomainError("Pauli terms are not Hermitian within tolerance")
    return [PauliTerm(t.letters, complex(t.coefficient).real) for t in terms]


def _factor(term, tau: float, dim: int):
    """ψ ↦ e^{−iτ·term}ψ for a dense Hermitian matrix or a Pauli term."""
    if not isinstance(term, PauliTerm):
        U = expm_hermitian(np.asarray(term, dtype=complex), -1.0j * tau)
        return U.__matmul__
    (term,) = require_hermitian_terms([term])
    if 1 << term.qubit_count != dim:
        raise DimensionError(f"{term.qubit_count}-qubit term on a state of dimension {dim}")
    src, phase = PauliTerm(term.letters, 1.0).signed_permutation()
    # P² = I, so e^{−iθP} = cos θ·I − i sin θ·P
    theta = tau * term.coefficient
    a, b = math.cos(theta), -1.0j * math.sin(theta) * phase
    return lambda psi: a * psi + b * psi[src]


def trotter_evolve(terms, psi0: np.ndarray, t: float, n: int, order: int = 1) -> np.ndarray:
    """Apply the order-1 or symmetric order-2 product formula n times.

    Each term is a dense Hermitian matrix or a ``PauliTerm`` with a real
    coefficient.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if order not in (1, 2):
        raise ParameterError("order must be 1 or 2")
    psi = np.asarray(psi0, dtype=complex)
    dt = t / n
    if order == 1:
        seq = [_factor(term, dt, psi.shape[0]) for term in terms]
    else:
        half = [_factor(term, 0.5 * dt, psi.shape[0]) for term in terms]
        seq = half + half[::-1]
    for _ in range(n):
        for apply in seq:
            psi = apply(psi)
    return psi


def trotter_error_bound(K: np.ndarray, V: np.ndarray, t: float, n: int) -> float:
    """First-order per-run bound ‖[K,V]‖ t² / (2n) (spectral norm)."""
    K = np.asarray(K, dtype=complex)
    V = np.asarray(V, dtype=complex)
    comm = K @ V - V @ K
    return float(np.linalg.norm(comm, 2) * t * t / (2.0 * n))


def trotter_steps_for(K: np.ndarray, V: np.ndarray, t: float, eps: float) -> int:
    """Smallest step count with first-order bound ≤ ε: ⌈‖[K,V]‖t²/(2ε)⌉."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    return max(1, math.ceil(trotter_error_bound(K, V, t, 1) / eps))


# ---------------------------------------------------------------------------
# Gate lists and Pauli-exponential synthesis
# ---------------------------------------------------------------------------

_X1 = np.array([[0, 1], [1, 0]], dtype=complex)

# name -> (qubit count, 2×2 matrix); a rotation's matrix is a function of its
# angle, and cx has none: GateList.unitary applies it as a row permutation
_GATES = {
    "h": (1, np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)),
    "s": (1, np.diag([1.0, 1.0j])),
    "sdg": (1, np.diag([1.0, -1.0j])),
    "x": (1, _X1),
    "rz": (1, lambda angle: np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])),
    "ry": (1, lambda angle: np.array([[math.cos(angle / 2), -math.sin(angle / 2)],
                                      [math.sin(angle / 2), math.cos(angle / 2)]])),
    "cx": (2, None),
}


@dataclass(frozen=True)
class Gate:
    """One gate of the ``_GATES`` table; a rotation carries a finite angle."""

    name: str
    qubits: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        if self.name not in _GATES:
            raise ParameterError(f"unsupported gate {self.name!r}")
        arity, matrix = _GATES[self.name]
        if len(self.qubits) != arity:
            raise ParameterError(f"{self.name} expects {arity} qubit(s)")
        if callable(matrix) != (self.param is not None):
            raise ParameterError(f"{self.name} takes {'an' if callable(matrix) else 'no'} angle")
        if self.param is not None and not math.isfinite(self.param):
            raise ParameterError(f"{self.name} angle {self.param} is not finite")


def _require_on_register(gate: Gate, n_qubits: int):
    if not all(0 <= q < n_qubits for q in gate.qubits):
        raise ParameterError(f"qubits {gate.qubits} outside circuit of width {n_qubits}")


@dataclass(frozen=True)
class GateList:
    """Time-ordered gate sequence with an explicit global phase angle.

    The represented unitary is e^{iφ}·G_last···G_first (gates applied in
    list order); qubit 0 is the most significant tensor factor.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    phase: float = 0.0

    def unitary(self) -> np.ndarray:
        """The dense unitary, each gate applied to the rows of the product so far."""
        dim = 2**self.n_qubits
        U = np.eye(dim, dtype=complex) * np.exp(1.0j * self.phase)
        rows = np.arange(dim)
        for gate in self.gates:
            _require_on_register(gate, self.n_qubits)
            matrix = _GATES[gate.name][1]
            if matrix is None:  # cx: rows with the control bit set swap across the target bit
                c, t = (1 << (self.n_qubits - 1 - q) for q in gate.qubits)
                U = U[np.where(rows & c, rows ^ t, rows)]
            else:  # axis 1 of the reshape is qubit q's bit of the row index
                m = matrix if gate.param is None else matrix(gate.param)
                q = gate.qubits[0]
                U = (m @ U.reshape(2**q, 2, -1)).reshape(dim, dim)
        return U

    # -- OpenQASM-2.0 subset ---------------------------------------------
    def to_qasm(self) -> str:
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
        if self.phase:
            lines.append(f"// global-phase {self.phase!r}")
        lines.append(f"qreg q[{self.n_qubits}];")
        for g in self.gates:
            if g.param is not None:
                lines.append(f"{g.name}({g.param!r}) q[{g.qubits[0]}];")
            elif g.name == "cx":
                lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
            else:
                lines.append(f"{g.name} q[{g.qubits[0]}];")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_qasm(text: str) -> "GateList":
        """Read the subset ``to_qasm`` writes; the register is declared before any gate."""
        n_qubits, phase, gates = None, 0.0, []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            try:
                if line.startswith("// global-phase"):
                    phase = float(line.split()[-1])
                    if not math.isfinite(phase):
                        raise ParameterError("global phase is not finite")
                elif not line or line.startswith(("OPENQASM", "include", "//")):
                    continue
                elif m := re.fullmatch(r"qreg\s+q\[(\d+)\];", line):
                    n_qubits = int(m.group(1))
                elif not (m := re.fullmatch(r"(\w+)(?:\((.*)\))? (q\[\d+\](?:,q\[\d+\])*);", line)):
                    raise ParameterError("cannot parse QASM line")
                elif n_qubits is None:
                    raise ParameterError("QASM text lacks a qreg declaration before its gates")
                else:
                    name, param, args = m.groups()
                    gate = Gate(name, tuple(map(int, re.findall(r"\d+", args))),
                                None if param is None else float(param))
                    _require_on_register(gate, n_qubits)
                    gates.append(gate)
            except ValueError as exc:  # ParameterError, or an angle float() cannot read
                raise ParameterError(f"line {lineno} {raw!r}: {exc}") from exc
        if n_qubits is None:
            raise ParameterError("QASM text lacks a qreg declaration")
        return GateList(n_qubits, tuple(gates), phase)


def synthesize_pauli_exponential(letters: str, theta: float) -> GateList:
    """Gate list realizing e^{−i(θ/2)·P} for the Pauli string P with these letters.

    The identity string needs no gates: its list carries the phase −θ/2.
    """
    if not math.isfinite(theta):
        raise ParameterError(f"rotation angle theta={theta} is not finite")
    require_letters(letters)
    n = len(letters)
    involved = [q for q, letter in enumerate(letters) if letter != "I"]
    if not involved:
        return GateList(n, (), -theta / 2.0)
    pre: list[Gate] = []
    post: list[Gate] = []
    for q in involved:
        letter = letters[q]
        if letter == "X":
            pre.append(Gate("h", (q,)))
            post.append(Gate("h", (q,)))
        elif letter == "Y":
            # conjugation by (S·H)† before / (S·H) after maps Z into Y
            pre.extend([Gate("sdg", (q,)), Gate("h", (q,))])
            post.extend([Gate("h", (q,)), Gate("s", (q,))])
    target = involved[-1]
    stair = [
        Gate("cx", (involved[i], involved[i + 1]))
        for i in range(len(involved) - 1)
    ]
    gates = pre + stair + [Gate("rz", (target,), theta)] + stair[::-1] + post
    return GateList(n, tuple(gates))


# ---------------------------------------------------------------------------
# Anticommutator gadget and the double-bracket commutator bound
# ---------------------------------------------------------------------------


def gadget_anticommutator(p: np.ndarray, q: np.ndarray, t: float = 0.1, rng=None):
    """Enlarged-space analogs p' = p⊗Y, q' = q⊗X of pq and qp.

    Returns (p', q', report); the report records the deviation of
    [p',q'](φ⊗|0⟩) from −i{p,q}φ⊗|0⟩ and of e^{t[p',q']} from
    e^{−it{p,q}} on the ancilla-|0⟩ sector, for a random φ.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError("p and q must be square with equal dimension")
    Y = np.array([[0, -1j], [1j, 0]])
    pg = np.kron(p, Y)
    qg = np.kron(q, _X1)
    comm = pg @ qg - qg @ pg
    anti = p @ q + q @ p
    rng = np.random.default_rng(rng)
    d = p.shape[0]
    phi = rng.normal(size=d) + 1j * rng.normal(size=d)
    phi /= np.linalg.norm(phi)
    emb = np.kron(phi, np.array([1.0, 0.0]))
    dev_comm = float(np.max(np.abs(comm @ emb - np.kron(-1j * anti @ phi, [1.0, 0.0]))))
    # [p',q'] = −i{p,q}⊗Z is anti-Hermitian×(−i Hermitian): exponentiate directly
    from scipy.linalg import expm

    big = expm(t * comm) @ emb
    small = np.kron(expm(-1j * t * anti) @ phi, [1.0, 0.0])
    dev_exp = float(np.max(np.abs(big - small)))
    return pg, qg, {"commutator_deviation": dev_comm, "exponential_deviation": dev_exp}


def double_bracket_check(p: np.ndarray, q: np.ndarray, t: float):
    """Group-commutator defect vs the double-bracket commutator bound.

    Returns (defect, bound) with
    defect = ‖e^{−itp} e^{−itq} e^{itp} e^{itq} − e^{−t²[p,q]}‖ and
    bound = t³(‖[p,[p,q]]‖ + ‖[q,[q,p]]‖).
    """
    from scipy.linalg import expm

    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    comm = p @ q - q @ p
    prod = (
        expm_hermitian(p, -1j * t)
        @ expm_hermitian(q, -1j * t)
        @ expm_hermitian(p, 1j * t)
        @ expm_hermitian(q, 1j * t)
    )
    defect = float(np.linalg.norm(prod - expm(-t * t * comm), 2))
    b1 = np.linalg.norm(p @ comm - comm @ p, 2)
    b2 = np.linalg.norm(q @ (-comm) - (-comm) @ q, 2)
    return defect, float(t**3 * (b1 + b2))
