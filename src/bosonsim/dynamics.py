"""Unitary propagation, Trotter error budgeting, and circuit synthesis.

Exact propagation takes a dense or a ``scipy.sparse`` Hermitian matrix; a
Trotter factor given as a Pauli string is applied in closed form.  Circuit
synthesis targets single Pauli-string exponentials e^{-i(θ/2)P} via the
CNOT-staircase construction, with basis changes H (for X) and S·H (for Y,
using S X S† = Y).
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError
from .pauli import PauliTerm, require_capacity, require_letters, signed_rows

HERMITIAN_TOL = 1e-10  # relative to max(1, largest entry or coefficient)

# ---------------------------------------------------------------------------
# Exact and Trotterized propagation
# ---------------------------------------------------------------------------


def _is_sparse(H) -> bool:
    """True for a ``scipy.sparse`` matrix, without importing scipy.sparse to ask."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(H)


def require_hermitian(H):
    """H as a complex square array (complex CSR if H is sparse), Hermitian to
    HERMITIAN_TOL·max(1, max|H_ij|)."""
    H = H.tocsr().astype(complex) if _is_sparse(H) else np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionError("H must be square")
    if abs(H - H.conj().T).max() > HERMITIAN_TOL * max(1.0, float(abs(H).max())):
        raise DomainError("H is not Hermitian within tolerance")
    return H


def expm_hermitian(H: np.ndarray, scale: complex) -> np.ndarray:
    """e^{scale·H} for Hermitian H via eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(scale * w)) @ V.conj().T


def _expm_multiply_is_cheaper(H, t: float) -> bool:
    """Whether expm_multiply beats eigh on the sparse H, by costs measured on one
    core for dim 8–4096: about 0.5 ms plus, per unit of ‖tH‖₁, 30 µs and 5 ns
    per stored entry, against about 1 ns·dim³ for a complex eigh."""
    norm = abs(t) * float(abs(H).sum(axis=0).max())
    return 5e-4 + norm * (3e-5 + 5e-9 * H.nnz) < 1e-9 * H.shape[0] ** 3


def evolve_exact(H, psi0: np.ndarray, t: float) -> np.ndarray:
    """ψ(t) = e^{−iHt} ψ0.

    A dense H is diagonalized.  A ``scipy.sparse`` H is propagated by
    ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011),
    whose cost grows with ‖tH‖₁, unless diagonalizing looks cheaper; then it is
    densified and diagonalized.
    """
    H = require_hermitian(H)
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ParameterError("psi0 must be normalized")
    if _is_sparse(H):
        if _expm_multiply_is_cheaper(H, t):
            from scipy.sparse.linalg import expm_multiply
            return expm_multiply(-1.0j * t * H, psi0)
        require_capacity(H.shape, 16, f"dense H of dimension {H.shape[0]}")
        H = H.toarray()
    w, V = np.linalg.eigh(H)
    return V @ (np.exp(-1.0j * w * t) * (V.conj().T @ psi0))


def hermitian_coefficients(terms) -> list[float]:
    """Real parts of the Pauli terms' coefficients; Im c may reach
    HERMITIAN_TOL·max(1, max|c|)."""
    coefficients = [complex(t.coefficient) for t in terms]
    scale = max([1.0] + [abs(c) for c in coefficients])
    if any(abs(c.imag) > HERMITIAN_TOL * scale for c in coefficients):
        raise DomainError("Pauli terms are not Hermitian within tolerance")
    return [c.real for c in coefficients]


def product_formula(factor, terms, dt: float, order: int) -> list:
    """One step's factors in acting order: factor(term, dt) per term (order 1),
    or factor(term, dt/2) per term, then the same in reverse (order 2)."""
    if order not in (1, 2):
        raise ParameterError("order must be 1 or 2")
    if order == 1:
        return [factor(term, dt) for term in terms]
    half = [factor(term, 0.5 * dt) for term in terms]
    return half + half[::-1]


def _pauli_factors(terms: list, dim: int, dt: float, order: int) -> list:
    """One step's factors e^{−iτcP} = cos θ·I − i sin θ·P (θ = τc, as P² = I) for
    Pauli terms c·P, as functions ψ ↦ factor·ψ, each run with one x mask merged.

    A factor (x, A, B) is A + B·X^x with diagonals A, B, or the diagonal A when B
    is None; (C + E·X)(A + B·X) = (CA + E·B^x) + (CB + E·A^x)·X with
    F^x[k] = F[k ⊕ x].
    """
    coefficients = hermitian_coefficients(terms)
    for term in terms:
        if 1 << term.qubit_count != dim:
            raise DimensionError(f"{term.qubit_count}-qubit term on a state of dimension {dim}")
    masks = [(term.x_mask, term.z_mask) for term in terms]
    _, phase = signed_rows(masks, [1.0] * len(masks), terms[0].qubit_count if terms else 0)
    rows = np.arange(dim)

    def factor(j, tau):
        x, theta = masks[j][0], tau * coefficients[j]
        a, b = math.cos(theta), -1.0j * math.sin(theta) * phase[j]
        return (0, a + b, None) if x == 0 else (x, a, b)

    merged = []
    for x, C, E in product_formula(factor, range(len(terms)), dt, order):
        if not merged or merged[-1][0] != x:
            merged.append((x, C, E))
        elif x == 0:
            merged[-1] = (0, C * merged[-1][1], None)
        else:
            _, A, B = merged[-1]
            A_x = A[rows ^ x] if isinstance(A, np.ndarray) else A
            merged[-1] = (x, C * A + E * B[rows ^ x], C * B + E * A_x)
    return [A.__mul__ if B is None else
            lambda psi, A=A, B=B, src=rows ^ x: A * psi + B * psi[src] for x, A, B in merged]


def trotter_evolve(terms, psi0: np.ndarray, t: float, n: int, order: int = 1) -> np.ndarray:
    """Apply the order-1 or symmetric order-2 product formula n times.

    The terms are all dense Hermitian matrices or all ``PauliTerm``s with real
    coefficients.  Adjacent Pauli factors whose strings share an x mask are
    applied as one factor; the product and its term order are unchanged.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    psi = np.asarray(psi0, dtype=complex)
    terms = list(terms)
    pauli = [isinstance(term, PauliTerm) for term in terms]
    if all(pauli):
        seq = _pauli_factors(terms, psi.shape[0], t / n, order)
    elif any(pauli):
        raise ParameterError("Trotter terms must be all PauliTerms or all dense matrices")
    else:
        seq = [U.__matmul__ for U in product_formula(
            lambda H, tau: expm_hermitian(np.asarray(H, dtype=complex), -1.0j * tau),
            terms, t / n, order)]
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

    @functools.cached_property
    def qasm(self) -> str:
        """The OpenQASM line, kept: a shared ``_fixed_gate`` gate formats it once."""
        angle = "" if self.param is None else f"({self.param!r})"
        return f"{self.name}{angle} {','.join(f'q[{q}]' for q in self.qubits)};"


def _require_on_register(qubits: tuple[int, ...], n_qubits: int):
    if not all(0 <= q < n_qubits for q in qubits):
        raise ParameterError(f"qubits {qubits} outside circuit of width {n_qubits}")


@functools.cache
def _fixed_gate(name: str, qubits: tuple[int, ...]) -> Gate:
    """The one validated angle-free gate on these qubits; frozen, so safe to share."""
    return Gate(name, qubits)


@dataclass(frozen=True)
class GateList:
    """Time-ordered gate sequence with an explicit global phase angle.

    The represented unitary is e^{iφ}·G_last···G_first (gates applied in
    list order); qubit 0 is the most significant tensor factor.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    phase: float = 0.0

    def __post_init__(self):
        # over the few distinct qubit tuples; a failure is named by its first gate
        used = {q for qubits in {g.qubits for g in self.gates} for q in qubits}
        if used and not 0 <= min(used) <= max(used) < self.n_qubits:
            for g in self.gates:
                _require_on_register(g.qubits, self.n_qubits)

    @staticmethod
    def _on_register(n_qubits: int, gates: tuple[Gate, ...]) -> "GateList":
        """A list whose gates synthesis placed on its register, so trusted unchecked."""
        out = object.__new__(GateList)
        out.__dict__.update(n_qubits=n_qubits, gates=gates, phase=0.0)
        return out

    def unitary(self) -> np.ndarray:
        """The dense unitary, each gate applied to the rows of the product so far."""
        require_capacity((2**self.n_qubits,) * 2, 16, f"{self.n_qubits}-qubit unitary")
        dim = 2**self.n_qubits
        U = np.eye(dim, dtype=complex) * np.exp(1.0j * self.phase)
        rows = np.arange(dim)
        for gate in self.gates:
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
        lines += [g.qasm if g.param is None else f"{g.name}({g.param!r}) q[{g.qubits[0]}];"
                  for g in self.gates]
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
                    _require_on_register(gate.qubits, n_qubits)
                    gates.append(gate)
            except ValueError as exc:  # ParameterError, or an angle float() cannot read
                raise ParameterError(f"line {lineno} {raw!r}: {exc}") from exc
        if n_qubits is None:
            raise ParameterError("QASM text lacks a qreg declaration")
        return GateList(n_qubits, tuple(gates), phase)


@functools.cache
def _basis_change(letter: str, q: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """The gates before and after the CNOT staircase that turn Z on qubit q into
    this letter: H for X; (S·H)† before and S·H after for Y, as S X S† = Y."""
    names = {"X": (("h",), ("h",)), "Y": (("sdg", "h"), ("h", "s"))}.get(letter, ((), ()))
    return tuple(tuple(_fixed_gate(name, (q,)) for name in side) for side in names)


def synthesize_pauli_exponential(letters: str, theta: float) -> GateList:
    """Gate list realizing e^{−i(θ/2)·P} for the Pauli string P with these letters.

    The identity string needs no gates: its list carries the phase −θ/2.
    """
    if not math.isfinite(theta):
        raise ParameterError(f"rotation angle theta={theta} is not finite")
    require_letters(letters)
    involved = [q for q, letter in enumerate(letters) if letter != "I"]
    if not involved:
        return GateList(len(letters), (), -theta / 2.0)
    pre, post = [], []
    for q in involved:
        before, after = _basis_change(letters[q], q)
        pre += before
        post += after
    stair = [_fixed_gate("cx", pair) for pair in zip(involved, involved[1:])]
    pre += stair
    pre.append(Gate("rz", (involved[-1],), theta))
    pre += stair[::-1]
    return GateList._on_register(len(letters), tuple(pre + post))


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
