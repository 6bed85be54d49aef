"""Exact diagonalization and the PDS(K) moment method for ground-state bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import require_hermitian
from .encodings import RegisterLayout
from .errors import DomainError, ParameterError


def exact_diagonalize(H: np.ndarray):
    """Eigenvalues ascending and eigenvectors (columns) of a Hermitian matrix."""
    return np.linalg.eigh(require_hermitian(H))


def moments(H: np.ndarray, phi: np.ndarray, max_power: int) -> np.ndarray:
    """⟨φ|H^n|φ⟩ for n = 0..max_power by iterated matrix-vector products."""
    if max_power < 0:
        raise ParameterError("max_power must be >= 0")
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-8:
        raise ParameterError("phi must be normalized")
    out = np.empty(max_power + 1)
    v = phi.copy()
    out[0] = 1.0
    for n in range(1, max_power + 1):
        v = H @ v
        out[n] = float(np.real(np.vdot(phi, v)))
    return out


@dataclass(frozen=True)
class PDSResult:
    K: int
    moments: np.ndarray  # ⟨H^n⟩, n = 0..2K−1
    M: np.ndarray  # K×K, M_ij = ⟨H^{2K−i−j}⟩ (1-based i, j)
    Y: np.ndarray  # Y_i = ⟨H^{2K−i}⟩
    X: np.ndarray  # polynomial coefficients, M X = −Y
    roots: np.ndarray  # roots of P_K sorted by real part
    condition: float

    @property
    def lowest_root(self) -> float:
        return float(np.real(self.roots[0]))


def pds(mom: np.ndarray, K: int, *, allow_degenerate: bool = False) -> PDSResult:
    """Solve the degree-K moment polynomial P_K(ℰ) = ℰ^K + Σ X_i ℰ^{K−i}.

    The linear system M X = −Y uses M_ij = ⟨H^{2K−i−j}⟩ and
    Y_i = ⟨H^{2K−i}⟩; roots come from companion-matrix eigenvalues.
    A numerically singular M (condition number above 1e12: the trial
    state spans fewer than K eigenvectors) is an error by default; with
    ``allow_degenerate`` the minimal-norm least-squares solution is used
    instead, whose roots contain the exactly supported eigenvalues plus
    spurious extras.
    """
    if K < 1:
        raise ParameterError("K must be >= 1")
    mom = np.asarray(mom, dtype=float)
    if len(mom) < 2 * K:
        raise ParameterError(f"PDS({K}) needs moments up to order {2 * K - 1}")
    M = np.empty((K, K))
    Y = np.empty(K)
    for i in range(1, K + 1):
        Y[i - 1] = mom[2 * K - i]
        for j in range(1, K + 1):
            M[i - 1, j - 1] = mom[2 * K - i - j]
    condition = float(np.linalg.cond(M))
    degenerate = not np.isfinite(condition) or condition > 1e12
    if degenerate and not allow_degenerate:
        raise DomainError(
            f"moment matrix is numerically singular (cond {condition:.3g}); "
            "the trial state spans fewer than K eigenvectors — use a smaller K"
        )
    if degenerate:
        X = np.linalg.lstsq(M, -Y, rcond=None)[0]
    else:
        X = np.linalg.solve(M, -Y)
    roots = np.roots(np.concatenate(([1.0], X)))
    roots = np.array(sorted(roots, key=lambda z: z.real))
    if np.max(np.abs(roots.imag)) <= 1e-8:
        roots = roots.real.astype(complex)
    return PDSResult(K, mom[: 2 * K], M, Y, X, roots, condition)


def holstein_trial_state(layout: RegisterLayout) -> np.ndarray:
    """(|001⟩ + |111⟩)/√2 on the fermion block ⊗ |000⟩ on the boson block.

    Requires the 3-site, Nb = 1 binary layout (three fermion qubits then
    three single-qubit boson registers).
    """
    regs = layout.registers
    kinds = [r.kind for r in regs]
    if kinds != ["fermion"] * 3 + ["boson"] * 3 or any(
        r.width != 1 for r in regs
    ):
        raise ParameterError("trial state requires the 3-site, Nb=1 binary layout")
    psi = np.zeros(64)
    psi[0b001000] = 1.0 / np.sqrt(2.0)
    psi[0b111000] = 1.0 / np.sqrt(2.0)
    return psi
