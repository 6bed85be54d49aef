"""Lindblad dynamics via column-stacking vectorization.

The master equation implemented verbatim is

    dρ/dt = −i[H,ρ] + Γ(2 n̂ρn̂ − {n̂n̂, ρ})
                    + γ(2 bρb† − {bb†, ρ} + 2 b†ρb − {n̂, ρ})

whose two heating blocks are asymmetric as written; their trace
contributions cancel exactly (Tr(bρb†) = Tr(n̂ρ) and Tr(b†ρb) = Tr(bb†ρ)),
so the generator is trace-preserving, which the tests verify numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg import expm

from .dynamics import product_formula
from .errors import DimensionError, DomainError, ParameterError
from .pauli import require_capacity

STATE_BLOCK = 256  # steps whose states propagate_lindblad holds, and records, at once


@dataclass(frozen=True)
class LindbladSpec:
    H: np.ndarray
    gamma_dephasing: float  # Γ
    gamma_heating: float  # γ
    b: np.ndarray  # annihilation on the full space
    n: np.ndarray  # number operator on the full space

    def __post_init__(self):
        if self.gamma_dephasing < 0 or self.gamma_heating < 0:
            raise ParameterError("rates must be non-negative")
        d = self.H.shape[0]
        for name, op in (("H", self.H), ("b", self.b), ("n", self.n)):
            if op.shape != (d, d):
                raise DimensionError(f"operator {name} has mismatched dimension")


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking: [[m11,m12],[m21,m22]] → (m11, m21, m12, m22)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError("expected a square matrix")
    return rho.reshape(-1, order="F")


def devectorize(v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v)
    if v.size != d * d:
        raise DimensionError("vector length is not d²")
    return v.reshape((d, d), order="F")


def build_liouvillian(spec: LindbladSpec) -> np.ndarray:
    """Superoperator L with vec(dρ/dt) = L·vec(ρ), a dense d²×d² matrix.

    Raises CapacityError before allocating when d² exceeds 2**DENSE_LIMIT.
    """
    d = spec.H.shape[0]
    require_capacity((d * d, d * d), 16, "Liouvillian")
    H, b, n = (np.asarray(m, dtype=complex) for m in (spec.H, spec.b, spec.n))
    I = np.eye(d)
    bd = b.conj().T
    L = -1j * np.kron(I, H) + 1j * np.kron(H.T, I)
    G = spec.gamma_dephasing
    if G:
        nn = n @ n
        L += G * (2.0 * np.kron(n.T, n) - np.kron(I, nn) - np.kron(nn.T, I))
    g = spec.gamma_heating
    if g:
        bbd = b @ bd
        L += g * (
            2.0 * np.kron(b.conj(), b)
            - np.kron(I, bbd)
            - np.kron(bbd.T, I)
            + 2.0 * np.kron(b.T, bd)
            - np.kron(I, n)
            - np.kron(n.T, I)
        )
    return L


def lindblad_rhs(spec: LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """Direct master-equation right-hand side (oracle for the superoperator)."""
    H, b, n = spec.H, spec.b, spec.n
    bd = b.conj().T
    out = -1j * (H @ rho - rho @ H)
    if spec.gamma_dephasing:
        nn = n @ n
        out = out + spec.gamma_dephasing * (2 * n @ rho @ n - nn @ rho - rho @ nn)
    if spec.gamma_heating:
        bbd = b @ bd
        out = out + spec.gamma_heating * (
            2 * b @ rho @ bd - bbd @ rho - rho @ bbd
            + 2 * bd @ rho @ b - n @ rho - rho @ n
        )
    return out


def propagate_lindblad(L: np.ndarray, rho0: np.ndarray, t: float, dt: float = 1e-3,
                       record=None):
    """ρ(t) = e^{Lt}ρ0 by one step propagator e^{L·dt}, reused for every step.

    Whole steps number ⌊t/dt⌋ (k when t/dt is within 1e-9 relative of an
    integer k); a remainder step e^{L·r} then ends the series at exactly t.
    Each step's vec(ρ) is written as one row of a block of STATE_BLOCK rows.
    `record`, if given, is called as record(taus, rhos) once per block,
    after its last step: taus holds the times k·dt (or t for the remainder
    step) and rhos is a read-only (len(taus), d, d) view of the states.
    The block is overwritten by the next steps, so `record` copies what it
    keeps. Only the returned final state is re-symmetrized.
    """
    if not (0 < dt < np.inf and 0 <= t < np.inf):
        raise ParameterError("need finite dt > 0 and t >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-10:
        raise DomainError("rho0 must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise DomainError("rho0 must have unit trace")
    if np.min(np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2)) < -1e-10:
        raise DomainError("rho0 must be positive semidefinite")
    x = t / dt
    steps = round(x)
    tail = []
    if abs(x - steps) > 1e-9 * steps:  # t is not a whole number of steps
        steps = int(x)
        tail = [(expm(L * (t - steps * dt)), t)]
    P = expm(L * dt)
    v = vectorize(rho0)
    block = np.empty((min(STATE_BLOCK, steps + len(tail)), d * d), dtype=complex)
    taus = np.empty(len(block))
    i = 0
    for U, tau in chain(((P, k * dt) for k in range(1, steps + 1)), tail):
        v = np.matmul(U, v, out=block[i])  # the zgemv of U @ v, into the block
        taus[i] = tau
        i += 1
        if i == len(block):
            if record is not None:
                _record_block(record, taus, block, d)
            i = 0
    if i and record is not None:
        _record_block(record, taus[:i], block[:i], d)
    rho = devectorize(v, d)
    return (rho + rho.conj().T) / 2.0


def _record_block(record, taus, block, d):
    """record(taus, rhos) with read-only views: rhos[k] is devectorize(block[k], d)."""
    taus, rhos = taus[:], block.reshape(len(block), d, d).transpose(0, 2, 1)
    taus.flags.writeable = rhos.flags.writeable = False
    record(taus, rhos)


def liouvillian_trotter_step(L_terms, dt: float, order: int = 1) -> np.ndarray:
    """One splitting step: ∏ e^{L_j dt} (order 1) or the palindromic product."""
    mats = [np.asarray(m, dtype=complex) for m in L_terms]
    seq = product_formula(lambda m, tau: expm(m * tau), mats, dt, order)
    out = np.eye(mats[0].shape[0], dtype=complex)
    for U in seq:
        out = U @ out
    return out


def lcu_split(L: np.ndarray, t: float, eps_step: float):
    """Hermitian/anti-Hermitian split of e^{Lt} with four-unitary reconstruction.

    A = (e^{Lt} + e^{L†t})/2 (Hermitian), B = (e^{Lt} − e^{L†t})/2
    (anti-Hermitian); A ≈ (i e^{−iεA} − i e^{iεA})/(2ε), B ≈
    (e^{εB} − e^{−εB})/(2ε).  Returns the unitaries, LCU coefficients,
    and the reconstruction residual ‖Σ c_i U_i − e^{Lt}‖ = O(ε²).
    """
    if t < 0 or eps_step <= 0:
        raise ParameterError("need t >= 0 and eps_step > 0")
    L = np.asarray(L, dtype=complex)
    Et = expm(L * t)
    Edag = expm(L.conj().T * t)
    A = (Et + Edag) / 2.0
    B = (Et - Edag) / 2.0
    e = eps_step
    unitaries = [expm(-1j * e * A), expm(1j * e * A), expm(e * B), expm(-e * B)]
    coeffs = [1j / (2 * e), -1j / (2 * e), 1.0 / (2 * e), -1.0 / (2 * e)]
    recon = sum(c * U for c, U in zip(coeffs, unitaries))
    residual = float(np.linalg.norm(recon - Et, 2))
    return {
        "A": A,
        "B": B,
        "unitaries": unitaries,
        "coefficients": coeffs,
        "residual": residual,
    }
