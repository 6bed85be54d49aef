"""Diagonalizing flows and quadratic-Hamiltonian transformations.

Wegner flow dH/ds = [G, H] with G = [diag(H), H] drives a Hermitian
matrix toward diagonal form while conserving Tr H and Tr H²; two-site
Bogoliubov rotations (trigonometric for fermions, hyperbolic for
bosons) and the Fourier-Bogoliubov single-particle spectrum of the XY
chain are verified against direct quadratic-form diagonalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import require_hermitian
from .errors import ConvergenceError, DomainError, ParameterError


def wegner_generator(H: np.ndarray) -> np.ndarray:
    """G = [diag(H), H]: G_ij = h_ij (d_i − d_j), anti-Hermitian, zero diagonal."""
    H = require_hermitian(H)
    d = np.real(np.diag(H))
    return H * (d[:, None] - d[None, :])


@dataclass(frozen=True)
class FlowState:
    s: float
    H: np.ndarray
    off_diagonal_norm: float
    trace_h2: float


def _off_norm(H: np.ndarray) -> float:
    off = H - np.diag(np.diag(H))
    return float(np.linalg.norm(off))


def wegner_flow(H0: np.ndarray, ds: float | None = None, s_max: float = 50.0,
                sample_every: int = 10, tol_factor: float = 1e-6):
    """RK4 integration of dH/ds = [[diag H, H], H] until off-diagonal decay.

    Returns the list of sampled FlowState; convergence means the
    off-diagonal Frobenius norm fell below tol_factor·‖H0‖_F.  A
    stalled flow (degenerate diagonal with surviving coupling) raises
    ConvergenceError carrying the trajectory for inspection.
    """
    H = require_hermitian(H0)
    norm0 = float(np.linalg.norm(H))
    if ds is None:
        ds = 0.01 / max(norm0 ** 2, 1e-12)
    if ds <= 0:
        raise ParameterError("ds must be positive")

    def rhs(M):
        G = M * (np.real(np.diag(M))[:, None] - np.real(np.diag(M))[None, :])
        return G @ M - M @ G

    trajectory = [FlowState(0.0, H.copy(), _off_norm(H),
                            float(np.real(np.trace(H @ H))))]
    tol = tol_factor * max(norm0, 1e-12)
    s = 0.0
    step = 0
    prev_off = _off_norm(H)
    while s < s_max:
        k1 = rhs(H)
        k2 = rhs(H + 0.5 * ds * k1)
        k3 = rhs(H + 0.5 * ds * k2)
        k4 = rhs(H + ds * k3)
        H = H + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        H = (H + H.conj().T) / 2.0
        s += ds
        step += 1
        off = _off_norm(H)
        if off > prev_off * (1.0 + 1e-8) + 1e-12:
            raise ParameterError(
                f"off-diagonal norm grew at s={s:.4g}; reduce ds (got {ds:.3g})"
            )
        if step % sample_every == 0 or off <= tol:
            trajectory.append(FlowState(s, H.copy(), off,
                                        float(np.real(np.trace(H @ H)))))
        prev_off = off
        if off <= tol:
            return trajectory
    raise ConvergenceError(
        f"flow did not reach off-diagonal norm {tol:.3g} by s={s_max} "
        "(degenerate diagonal entries stall the generator)",
        residual=_off_norm(H), trace=trajectory,
    )


@dataclass(frozen=True)
class BogoliubovSolution:
    statistics: str
    theta: float
    energy: float  # quasiparticle ε̃
    u: float
    v: float
    unitary: np.ndarray  # 2×2 mode-mixing matrix


def bogoliubov_2site(epsilon: float, lam: float, statistics: str) -> BogoliubovSolution:
    """Two-mode pairing problem ε(a†a + b†b) + λ(a†b† + ba).

    Fermions: tan 2θ = −λ/ε, ε̃ = √(ε²+λ²), u = cos θ, v = sin θ,
    u² + v² = 1.  Bosons: tanh 2θ = −λ/ε, ε̃ = √(ε²−λ²), u = cosh θ,
    v = sinh θ, u² − v² = 1; |ε| ≤ |λ| is the unstable regime and is
    rejected.
    """
    if statistics not in ("fermionic", "bosonic"):
        raise ParameterError("statistics must be 'fermionic' or 'bosonic'")
    if statistics == "fermionic":
        if epsilon == 0.0 and lam == 0.0:
            raise ParameterError("need ε ≠ 0 or λ ≠ 0")
        theta = 0.5 * math.atan2(-lam, epsilon)
        energy = math.hypot(epsilon, lam)
        u, v = math.cos(theta), math.sin(theta)
        U = np.array([[u, -v], [v, u]])
    else:
        if abs(epsilon) <= abs(lam):
            raise DomainError(
                "bosonic pairing with |ε| ≤ |λ| sits at an unstable "
                "equilibrium; no Bogoliubov rotation diagonalizes it"
            )
        theta = 0.5 * math.atanh(-lam / epsilon)
        energy = math.sqrt(epsilon * epsilon - lam * lam)
        u, v = math.cosh(theta), math.sinh(theta)
        U = np.array([[u, v], [v, u]])
    return BogoliubovSolution(statistics, theta, energy, u, v, U)


def pairing_block(epsilon: float, lam: float, statistics: str) -> np.ndarray:
    """4×4 quadratic form in the Nambu vector (a, b, a†, b†)†.

    H = ε(a†a + b†b) + λ(a†b† + ba), written as ½ Ψ† M Ψ up to a
    constant; the single-particle spectrum of M (for fermions) or of
    ηM with η = diag(1,1,−1,−1) (for bosons) gives ±ε̃.
    """
    e, l = epsilon, lam
    if statistics == "fermionic":
        return np.array([
            [e, 0, 0, -l],
            [0, e, l, 0],
            [0, l, -e, 0],
            [-l, 0, 0, -e],
        ], dtype=float) / 1.0
    return np.array([
        [e, 0, 0, l],
        [0, e, l, 0],
        [0, l, e, 0],
        [l, 0, 0, e],
    ], dtype=float)


def xy_spectrum(N: int, J: float, gamma: float, lam: float) -> dict:
    """Single-particle spectrum of the XY chain after Fourier-Bogoliubov.

    With a = 2π/N, Δ_k = γ sin(ka), ε_k = λ − cos(ka) and
    E_k = √(Δ_k² + ε_k²); the diagonalized Hamiltonian is
    J Σ_k 2E_k (g†_k g_k − ½).  The k grid is m·(2π/N) with
    m = −(N−1)/2 … (N−1)/2 for odd N and m = −N/2 … N/2 − 1 for even N
    (the even grid keeps −N/2 but not +N/2).
    """
    if N < 2:
        raise ParameterError("N must be >= 2")
    a = 2.0 * math.pi / N
    if N % 2:
        ms = np.arange(-(N - 1) // 2, (N - 1) // 2 + 1)
    else:
        ms = np.arange(-N // 2, N // 2)
    k = ms * a
    eps_k = lam - np.cos(k)
    delta_k = gamma * np.sin(k)
    E_k = np.sqrt(delta_k ** 2 + eps_k ** 2)
    return {"k": k, "eps_k": eps_k, "delta_k": delta_k, "E_k": E_k, "J": J}


def xy_bdg_spectrum(N: int, J: float, gamma: float, lam: float) -> np.ndarray:
    """Oracle: single-particle energies from the real-space quadratic form.

    The fermionized chain H/J = Σ_j [−(c†_j c_{j+1} + h.c.)
    − γ(c†_j c†_{j+1} + h.c.)] + λ Σ_j (2 c†_j c_j − 1) (periodic) is
    written as ½ Ψ†MΨ + const in the Nambu vector (c_1…c_N, c†_1…c†_N);
    the positive eigenvalues of M, halved and sorted, equal the E_k of
    ``xy_spectrum`` sorted.
    """
    if N < 2:
        raise ParameterError("N must be >= 2")
    A = 2.0 * lam * np.eye(N)
    B = np.zeros((N, N))
    for j in range(N):
        l = (j + 1) % N
        A[j, l] -= 1.0
        A[l, j] -= 1.0
        B[j, l] -= gamma
        B[l, j] += gamma
    M = np.block([[A, B], [-B, -A]])
    w = np.linalg.eigvalsh(M)
    return np.sort(w[N:]) / 2.0
