"""Diagonalizing flows and quadratic-Hamiltonian transformations.

Wegner flow dH/ds = [G, H] with G = [diag(H), H] drives a Hermitian
matrix toward diagonal form while conserving Tr H and Tr H² (adaptive
DOP853 up to a terminal event, sampled on a fixed s grid); two-site
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

SAMPLE_EVERY = 10  # ds steps between the samples wegner_flow returns


def wegner_generator(H: np.ndarray) -> np.ndarray:
    """G = [diag(H), H]: G_ij = h_ij (d_i − d_j), anti-Hermitian, zero diagonal."""
    return _generator(require_hermitian(H))


def _generator(H: np.ndarray) -> np.ndarray:
    """h_ij (d_i − d_j) for an H already known to be Hermitian."""
    d = H.diagonal().real
    return H * (d[:, None] - d[None, :])


@dataclass(frozen=True)
class FlowState:
    s: float
    H: np.ndarray
    off_diagonal_norm: float
    trace_h2: float


def _off_norm(H: np.ndarray):
    """Frobenius norm of the off-diagonal part over the last two axes."""
    return np.linalg.norm(H * (1 - np.eye(H.shape[-1])), axis=(-2, -1))


def wegner_flow(H0: np.ndarray, ds: float | None = None, s_max: float = 50.0):
    """DOP853 integration of dH/ds = [[diag H, H], H] until off-diagonal decay.

    A terminal event stops the flow where the off-diagonal Frobenius norm
    falls to 1e-6·‖H0‖_F.  Returns the re-Hermitized FlowState at
    s = 0, at every s_k = k·SAMPLE_EVERY·ds before that point (read from
    the dense output: ``ds`` only spaces the samples) and at the stop.
    A stalled flow (degenerate diagonal with surviving coupling) raises
    ConvergenceError carrying the trajectory up to s_max for inspection.
    """
    if not s_max > 0:
        raise ParameterError(f"s_max={s_max} must be positive")
    if np.size(H0) == 0:
        raise ParameterError("H0 is empty: the flow needs at least a 1x1 matrix")
    from scipy.integrate import solve_ivp  # lazy: costs set-up time on import

    H = require_hermitian(H0)
    H = H if H.imag.any() else H.real  # a real flow needs no complex arithmetic
    n = H.shape[0]
    norm0 = float(np.linalg.norm(H))
    if ds is None:
        ds = 0.01 / max(norm0 ** 2, 1e-12)
    if ds <= 0:
        raise ParameterError("ds must be positive")
    tol = 1e-6 * max(norm0, 1e-12)
    off0 = float(_off_norm(H))
    if off0 <= tol:
        return [FlowState(0.0, H, off0, float(np.real(np.trace(H @ H))))]

    def rhs(_s, y):
        M = y.reshape(n, n)
        G = _generator(M)
        return (G @ M - M @ G).ravel()

    def converged(_s, y):
        return _off_norm(y.reshape(n, n)) - tol
    converged.terminal, converged.direction = True, -1

    sol = solve_ivp(rhs, (0.0, s_max), H.ravel(), method="DOP853", events=converged,
                    dense_output=True, rtol=1e-10, atol=1e-12 * norm0)
    done = sol.status == 1
    s_end = sol.t_events[0][0] if done else sol.t[-1]
    grid = np.arange(SAMPLE_EVERY, s_end / ds + SAMPLE_EVERY, SAMPLE_EVERY) * ds
    s = np.concatenate([[0.0], grid[grid < s_end], [s_end]])
    Hs = sol.sol(s).T.reshape(-1, n, n)
    Hs = (Hs + Hs.conj().swapaxes(1, 2)) / 2.0
    offs = _off_norm(Hs)
    grew = np.flatnonzero(offs[1:] > offs[:-1] * (1.0 + 1e-8) + 1e-12)
    if grew.size:
        raise ParameterError(f"off-diagonal norm grew at s={s[grew[0] + 1]:.4g}")
    trace_h2 = np.trace(Hs @ Hs, axis1=1, axis2=2).real
    trajectory = [FlowState(float(a), M, float(o), float(t))
                  for a, M, o, t in zip(s, Hs, offs, trace_h2)]
    if not done:
        raise ConvergenceError(
            f"flow did not reach off-diagonal norm {tol:.3g} by s={s_max} "
            "(degenerate diagonal entries stall the generator)",
            residual=float(offs[-1]), trace=trajectory,
        )
    return trajectory


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
