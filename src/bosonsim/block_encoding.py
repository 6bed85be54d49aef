"""PREP/SEL linear combinations of unitaries and the Riemann-sum block
encoding of the truncated bosonic creation operator.

The LCU encoding is verified as a dense identity: with PREP|0⟩ carrying
amplitudes √β_ℓ/√Σβ and SEL = Σ_ℓ |ℓ⟩⟨ℓ|⊗U_ℓ, the ancilla-⟨0| block of
SEL equals H/Σβ.  The creation-operator encoding approximates the
amplitude f(λ) = √((λ+1) mod Λ)/√(Λ−1) by a Ξ-point Riemann sum of its
sign-function integral representation; the sign is decided by an exact
integer inequality, and the operator error is bounded by 2/Ξ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError


MAX_XI = 2**48  # beyond it the 2/Ξ bound nears the block's rounding and can be exceeded


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LcuEncoding:
    coefficients: np.ndarray
    unitaries: tuple
    prep: np.ndarray  # dense unitary, first column √β/√Σβ
    sel: np.ndarray  # block-diagonal Σ|ℓ⟩⟨ℓ|⊗U_ℓ
    normalization: float

    @property
    def block(self) -> np.ndarray:
        """(⟨0|PREP† ⊗ I)·SEL·(PREP|0⟩ ⊗ I) — equals H/Σβ."""
        d = self.unitaries[0].shape[0]
        v = np.kron(self.prep[:, 0].reshape(-1, 1), np.eye(d))  # (L·d) × d
        return v.conj().T @ self.sel @ v

    def target(self) -> np.ndarray:
        return sum(b * U for b, U in zip(self.coefficients, self.unitaries))

    def query_count(self, t: float, eps: float) -> int:
        """⌈Σβ·t + log(1/ε)⌉ PREP/SEL queries for time-t qubitized evolution."""
        if t < 0 or eps <= 0 or eps >= 1:
            raise ParameterError("need t >= 0 and 0 < eps < 1")
        return math.ceil(self.normalization * t + math.log(1.0 / eps))


def _unitary_with_first_column(col: np.ndarray) -> np.ndarray:
    """Complete a unit vector to a unitary via QR with sign fixing."""
    L = len(col)
    M = np.eye(L, dtype=complex)
    M[:, 0] = col
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))  # make Q[:,0] equal col exactly up to rounding
    # first diagonal of R is positive by construction of col's norm
    return Q


def lcu_encode(coefficients, unitaries) -> LcuEncoding:
    """Build the PREP/SEL pair for H = Σ β_ℓ U_ℓ and verify the block identity."""
    beta = np.asarray(coefficients, dtype=float)
    if beta.ndim != 1 or len(beta) == 0:
        raise ParameterError("need a non-empty coefficient list")
    if np.any(beta <= 0):
        raise ParameterError("LCU coefficients must be positive; fold signs "
                             "and phases into the unitaries")
    mats = [np.asarray(U, dtype=complex) for U in unitaries]
    if len(mats) != len(beta):
        raise ParameterError("coefficient/unitary count mismatch")
    d = mats[0].shape[0]
    for U in mats:
        if U.shape != (d, d):
            raise ParameterError("unitaries must share one dimension")
        if np.max(np.abs(U.conj().T @ U - np.eye(d))) > 1e-10:
            raise DomainError("matrix is not unitary to 1e-10")
    total = float(beta.sum())
    prep0 = np.sqrt(beta / total).astype(complex)
    prep = _unitary_with_first_column(prep0)
    L = len(beta)
    sel = np.zeros((L * d, L * d), dtype=complex)
    for ell, U in enumerate(mats):
        sel[ell * d:(ell + 1) * d, ell * d:(ell + 1) * d] = U
    enc = LcuEncoding(beta, tuple(mats), prep, sel, total)
    defect = np.max(np.abs(enc.block - enc.target() / total))
    if defect > 1e-10:
        raise DomainError(f"block identity violated ({defect:.3g})")
    return enc


def integral_sign_representation(f_values, fmax: float):
    """Sign-function integral representation f(λ) = ∫₀^fmax (−1)^{2x>fmax+f(λ)} dx.

    Returns one record per λ with the sign-flip threshold x* = (fmax+f)/2
    and the closed-form two-piece integral, which reproduces f exactly:
    (+1)·(fmax+f)/2 + (−1)·(fmax − (fmax+f)/2) = f.
    """
    f = np.asarray(f_values, dtype=float)
    if fmax <= 0:
        raise ParameterError("fmax must be positive")
    if np.any(f < 0) or np.any(f > fmax):
        raise DomainError("f values must lie in [0, fmax]")
    records = []
    for lam, val in enumerate(f):
        threshold = (fmax + val) / 2.0
        integral = threshold - (fmax - threshold)
        records.append({
            "lambda": lam,
            "f": float(val),
            "threshold": threshold,
            "integral": integral,
        })
    return records


def _sign_table(lam: int, capital_lambda: int, capital_xi: int) -> int:
    """Count of −1 samples: 2ξ > Ξ and (2ξ−Ξ)²(Λ−1) > Ξ²((λ+1) mod Λ).

    u = 2ξ − Ξ runs over [−Ξ, Ξ−2] in steps of 2, and the inequality holds
    exactly for u ≥ u0 = ⌊√(Ξ²·target // (Λ−1))⌋ + 1, so the count is
    closed form in exact integers instead of a loop over Ξ samples.
    """
    target = (lam + 1) % capital_lambda
    u0 = math.isqrt(capital_xi * capital_xi * target // (capital_lambda - 1)) + 1
    return max(0, (capital_xi - u0) // 2)


@dataclass(frozen=True)
class BosonBlockEncoding:
    capital_lambda: int
    capital_xi: int
    block: np.ndarray
    error_bound: float

    @property
    def target(self) -> np.ndarray:
        L = self.capital_lambda
        bdag = np.diag(np.sqrt(np.arange(1.0, L)), -1)
        return bdag / math.sqrt(L - 1)

    @property
    def measured_error(self) -> float:
        return float(np.linalg.norm(self.block - self.target, 2))

    def gate_cost(self) -> int:
        """Bit-operation count of one exact-integer inequality test.

        Squaring the (log₂Ξ+1)-bit offset, scaling by the log₂Λ-bit
        (Λ−1), forming Ξ²·target, and comparing — an
        O(logΛ·log²Ξ) = O(logΛ·log²(1/δ)) model.
        """
        n_xi = self.capital_xi.bit_length()
        n_lam = self.capital_lambda.bit_length()
        return n_xi * n_xi + 2 * n_xi * n_lam + n_lam * n_lam + 2 * (n_xi + n_lam)


def boson_block_encode(capital_lambda: int, capital_xi: int) -> BosonBlockEncoding:
    """Riemann-sum block encoding of b†/√(Λ−1) on a Λ-dimensional register.

    The encoded matrix is the cyclic shift λ → (λ+1) mod Λ weighted by the
    Ξ-sample sign sum; ties in the strict inequality take the +1 branch.
    """
    if not _is_power_of_two(capital_lambda) or capital_lambda < 2:
        raise ParameterError("Λ must be a power of 2, at least 2")
    if not _is_power_of_two(capital_xi) or not 2 <= capital_xi <= MAX_XI:
        raise ParameterError("Ξ must be a power of 2 from 2 to 2**48")
    L, Xi = capital_lambda, capital_xi
    B = np.zeros((L, L))
    for lam in range(L):
        minus = _sign_table(lam, L, Xi)
        amp = (Xi - 2 * minus) / Xi
        B[(lam + 1) % L, lam] = amp
    return BosonBlockEncoding(L, Xi, B, 2.0 / Xi)


def choose_xi(delta: float) -> int:
    """Smallest power of 2 with 2/Ξ ≤ δ; no accepted Ξ meets δ < 2/MAX_XI."""
    if not delta >= 2.0 / MAX_XI:
        raise ParameterError(f"delta={delta} is below 2/2**48, the bound at the largest Ξ")
    xi = 2
    while 2.0 / xi > delta:
        xi *= 2
    return xi
