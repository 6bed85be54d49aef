"""Bosonic coupled-cluster downfolding machinery.

Works in the fixed-particle-number Fock space of N bosons in M modes
(dimension C(M+N−1, N)).  Provides CC amplitude equations, the
similarity-transformed effective Hamiltonian, the moments-based energy
functional, and the five-rotation disentangled ansatz for the 3-level
2-boson model with its reverse-flow parameter extraction and the nested
macro/micro optimization loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize, root

from .encodings import FockSpace, occupation_sector
from .errors import ConvergenceError, DimensionError, DomainError, ParameterError
from .models import BoseHubbardParams, bose_hubbard_fock


def fci_dims(M: int, N: int) -> int:
    """Dimension of the N-boson, M-mode Fock space: C(M+N−1, N)."""
    if M < 1 or N < 1:
        raise ParameterError("need M >= 1 and N >= 1")
    return math.comb(M + N - 1, N)


class BosonFockSpace(FockSpace):
    """Fixed-N occupation basis for M modes, ordered descending."""

    def __init__(self, M: int, N: int):
        super().__init__(occupation_sector(M, N))
        self.M = M
        self.N = N

    def excitation_matrix(self, create, annihilate) -> np.ndarray:
        """Matrix of ∏ b†_{create} ∏ b_{annihilate} on the fixed-N space."""
        if len(create) != len(annihilate):
            raise ParameterError("operator must conserve particle number")
        return super().excitation_matrix(create, annihilate)

    def reference(self) -> np.ndarray:
        """(b†_0)^N |vac⟩ / √(N!): all particles in mode 0."""
        occ = (self.N,) + (0,) * (self.M - 1)
        return self.state(occ)

    @cached_property
    def duccsd_generators(self) -> tuple:
        """The five-rotation ansatz generators, built on first use; read-only."""
        if (self.M, self.N) != (3, 2):
            raise ParameterError("the five-rotation ansatz targets M=3, N=2")

        def anti(create, annihilate):
            E = self.excitation_matrix(create, annihilate)
            G = E - E.T
            G.flags.writeable = False
            return G

        return (
            ("r1", anti((1, 1), (0, 0))),
            ("r2", anti((1,), (0,))),
            ("s1", anti((2, 2), (0, 0))),
            ("s2", anti((2, 1), (0, 0))),
            ("s3", anti((2,), (0,))),
        )

    @cached_property
    def _generator_eigh(self) -> dict:
        """name -> (λ, V, V†) with iG = V·diag(λ)·V† (Hermitian: G is real antisymmetric)."""
        out = {}
        for name, G in self.duccsd_generators:
            lam, V = np.linalg.eigh(1j * G)
            out[name] = (lam, V, V.conj().T)
        return out

    def rotate(self, name: str, theta: float, x: np.ndarray) -> np.ndarray:
        """e^{θ·G}·x for the ansatz generator G called ``name``; x is a real vector or matrix.

        e^{θG} = V·diag(e^{−iθλ})·V† for every θ from one cached eigendecomposition
        (the eigenvector method for normal matrices); the product is real.
        """
        lam, V, Vh = self._generator_eigh[name]
        return ((V * np.exp(-1j * theta * lam)) @ (Vh @ x)).real


def bose_hubbard_fixed_n(space: BosonFockSpace, t, U, V, mu) -> np.ndarray:
    """Bose-Hubbard matrix on the fixed-N space (all pairs j > i)."""
    return bose_hubbard_fock(space, BoseHubbardParams(space.M, t=t, U=U, V=V, mu=mu))


# ---------------------------------------------------------------------------
# Coupled-cluster amplitude equations and effective Hamiltonians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Excitation:
    """b†_{a1}…b†_{ak} (b_0)^k with a sorted multiset of target modes."""

    targets: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.targets)

    def matrix(self, space: BosonFockSpace) -> np.ndarray:
        return space.excitation_matrix(self.targets, (0,) * self.rank)

    def is_internal(self, active_modes) -> bool:
        return all(a in active_modes for a in self.targets)


def excitation_basis(space: BosonFockSpace, max_rank: int | None = None) -> list[Excitation]:
    """All multisets of modes 1..M−1 of ranks 1..max_rank, excited out of mode 0."""
    out = []
    for k in range(1, (max_rank or space.N) + 1):
        for targets in combinations_with_replacement(range(1, space.M), k):
            out.append(Excitation(tuple(targets)))
    return out


def cluster_matrix(amplitudes, basis, space) -> np.ndarray:
    T = np.zeros((space.dim, space.dim))
    for t, exc in zip(amplitudes, basis):
        T += t * exc.matrix(space)
    return T


def solve_cc_amplitudes(H: np.ndarray, space: BosonFockSpace, basis: list[Excitation]):
    """Solve Q e^{−T} H e^{T}|Φ⟩ = 0 for the amplitudes of the given basis.

    Returns (amplitudes, energy, residual_norm); energy is
    ⟨Φ|e^{−T}He^{T}|Φ⟩.  Newton iteration starts from zero amplitudes,
    so it finds the solution continuously connected to the reference.
    hybr stops when the relative change of the amplitudes between
    iterates falls below 1e-10; a residual norm above 1e-8 raises
    ConvergenceError.
    """
    phi = space.reference()
    configs = []
    for exc in basis:
        v = exc.matrix(space) @ phi
        nrm = np.linalg.norm(v)
        if nrm < 1e-14:
            raise ParameterError(f"excitation {exc.targets} annihilates the reference")
        configs.append(v / nrm)
    C = np.array(configs)

    def residual(ts):
        T = cluster_matrix(ts, basis, space)
        w = expm(-T) @ (H @ (expm(T) @ phi))
        return C @ w

    sol = root(residual, np.zeros(len(basis)), method="hybr",
               options={"xtol": 1e-10, "maxfev": 200 * (len(basis) + 1)})
    res_norm = float(np.linalg.norm(residual(sol.x)))
    if res_norm > 1e-8:
        raise ConvergenceError(
            "coupled-cluster amplitude equations did not converge",
            residual=res_norm,
        )
    T = cluster_matrix(sol.x, basis, space)
    energy = float(np.real(phi @ (expm(-T) @ (H @ (expm(T) @ phi)))))
    return sol.x, energy, res_norm


@dataclass(frozen=True)
class EffectiveHamiltonian:
    matrix: np.ndarray  # dense on the active configurations
    config_indices: tuple[int, ...]  # rows of the full space retained
    unitary: bool


def build_heff(H: np.ndarray, space: BosonFockSpace, amplitudes,
               basis: list[Excitation], active_modes,
               unitary: bool = False) -> EffectiveHamiltonian:
    """(P+Q_int) e^{−T_ext} H e^{T_ext} (P+Q_int), or the e^{σ_ext} variant.

    T_ext keeps only the external amplitudes (those with at least one
    target mode outside the active set); the retained configurations are
    the reference plus every basis state whose occupation lives entirely
    on the active modes ∪ {0}.
    """
    active = set(active_modes)
    external = [(t, exc) for t, exc in zip(amplitudes, basis) if not exc.is_internal(active)]
    T_ext = cluster_matrix([t for t, _ in external], [exc for _, exc in external], space)
    gen = T_ext - T_ext.T if unitary else T_ext
    Ht = expm(-gen) @ H @ expm(gen)
    keep = [
        i for i, occ in enumerate(space.basis)
        if all(n == 0 or m == 0 or m in active for m, n in enumerate(occ))
    ]
    sub = Ht[np.ix_(keep, keep)]
    return EffectiveHamiltonian(sub, tuple(keep), unitary)


def mmcc_energy(H: np.ndarray, T: np.ndarray, phi: np.ndarray,
                psi: np.ndarray, qa_configs=None):
    """Moments-based energy functional and its moment-expansion form.

    direct = ⟨Ψ|H e^{T}|Φ⟩ / ⟨Ψ|e^{T}|Φ⟩; the moment form adds to the
    CC energy E_A the correction ⟨Ψ|e^{T} Q_R M|Φ⟩/⟨Ψ|e^{T}|Φ⟩ with
    M|Φ⟩ = e^{−T}He^{T}|Φ⟩ and Q_R the projector on configurations
    outside the reference and the parent excitation manifold.
    """
    eT = expm(T)
    denom = complex(np.vdot(psi, eT @ phi))
    if abs(denom) < 1e-10:
        raise DomainError("vanishing overlap ⟨Ψ|e^T|Φ⟩")
    direct = complex(np.vdot(psi, H @ (eT @ phi))) / denom
    m_vec = expm(-T) @ (H @ (eT @ phi))
    e_a = complex(np.vdot(phi, m_vec))
    qr = m_vec - phi * np.vdot(phi, m_vec)
    if qa_configs is not None:
        for c in qa_configs:
            qr = qr - c * np.vdot(c, qr)
    moment = e_a + complex(np.vdot(psi, eT @ qr)) / denom
    return {"direct": direct, "moment": moment, "cc_energy": e_a}


# ---------------------------------------------------------------------------
# Disentangled five-rotation ansatz for the 3-level, 2-boson model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnsatzParams:
    """Givens angles: (r1, r2) act between modes 0-1, (s1, s2, s3) reach mode 2."""

    r1: float = 0.0
    r2: float = 0.0
    s1: float = 0.0
    s2: float = 0.0
    s3: float = 0.0

    def as_list(self):
        return [self.r1, self.r2, self.s1, self.s2, self.s3]


def apply_ansatz(params: AnsatzParams, space: BosonFockSpace) -> np.ndarray:
    """|φ⟩ = e^{s3σ}e^{s2σ}e^{s1σ}e^{r2σ}e^{r1σ}|200⟩."""
    psi = space.reference()
    for (name, _), angle in zip(space.duccsd_generators, params.as_list()):
        psi = space.rotate(name, angle, psi)
    return psi


def _wrap_angle(theta: float) -> float:
    """Wrap to the principal range (−π/2, π/2]."""
    while theta > math.pi / 2:
        theta -= math.pi
    while theta <= -math.pi / 2:
        theta += math.pi
    return theta


def _spin1_elimination_angle(d_low, d_mid, d_high):
    """Angle θ zeroing the middle amplitude of a three-level ladder rotation.

    Solves cos(2θ)·d_mid = (√2/2)·sin(2θ)·(d_low − d_high) via the
    quadratic in tan θ; of the two real roots, the one of smaller
    magnitude is returned.
    """
    if abs(d_mid) < 1e-14:
        return 0.0
    weight = math.sqrt(2.0)  # both steps of the two-boson ladder b†_m b_0 have element √2
    diff = d_low - d_high
    disc = math.sqrt(weight * weight * diff * diff + 4.0 * d_mid * d_mid)
    roots = [
        math.atan((-weight * diff + disc) / (2.0 * d_mid)),
        math.atan((-weight * diff - disc) / (2.0 * d_mid)),
    ]
    return min(roots, key=abs)


def decompose_state(psi: np.ndarray, space: BosonFockSpace) -> AnsatzParams:
    """Reverse flow: peel off s3, s2, s1, r2, r1 to recover ansatz angles.

    Requires a real, normalized 6-dimensional state; the returned angles
    satisfy apply_ansatz(params) = ±ψ.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (space.dim,):
        raise DimensionError("expected a state on the 3-level, 2-boson space")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ParameterError("state must be normalized")
    idx = space.index
    i200, i110, i020 = idx[(2, 0, 0)], idx[(1, 1, 0)], idx[(0, 2, 0)]
    i101, i011, i002 = idx[(1, 0, 1)], idx[(0, 1, 1)], idx[(0, 0, 2)]

    # s3: zero |101⟩ within the (|200⟩, |101⟩, |002⟩) ladder
    s3 = _spin1_elimination_angle(psi[i200], psi[i101], psi[i002])
    psi = space.rotate("s3", -s3, psi)
    # s2: zero |011⟩ (pure 2-level rotation with |200⟩, angle √2·s2);
    # wrapping the rotation angle by π may flip the state's overall sign,
    # which the global-sign convention absorbs
    s2 = _wrap_angle(math.atan2(psi[i011], psi[i200])) / math.sqrt(2.0)
    psi = space.rotate("s2", -s2, psi)
    # s1: zero |002⟩ (2-level rotation with |200⟩, angle 2·s1)
    s1 = _wrap_angle(math.atan2(psi[i002], psi[i200])) / 2.0
    psi = space.rotate("s1", -s1, psi)
    # r2: zero |110⟩ within the (|200⟩, |110⟩, |020⟩) ladder
    r2 = _spin1_elimination_angle(psi[i200], psi[i110], psi[i020])
    psi = space.rotate("r2", -r2, psi)
    # r1: zero |020⟩ (2-level rotation with |200⟩, angle 2·r1)
    r1 = _wrap_angle(math.atan2(psi[i020], psi[i200])) / 2.0
    return AnsatzParams(r1, r2, s1, s2, s3)


def nested_optimize(H: np.ndarray, space: BosonFockSpace):
    """Alternating macro/micro optimization of the five-rotation ansatz.

    Micro: simplex minimization of ⟨φ|H|φ⟩ over the mode-2 angles
    (s1, s2, s3) at fixed (r1, r2).  Macro: hold the outer unitary
    (the s rotations) constant, build the 3×3 effective Hamiltonian on
    span{|200⟩, |110⟩, |020⟩}, diagonalize, and extract (r1, r2) from
    the lowest eigenvector by the two-parameter reverse flow.

    Returns {"energy", "params", "H_eff", "trace"}; trace entries are
    (iteration, |E − E_exact|).
    """
    idx = space.index
    active = [idx[(2, 0, 0)], idx[(1, 1, 0)], idx[(0, 2, 0)]]
    e_exact = float(np.linalg.eigvalsh(H)[0])

    def energy(params: AnsatzParams) -> float:
        v = apply_ansatz(params, space)
        return float(v @ H @ v)

    params = AnsatzParams()
    e_prev = math.inf
    trace = []
    h_eff = None
    for it in range(1, 61):  # at most 60 macro iterations
        # micro sweep over the s angles
        def micro(svec):
            return energy(AnsatzParams(params.r1, params.r2, *svec))

        res = minimize(micro, [params.s1, params.s2, params.s3],
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 4000})
        params = AnsatzParams(params.r1, params.r2, *res.x)
        # macro update: active-space diagonalization at fixed outer unitary
        outer = np.eye(space.dim)
        for name in ("s1", "s2", "s3"):  # e^{s3σ}e^{s2σ}e^{s1σ}
            outer = space.rotate(name, getattr(params, name), outer)
        Ht = outer.T @ H @ outer
        h_eff = Ht[np.ix_(active, active)]
        w, V = np.linalg.eigh(h_eff)
        vec = V[:, 0]
        if vec[0] < 0:
            vec = -vec
        full = np.zeros(space.dim)
        for i, a in enumerate(active):
            full[a] = vec[i]
        r2 = _spin1_elimination_angle(full[active[0]], full[active[1]], full[active[2]])
        tmp = space.rotate("r2", -r2, full)
        r1 = 0.5 * math.atan2(tmp[active[2]], tmp[active[0]])
        params = AnsatzParams(r1, r2, params.s1, params.s2, params.s3)
        e_now = energy(params)
        trace.append((it, abs(e_now - e_exact)))
        if abs(e_now - e_prev) < 1e-10:  # converged
            break
        e_prev = e_now
    else:
        raise ConvergenceError("nested optimization hit the iteration cap", trace=trace)
    return {"energy": e_now, "params": params, "H_eff": h_eff, "trace": trace}
