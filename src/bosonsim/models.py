"""Model Hamiltonian builders: Bose-Hubbard, spin-boson, and Holstein.

Each builder produces an :class:`EncodedHamiltonian` carrying the
Pauli-compiled operator and its register layout.  Its ``fock`` matrix is
an independent oracle assembled from occupation-number rules on the
layout's :class:`~bosonsim.encodings.FockSpace`, built on first use.  The
two forms must agree under the layout's basis identification — that
equivalence is the module's master invariant and is exercised by the
test suite at every dense-testable size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encodings import (
    FockSpace,
    Register,
    RegisterLayout,
    boson_ops_binary,
    boson_ops_unary,
    embed,
    fermion_ops_jw,
)
from .errors import ParameterError
from .pauli import PauliSum
from .trunc_bounds import verify_conditions

# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------


def _require_integers(**fields):
    """ParameterError naming the field unless each of its values is an int or a
    numpy integer: a bool or 2.5 would size a register silently."""
    for name, values in fields.items():
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class BoseHubbardParams:
    n_sites: int
    t: float = 0.0
    U: float = 0.0
    V: float = 0.0
    mu: float | tuple = 0.0
    Nb: int = 1

    def mu_list(self) -> list[float]:
        if np.isscalar(self.mu):
            return [float(self.mu)] * self.n_sites
        mus = list(self.mu)
        if len(mus) != self.n_sites:
            raise ParameterError("per-site mu must have n_sites entries")
        return [float(m) for m in mus]

    def __post_init__(self):
        _require_integers(n_sites=[self.n_sites], Nb=[self.Nb])
        if self.n_sites < 1 or self.Nb < 1:
            raise ParameterError("need n_sites >= 1 and Nb >= 1")


@dataclass(frozen=True)
class SpinBosonParams:
    delta: float
    epsilon: float
    omegas: tuple
    couplings: tuple
    cutoffs: tuple

    def __post_init__(self):
        if not (len(self.omegas) == len(self.couplings) == len(self.cutoffs)):
            raise ParameterError("omegas, couplings, cutoffs must align")
        _require_integers(cutoffs=self.cutoffs)
        if any(c < 1 for c in self.cutoffs):
            raise ParameterError("cutoffs must be >= 1")


@dataclass(frozen=True)
class HolsteinParams:
    n_sites: int
    v: float = 1.0
    omega: float = 1.0
    g: float = 0.0
    Nb: int = 1
    boundary: str = "periodic"

    def __post_init__(self):
        _require_integers(n_sites=[self.n_sites], Nb=[self.Nb])
        if self.n_sites < 2:
            raise ParameterError("Holstein chain needs n_sites >= 2")
        if self.boundary not in ("periodic", "open"):
            raise ParameterError("boundary must be 'periodic' or 'open'")


@dataclass(frozen=True)
class EncodedHamiltonian:
    pauli: PauliSum
    layout: RegisterLayout
    kind: str
    params: object = None

    @cached_property
    def fock(self) -> np.ndarray:
        """The Fock-space oracle on the layout's tensor basis, built on first use."""
        build = {"bose_hubbard": bose_hubbard_fock, "spin_boson": spin_boson_fock,
                 "holstein": holstein_fock}[self.kind]
        return build(self.layout.fock_space(), self.params).astype(complex)

    def identification_defect(self) -> float:
        """Max deviation between the two forms on the encoded subspace."""
        rows = self.layout.encoded_rows()
        return float(np.max(np.abs(self.pauli.to_matrix()[np.ix_(rows, rows)] - self.fock)))


# ---------------------------------------------------------------------------
# Fock-space building blocks (oracle path, no Pauli algebra involved)
# ---------------------------------------------------------------------------


def mode_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(annihilation, creation, number) for one truncated mode."""
    d = cutoff + 1
    b = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    return b, b.conj().T, np.diag(np.arange(float(d)))


def embed_fock(op: np.ndarray, dims, index: int) -> np.ndarray:
    """Kronecker-embed a single-factor operator into a tensor-product space."""
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, op if i == index else np.eye(d))
    return out


def bose_hubbard_fock(space: FockSpace, p: BoseHubbardParams) -> np.ndarray:
    """Bose-Hubbard matrix (see :func:`build_bose_hubbard`) on any occupation basis."""
    mus = p.mu_list()
    n = space.occupations.astype(float)
    diag = np.zeros(space.dim)
    H = np.zeros((space.dim, space.dim))
    for i in range(p.n_sites):
        diag += -mus[i] * n[:, i] + 0.5 * p.U * (n[:, i] * n[:, i] - n[:, i])
        for j in range(i + 1, p.n_sites):
            diag += p.V * n[:, i] * n[:, j]
            if p.t:
                hop = space.excitation_matrix((i,), (j,))
                H += -p.t * (hop + hop.T)
    return H + np.diag(diag)


def spin_boson_fock(space: FockSpace, p: SpinBosonParams) -> np.ndarray:
    """Spin-boson matrix (see :func:`build_spin_boson`); mode 0 is the spin."""
    X = space.excitation_matrix((0,), ()) + space.excitation_matrix((), (0,))
    H = p.delta * X + 0.5 * p.epsilon * np.diag(1.0 - 2.0 * space.occupations[:, 0])
    for m, (w, g) in enumerate(zip(p.omegas, p.couplings), start=1):
        H += w * space.number_matrix(m)
        # X (b_m + b†_m), one ladder word per pair of spin and mode steps
        H += 0.5 * g * w * sum(space.excitation_matrix(c, a) for c, a in (
            ((0, m), ()), ((0,), (m,)), ((m,), (0,)), ((), (0, m))))
    return H


def holstein_fock(space: FockSpace, p: HolsteinParams) -> np.ndarray:
    """Holstein matrix (see :func:`build_holstein`); fermion modes come first."""
    H = np.zeros((space.dim, space.dim))
    for i, j in holstein_pairs(p):
        hop = space.excitation_matrix((i,), (j,))
        H += -p.v * (hop + hop.T)
    for i in range(p.n_sites):
        b = p.n_sites + i
        H += p.omega * space.number_matrix(b)
        H += p.g * p.omega * (space.excitation_matrix((i, b), (i,))
                              + space.excitation_matrix((i,), (i, b)))
    return H


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _boson_pauli_ops(reg: Register) -> dict[str, PauliSum]:
    """Ladder operators of one boson register, at the width its layout gave it."""
    if reg.encoding == "unary":
        return boson_ops_unary(reg.cutoff)
    return boson_ops_binary(reg.width)


def build_bose_hubbard(p: BoseHubbardParams, encoding: str = "binary") -> EncodedHamiltonian:
    """General Bose-Hubbard Hamiltonian over all site pairs j > i.

    H = Σ_i [−μ_i n̂_i + (U/2) n̂_i(n̂_i − 1)] − t Σ_{j>i} (b†_i b_j + h.c.)
        + V Σ_{j>i} n̂_i n̂_j
    """
    layout = RegisterLayout.build(
        [{"kind": "boson", "encoding": encoding, "cutoff": p.Nb}] * p.n_sites
    )
    mus = p.mu_list()
    nq = layout.total_qubits
    local = _boson_pauli_ops(layout.registers[0])
    create = [embed(local["creation"], layout, i) for i in range(p.n_sites)]
    annih = [embed(local["annihilation"], layout, i) for i in range(p.n_sites)]
    number = [embed(local["number"], layout, i) for i in range(p.n_sites)]

    H = PauliSum.zero(nq)
    for i in range(p.n_sites):
        H = H + (-mus[i]) * number[i]
        if p.U:
            H = H + (0.5 * p.U) * (number[i] * number[i] - number[i])
    for i in range(p.n_sites):
        for j in range(i + 1, p.n_sites):
            if p.t:
                H = H + (-p.t) * (create[i] * annih[j] + create[j] * annih[i])
            if p.V:
                H = H + p.V * (number[i] * number[j])
    return EncodedHamiltonian(H.simplify(), layout, "bose_hubbard", p)


def build_spin_boson(p: SpinBosonParams, encoding: str = "binary") -> EncodedHamiltonian:
    """Two-level system coupled linearly to harmonic modes.

    H = Δ X + (ε/2) Z + Σ_i ω_i n̂_i + (X/2) Σ_i g_i ω_i (b†_i + b_i)
    """
    specs = [{"kind": "spin"}] + [
        {"kind": "boson", "encoding": encoding, "cutoff": c} for c in p.cutoffs
    ]
    layout = RegisterLayout.build(specs)
    X = embed(PauliSum.from_term("X"), layout, 0)
    Z = embed(PauliSum.from_term("Z"), layout, 0)
    H = p.delta * X + (0.5 * p.epsilon) * Z
    ladders = {}  # (n̂, b† + b) per register width, kept for this build only
    for m, (w, g) in enumerate(zip(p.omegas, p.couplings)):
        reg = layout.registers[m + 1]
        if reg.width not in ladders:
            local = _boson_pauli_ops(reg)
            ladders[reg.width] = (local["number"], local["creation"] + local["annihilation"])
        nm, xm = (embed(op, layout, m + 1) for op in ladders[reg.width])
        H = H + w * nm + (0.5 * g * w) * (X * xm)
    return EncodedHamiltonian(H.simplify(), layout, "spin_boson", p)


def holstein_pairs(p: HolsteinParams) -> list[tuple[int, int]]:
    pairs = [(i, i + 1) for i in range(p.n_sites - 1)]
    if p.boundary == "periodic" and p.n_sites > 2:
        pairs.append((p.n_sites - 1, 0))
    return pairs


def build_holstein(p: HolsteinParams, encoding: str = "binary") -> EncodedHamiltonian:
    """1-D Holstein chain: fermion registers first, then boson registers.

    H = −v Σ_⟨i,j⟩ (f†_i f_j + f†_j f_i) + ω Σ_i n̂_i + gω Σ_i f†_i f_i (b†_i + b_i)
    """
    specs = [{"kind": "fermion"}] * p.n_sites + [
        {"kind": "boson", "encoding": encoding, "cutoff": p.Nb}
    ] * p.n_sites
    layout = RegisterLayout.build(specs)
    nq = layout.total_qubits
    pairs = holstein_pairs(p)

    fml = [fermion_ops_jw(i, p.n_sites) for i in range(p.n_sites)]
    pad = PauliSum.identity(nq - p.n_sites)
    fc = [ops["creation"].tensor(pad) for ops in fml]
    fa = [ops["annihilation"].tensor(pad) for ops in fml]
    local = _boson_pauli_ops(layout.registers[p.n_sites])
    position = local["creation"] + local["annihilation"]

    H = PauliSum.zero(nq)
    for i, j in pairs:
        H = H + (-p.v) * (fc[i] * fa[j] + fc[j] * fa[i])
    for i in range(p.n_sites):
        nb = embed(local["number"], layout, p.n_sites + i)
        xb = embed(position, layout, p.n_sites + i)
        H = H + p.omega * nb + (p.g * p.omega) * (fc[i] * fa[i] * xb)
    return EncodedHamiltonian(H.simplify(), layout, "holstein", p)


# ---------------------------------------------------------------------------
# Occupation-resolved split and walk observables
# ---------------------------------------------------------------------------


def mode_occupations(model: EncodedHamiltonian, mode_index: int) -> np.ndarray:
    """Occupation of one boson register for every Fock tensor basis index."""
    bosons = [k for k, r in enumerate(model.layout.registers) if r.kind == "boson"]
    if not bosons:
        raise ParameterError("model has no boson register")
    if not 0 <= mode_index < len(bosons):
        raise ParameterError(f"mode_index {mode_index} out of range")
    return model.layout.fock_space().occupations[:, bosons[mode_index]]


def hw_hr_split(model: EncodedHamiltonian, mode_index: int = 0):
    """Split H = H_w + H_r relative to one mode's occupation ladder.

    H_w collects the blocks that change the occupation by exactly ±1 and
    H_r the occupation-conserving blocks.  Returns (H_w, H_r, χ, r) with
    r = ½; χ is the model's analytic weight-growth constant where known
    (2gω for Holstein, gω per mode for spin-boson) and a numerical fit
    otherwise.
    """
    occ = mode_occupations(model, mode_index)
    H = model.fock
    Hr = np.where(occ[:, None] == occ[None, :], H, 0.0)
    Hw = H - Hr
    # raises ConditionViolation where H couples occupations differing by more than 1
    fitted = verify_conditions(Hw, Hr, occ, int(occ.max()) - 1)["fitted_chi"]
    p = model.params
    if model.kind == "holstein":
        chi = 2.0 * p.g * p.omega
    elif model.kind == "spin_boson":
        chi = abs(p.couplings[mode_index] * p.omegas[mode_index])
    else:
        chi = fitted
    return Hw, Hr, chi, 0.5


def walk_observables(psi: np.ndarray, annihilators: list[np.ndarray]):
    """Two-walker correlation Γ_pq = ⟨b†_p b†_q b_q b_p⟩ and densities ⟨n̂_p⟩."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ParameterError("state must be normalized")
    n = len(annihilators)
    gamma = np.zeros((n, n))
    dens = np.zeros(n)
    for p in range(n):
        bp_psi = annihilators[p] @ psi
        dens[p] = float(np.real(np.vdot(bp_psi, bp_psi)))
        for q in range(n):
            v = annihilators[q] @ bp_psi
            gamma[p, q] = float(np.real(np.vdot(v, v)))
    return gamma, dens
