"""Qubit representations of truncated boson and fermion ladder operators.

Two boson mappings are provided:

* unary — occupation ``n`` is the one-hot string with qubit ``n`` set
  (``Nb + 1`` qubits for cutoff ``Nb``);
* binary — occupation ``n`` is its binary representation, MSB first
  (``ceil(log2(Nb + 1))`` qubits).

Fermions use the Jordan-Wigner transformation with Z parity prefixes.
:class:`FockSpace` is the qubit-free reference: occupation bases (tensor,
fixed-N, bounded-N) whose ladder operators follow occupation rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DimensionError, DomainError, ParameterError
from .pauli import PauliSum, ladder


def _ladder_set(creation: PauliSum, number: PauliSum) -> dict[str, PauliSum]:
    return {"creation": creation.simplify(), "annihilation": creation.adjoint().simplify(),
            "number": number.simplify()}


def boson_ops_unary(Nb: int) -> dict[str, PauliSum]:
    """Truncated boson operators in the unary (one-hot) mapping.

    creation = Σ_{n=0}^{Nb-1} √(n+1) (+)_n ⊗ (−)_{n+1}, identity elsewhere,
    so that b†|n⟩ = √(n+1)|n+1⟩ on one-hot basis states.
    """
    if Nb < 1:
        raise ParameterError("unary cutoff Nb must be >= 1")
    width = Nb + 1
    creation = PauliSum.zero(width)
    for n in range(Nb):
        op = (PauliSum.identity(n).tensor(ladder("plus")).tensor(ladder("minus"))
              .tensor(PauliSum.identity(width - n - 2)))
        creation = creation + math.sqrt(n + 1) * op
    return _ladder_set(creation, creation * creation.adjoint())


def _outer_sum(weighted, m: int) -> PauliSum:
    """Σ w·|r⟩⟨c| over the (w, r, c) given, on m qubits, bits MSB-first, with
    |r⟩⟨c| = 2^{−m} Σ_z i^{|x∧z|} (−1)^{|r∧z|} P(x, z), x = r ⊕ c (Sawaya et al.,
    npj Quantum Inf. 6, 49, 2020).  Added in the order given, z ascending, a key
    dropped where its sum reaches 0: the keys, their order and coefficients of
    adding the qubit-by-qubit tensor products of 1-qubit outer products."""
    h = 0.5**m
    units = (complex(h, 0.0), complex(0.0, h), complex(-h, 0.0), complex(0.0, -h))
    acc: dict[tuple[int, int], complex] = {}
    for w, r, c in weighted:
        x = r ^ c
        for z in range(1 << m):
            k = (x, z)
            s = acc.get(k, 0.0) + w * units[((x & z).bit_count() + 2 * (r & z).bit_count()) & 3]
            if s:
                acc[k] = s
            else:
                del acc[k]
    return PauliSum._of(acc, m)


def boson_ops_binary(Nq: int) -> dict[str, PauliSum]:
    """Truncated boson operators in the binary mapping on Nq qubits.

    The register cutoff is 2^Nq − 1; creation = Σ √(n+1)|n+1⟩⟨n| and
    number = Σ n|n⟩⟨n| with the occupation read MSB-first.
    """
    if Nq < 1:
        raise ParameterError("binary register needs Nq >= 1")
    top = 2**Nq - 1
    return _ladder_set(_outer_sum(((math.sqrt(n + 1), n + 1, n) for n in range(top)), Nq),
                       _outer_sum(((float(n), n, n) for n in range(1, top + 1)), Nq))


def fermion_ops_jw(site_index: int, n_sites: int) -> dict[str, PauliSum]:
    """Jordan-Wigner creation/annihilation for one site of a chain.

    creation = Z^⊗site ⊗ (−) ⊗ I^⊗rest; |1⟩ marks an occupied site.
    """
    if not 0 <= site_index < n_sites:
        raise ParameterError(
            f"site_index {site_index} out of range for {n_sites} sites"
        )
    op = (PauliSum.from_term("Z" * site_index).tensor(ladder("minus"))
          .tensor(PauliSum.identity(n_sites - site_index - 1)))
    return {"creation": op, "annihilation": op.adjoint()}


# ---------------------------------------------------------------------------
# Register layouts
# ---------------------------------------------------------------------------

_KINDS = ("spin", "fermion", "boson")


@dataclass(frozen=True)
class Register:
    kind: str
    encoding: str | None  # unary|binary for bosons, None otherwise
    cutoff: int  # logical cutoff for bosons; 1 for spin/fermion
    offset: int  # first qubit index
    width: int  # number of qubits

    @property
    def fock_dim(self) -> int:
        if self.kind == "boson":
            return self.cutoff + 1
        return 2


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered registers with disjoint, contiguous qubit ranges."""

    registers: tuple[Register, ...] = field(default_factory=tuple)

    @staticmethod
    def build(specs: list[dict]) -> "RegisterLayout":
        """Assign qubits deterministically from ordered {kind, encoding, cutoff}."""
        regs = []
        offset = 0
        for spec in specs:
            kind = spec["kind"]
            if kind not in _KINDS:
                raise ParameterError(f"unknown register kind {kind!r}")
            if kind == "boson":
                encoding = spec.get("encoding", "binary")
                cutoff = int(spec["cutoff"])
                if cutoff < 1:
                    raise ParameterError("boson cutoff must be >= 1")
                if encoding == "unary":
                    width = cutoff + 1
                elif encoding == "binary":
                    width = max(1, math.ceil(math.log2(cutoff + 1)))
                    # full binary register: round the cutoff up
                    cutoff = 2**width - 1
                else:
                    raise ParameterError(f"unknown encoding {encoding!r}")
            else:
                encoding, cutoff, width = None, 1, 1
            regs.append(Register(kind, encoding, cutoff, offset, width))
            offset += width
        return RegisterLayout(tuple(regs))

    @property
    def total_qubits(self) -> int:
        return sum(r.width for r in self.registers)

    @property
    def fock_dims(self) -> tuple[int, ...]:
        return tuple(r.fock_dim for r in self.registers)

    def fock_space(self) -> "FockSpace":
        """Tensor Fock basis of the registers, fermion registers marked."""
        fermions = [k for k, r in enumerate(self.registers) if r.kind == "fermion"]
        return FockSpace.tensor(self.fock_dims, fermions)

    def encoded_rows(self) -> np.ndarray:
        """Qubit basis index of each state of :meth:`fock_space` (first register slowest).

        The identification V maps Fock state k to qubit state ``rows[k]``, a
        0/1 column selection, so V†MV is M restricted to these rows and columns.
        A unary register writes occupation n as ``1 << (width − 1 − n)``, any
        other register writes n itself.
        """
        occupations = self.fock_space().occupations
        rows = np.zeros(len(occupations), dtype=np.int64)
        for reg, occ in zip(self.registers, occupations.T):
            code = 1 << (reg.width - 1 - occ) if reg.encoding == "unary" else occ
            rows = (rows << reg.width) | code
        return rows


def embed(local_op: PauliSum, layout: RegisterLayout, register_id: int) -> PauliSum:
    """Place a register-local operator into the full layout, identity elsewhere."""
    reg = layout.registers[register_id]
    if local_op.qubit_count != reg.width:
        raise DimensionError(
            f"operator has {local_op.qubit_count} qubits, register {register_id} "
            f"has width {reg.width}"
        )
    left = PauliSum.identity(reg.offset)
    right = PauliSum.identity(layout.total_qubits - reg.offset - reg.width)
    return left.tensor(local_op).tensor(right)


# ---------------------------------------------------------------------------
# Fock bases with occupation-rule ladder operators
# ---------------------------------------------------------------------------


def occupation_sector(M: int, N: int, bounded: bool = False) -> list[tuple[int, ...]]:
    """Occupations of M modes holding N bosons (at most N if bounded), descending."""
    if M < 1 or N < 0:
        raise ParameterError("need M >= 1 and N >= 0")
    if bounded:  # a slack mode takes up the difference to N
        return [occ[:-1] for occ in _sector(M + 1, N)]
    return _sector(M, N)


def _sector(M: int, N: int) -> list[tuple[int, ...]]:
    """Every way to put N bosons in M modes, in descending lexicographic order.

    The successor of an occupation moves one boson out of the last mode k < M−1
    that holds any into mode k+1, together with everything in the last mode.
    """
    occ, out = [N] + [0] * (M - 1), []
    while True:
        out.append(tuple(occ))
        k = M - 2
        while k >= 0 and not occ[k]:
            k -= 1
        if k < 0:
            return out
        last, occ[-1] = occ[-1], 0
        occ[k] -= 1
        occ[k + 1] = last + 1


class FockSpace:
    """Occupation basis with ladder operators built from occupation rules.

    ``basis`` lists one occupation tuple per state and ``index`` maps each
    tuple to its position.  Every operator comes from
    :meth:`excitation_matrix`: √n factors, a Jordan-Wigner sign on the
    modes listed in ``fermions``, and images outside the basis dropped, so
    a truncated basis yields truncated ladders.
    """

    def __init__(self, basis, fermions=()):
        self.basis = [tuple(occ) for occ in basis]
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.fermions = tuple(sorted(fermions))

    @staticmethod
    def tensor(dims, fermions=()) -> "FockSpace":
        """Tensor product of per-mode dimensions, first mode slowest."""
        return FockSpace(product(*(range(d) for d in dims)), fermions)

    @cached_property
    def occupations(self) -> np.ndarray:
        """(dim, modes) integer array of the basis occupations."""
        return np.array(self.basis, dtype=int).reshape(self.dim, -1)

    def state(self, occ) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.index[tuple(occ)]] = 1.0
        return v

    def number_matrix(self, mode: int) -> np.ndarray:
        return np.diag(self.occupations[:, mode].astype(float))

    def excitation_matrix(self, create, annihilate) -> np.ndarray:
        """Matrix of ∏ a†_{create} ∏ a_{annihilate}.

        Each basis state walks the word once in acting order (rightmost factor
        first).  A factor on mode m takes √n from the running occupations and,
        on a fermion mode, a sign (−1) per occupied fermion mode before m.
        """
        out = np.zeros((self.dim, self.dim))
        word = [(m, step, m in self.fermions) for m, step in
                reversed([(m, 1) for m in create] + [(m, -1) for m in annihilate])]
        for col, occ in enumerate(self.basis):
            ns, amp = list(occ), 1.0
            for m, step, fermion in word:
                n = ns[m] if step < 0 else ns[m] + 1
                if not n:  # a on an empty mode
                    break
                amp *= math.sqrt(n)
                if fermion and sum(ns[f] for f in self.fermions if f < m) % 2:
                    amp = -amp
                ns[m] += step
            else:
                row = self.index.get(tuple(ns))
                if row is not None:  # else the image leaves the basis
                    out[row, col] += amp
        return out


# ---------------------------------------------------------------------------
# Normal modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalModeDecomposition:
    frequencies: np.ndarray  # ω_j >= 0
    unitary: np.ndarray  # columns are normal-mode vectors
    convention: str = "mass-scaled coordinates q_j = sqrt(M_j) Q_j, hbar = 1"


def normal_modes(V: np.ndarray, masses) -> NormalModeDecomposition:
    """Diagonalize the mass-scaled force-constant matrix v_jk = V_jk/√(M_j M_k)."""
    V = np.asarray(V, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionError("V must be square")
    if masses.shape != (V.shape[0],):
        raise DimensionError("one mass per coordinate required")
    if np.any(masses <= 0):
        raise ParameterError("masses must be positive")
    if np.max(np.abs(V - V.T)) > 1e-10:
        raise DomainError("V must be symmetric within 1e-10")
    scale = 1.0 / np.sqrt(masses)
    v = V * np.outer(scale, scale)
    evals, U = np.linalg.eigh(v)
    if np.min(evals) < -1e-8:
        raise DomainError("v is not positive semidefinite")
    evals = np.clip(evals, 0.0, None)
    return NormalModeDecomposition(np.sqrt(evals), U)
