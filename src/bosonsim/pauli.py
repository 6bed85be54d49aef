"""Exact symbolic algebra over tensor products of Pauli and ladder operators.

Operators are linear combinations of Pauli strings, each stored in its
binary symplectic form (Aaronson & Gottesman, PRA 70, 052328): X or Y sets
a bit of ``x_mask``, Y or Z a bit of ``z_mask``.  Qubit 0 is the most
significant bit (bit n−1 of a basis index), the leftmost tensor factor and
the leftmost letter of the text form over {I, X, Y, Z}.  Since Y = iXZ per
qubit, P|k⟩ = c·i^{#Y}·(−1)^{|k ∧ z_mask|}·|k ⊕ x_mask⟩, and the product of
two strings XORs their masks; the strings of a sum that share an x_mask fill
one signed diagonal of its sparse form.  Letters appear only where callers
read or write them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import CapacityError, DimensionError, ParameterError

PRUNE_TOL = 1e-12
DENSE_LIMIT = 14  # qubits of the largest dense operator

_NOT_PAULI = str.maketrans("", "", "IXYZ")  # deletes the valid letters
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_I_POWERS = (1, 1j, -1, -1j)
_SIGNS = np.array([1, -1])  # (−1)^parity


def require_capacity(shape, itemsize: int, what: str):
    """CapacityError, before anything is allocated, if arrays of `shape` with
    `itemsize`-byte entries would outgrow one 2**DENSE_LIMIT-row complex matrix."""
    nbytes, limit = itemsize * math.prod(shape), 16 * 4**DENSE_LIMIT
    if nbytes > limit:
        raise CapacityError(f"{what} of shape {tuple(shape)} needs {nbytes} bytes, "
                            f"which exceeds dense limit {limit}")


def require_letters(letters: str):
    """ParameterError unless every letter is one of I, X, Y, Z."""
    if letters.translate(_NOT_PAULI):
        raise ParameterError(
            f"invalid Pauli letters: {sorted(set(letters.translate(_NOT_PAULI)))}")


def _mask(letters: str, bits) -> int:
    return int(letters.translate(bits) or "0", 2)


def _nonzero(terms: dict) -> dict:
    """The nonzero terms, each coefficient added to 0.0 so that −0.0 parts become +0.0."""
    return {k: c for k, v in terms.items() if (c := 0.0 + complex(v)) != 0}


def _letters(x: int, z: int, n: int) -> str:
    """The n letters of the string with masks (x, z), qubit 0 (bit n−1) first."""
    return "".join("IZXY"[(x >> k & 1) << 1 | z >> k & 1] for k in range(n - 1, -1, -1))


def signed_rows(masks, coefficients, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase), each of shape (len(masks), 2ⁿ), for the strings with these
    (x, z) masks: (c·P·ψ)[k] = phase[j, k]·ψ[src[j, k]] with src[j, k] = k ⊕ x_j."""
    # src, the parity and the sign as int64 and the phase as complex: 40 B an entry
    require_capacity((len(masks), 1 << n), 40, f"{n}-qubit table of {len(masks)} strings")
    x, z = np.array(masks, dtype=np.int64).reshape(-1, 2).T
    src = np.arange(1 << n) ^ x[:, None]
    odd = src & z[:, None]
    for shift in (32, 16, 8, 4, 2, 1):  # parity of the n low bits
        if shift < n:
            odd ^= odd >> shift
    units = np.array([complex(c) * _I_POWERS[(xj & zj).bit_count() % 4]
                      for (xj, zj), c in zip(masks, coefficients)], dtype=complex)
    return src, units[:, None] * _SIGNS[odd & 1]


@dataclass(frozen=True)
class PauliTerm:
    """A single Pauli string with a complex coefficient."""

    letters: str
    coefficient: complex

    def __post_init__(self):
        require_letters(self.letters)

    @property
    def qubit_count(self) -> int:
        return len(self.letters)

    @cached_property
    def x_mask(self) -> int:
        return _mask(self.letters, _X_BITS)

    @cached_property
    def z_mask(self) -> int:
        return _mask(self.letters, _Z_BITS)

    def signed_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, phase) with (P·ψ)[k] = phase[k]·ψ[src[k]] and src[k] = k ⊕ x_mask."""
        src, phase = signed_rows([(self.x_mask, self.z_mask)], [self.coefficient],
                                 self.qubit_count)
        return src[0], phase[0]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """P·ψ in O(2ⁿ), without building the matrix."""
        psi = np.asarray(psi)
        if psi.shape != (1 << self.qubit_count,):
            raise DimensionError(f"state of shape {psi.shape} for {self.qubit_count} qubits")
        src, phase = self.signed_permutation()
        return phase * psi[src]

    def to_matrix(self) -> np.ndarray:
        require_capacity((2**self.qubit_count,) * 2, 16, f"{self.qubit_count}-qubit matrix")
        src, phase = self.signed_permutation()
        m = np.zeros((src.size, src.size), dtype=complex)
        m[np.arange(src.size), src] = phase
        return m


class PauliSum:
    """Linear combination of Pauli strings on a fixed number of qubits.

    Immutable.  Terms are keyed by their ``(x_mask, z_mask)`` pair, so like
    terms are always merged and every operation is integer arithmetic on
    the masks.  Zero coefficients are dropped and signed zeros stored as
    +0.0; terms at or below the pruning tolerance are dropped by
    :meth:`simplify`.  The constructor, :meth:`from_term` and
    :meth:`from_text` take letters and validate them.
    """

    __slots__ = ("_terms", "_n", "_view")

    def __init__(self, terms: Mapping[str, complex], qubit_count: int):
        if qubit_count < 0:
            raise ParameterError("qubit_count must be non-negative")
        for letters in terms:
            if len(letters) != qubit_count:
                raise DimensionError(
                    f"term {letters!r} has {len(letters)} letters, expected {qubit_count}")
        require_letters("".join(terms))
        self._n, self._view = qubit_count, None
        self._terms = _nonzero(
            {(_mask(k, _X_BITS), _mask(k, _Z_BITS)): v for k, v in terms.items()})

    @staticmethod
    def _of(terms: dict[tuple[int, int], complex], qubit_count: int) -> "PauliSum":
        """A sum of mask-keyed terms this class computed, so trusted without checks."""
        out = object.__new__(PauliSum)
        out._n, out._terms, out._view = qubit_count, _nonzero(terms), None
        return out

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(qubit_count: int) -> "PauliSum":
        return PauliSum({}, qubit_count)

    @staticmethod
    def identity(qubit_count: int) -> "PauliSum":
        return PauliSum({"I" * qubit_count: 1.0}, qubit_count)

    @staticmethod
    def from_term(letters: str, coeff: complex = 1.0) -> "PauliSum":
        return PauliSum({letters: coeff}, len(letters))

    # -- views ---------------------------------------------------------
    @property
    def qubit_count(self) -> int:
        return self._n

    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        """Terms in canonical lexicographic letter order, built on the first read."""
        if self._view is None:
            n = self._n
            self._view = tuple(PauliTerm(k, v) for k, v in sorted(
                (_letters(x, z, n), v) for (x, z), v in self._terms.items()))
        return self._view

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        body = " + ".join(f"({t.coefficient})·{t.letters}" for t in self.terms)
        return f"PauliSum[{self._n}]({body or '0'})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __hash__(self):
        return hash((self._n, frozenset(self._terms.items())))

    # -- algebra ---------------------------------------------------------
    def _require_same_width(self, other: "PauliSum"):
        if self._n != other._n:
            raise DimensionError(f"qubit counts differ: {self._n} vs {other._n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._require_same_width(other)
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, 0.0) + v
        return PauliSum._of(acc, self._n)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __rmul__(self, scalar) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return NotImplemented
        return PauliSum._of({k: scalar * v for k, v in self._terms.items()}, self._n)

    def __mul__(self, other) -> "PauliSum":
        """Scalar or operator product.

        Per qubit a letter is i^{xz}·X^x Z^z, so a·b = phase·c with c's masks
        the XOR of a's and b's and phase = i^{#Y_a + #Y_b − #Y_c}·(−1)^{|z_a ∧ x_b|},
        where #Y = |x ∧ z|.
        """
        if not isinstance(other, PauliSum):
            return PauliSum._of({k: other * v for k, v in self._terms.items()}, self._n)
        self._require_same_width(other)
        acc: dict[tuple[int, int], complex] = {}
        for (xa, za), va in self._terms.items():
            ya = (xa & za).bit_count()
            for (xb, zb), vb in other._terms.items():
                xc, zc = xa ^ xb, za ^ zb
                k = (ya + (xb & zb).bit_count() - (xc & zc).bit_count()
                     + 2 * (za & xb).bit_count())
                acc[xc, zc] = acc.get((xc, zc), 0.0) + va * vb * _I_POWERS[k % 4]
        return PauliSum._of(acc, self._n)

    def tensor(self, other: "PauliSum") -> "PauliSum":
        """self ⊗ other: other's qubits follow self's, in the low bits."""
        m = other._n
        return PauliSum._of({(xa << m | xb, za << m | zb): va * vb
                             for (xa, za), va in self._terms.items()
                             for (xb, zb), vb in other._terms.items()}, self._n + m)

    def adjoint(self) -> "PauliSum":
        return PauliSum._of({k: v.conjugate() for k, v in self._terms.items()}, self._n)

    def simplify(self) -> "PauliSum":
        """Prune terms with |coeff| <= PRUNE_TOL (like terms are always merged)."""
        return PauliSum._of({k: v for k, v in self._terms.items() if abs(v) > PRUNE_TOL},
                            self._n)

    def to_matrix(self) -> np.ndarray:
        require_capacity((2**self._n,) * 2, 16, f"{self._n}-qubit matrix")
        dim = 2 ** self._n
        out = np.zeros((dim, dim), dtype=complex)
        for (x, z), v in self._terms.items():  # insertion order fixes the rounding
            out += PauliTerm(_letters(x, z, self._n), v).to_matrix()
        return out

    def to_sparse(self):
        """The matrix as a ``scipy.sparse`` CSR matrix, with one signed diagonal
        per distinct x mask: the strings sharing x fill entries (k, k ⊕ x)."""
        from scipy.sparse import csr_matrix

        n, dim = self._n, 1 << self._n
        keys = sorted(self._terms)  # (x, z) order, so each x mask is one run
        if not keys:
            return csr_matrix((dim, dim), dtype=complex)
        src, phase = signed_rows(keys, [self._terms[k] for k in keys], n)
        starts = np.flatnonzero(np.diff([x for x, _ in keys], prepend=-1))
        data = np.add.reduceat(phase, starts, axis=0)  # one row per x mask
        H = csr_matrix((data.T.ravel(), src[starts].T.ravel(),
                        np.arange(0, dim * len(starts) + 1, len(starts))), shape=(dim, dim))
        H.eliminate_zeros()
        H.sort_indices()
        return H

    # -- serialization -----------------------------------------------------
    def to_text(self) -> str:
        """One term per line: '<coeff_re> <coeff_im> <LETTERS>', MSB first."""
        return "".join(f"{t.coefficient.real!r} {t.coefficient.imag!r} {t.letters}\n"
                       for t in self.terms)

    @staticmethod
    def from_text(text: str, qubit_count: int | None = None) -> "PauliSum":
        acc: dict[str, complex] = {}
        n = qubit_count
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 2 and not n:  # the 0-qubit string has no letters
                parts.append("")
            if len(parts) != 3:
                raise ParameterError(f"line {lineno}: expected 're im LETTERS'")
            re_s, im_s, letters = parts
            if n is None:
                n = len(letters)
            coeff = complex(float(re_s), float(im_s))
            acc[letters] = acc.get(letters, 0.0) + coeff
        if n is None:
            raise ParameterError("cannot infer qubit count from empty text")
        return PauliSum(acc, n)


def ladder(kind: str) -> PauliSum:
    """Single-qubit ladder operator: (+) = ½(X+iY) = |0⟩⟨1|, (−) = ½(X−iY)."""
    if kind == "plus":
        return PauliSum({"X": 0.5, "Y": 0.5j}, 1)
    if kind == "minus":
        return PauliSum({"X": 0.5, "Y": -0.5j}, 1)
    raise ParameterError(f"kind must be 'plus' or 'minus', got {kind!r}")


def projector(bit: int) -> PauliSum:
    """Single-qubit |bit⟩⟨bit| as ½(I ± Z)."""
    if bit == 0:
        return PauliSum({"I": 0.5, "Z": 0.5}, 1)
    if bit == 1:
        return PauliSum({"I": 0.5, "Z": -0.5}, 1)
    raise ParameterError("bit must be 0 or 1")


def outer_1q(row_bit: int, col_bit: int) -> PauliSum:
    """Single-qubit outer product |row⟩⟨col| in Pauli form."""
    if row_bit == col_bit:
        return projector(row_bit)
    if (row_bit, col_bit) == (0, 1):
        return ladder("plus")
    if (row_bit, col_bit) == (1, 0):
        return ladder("minus")
    raise ParameterError("bits must be 0 or 1")
