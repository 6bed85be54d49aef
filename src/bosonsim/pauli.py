"""Exact symbolic algebra over tensor products of Pauli and ladder operators.

Operators are stored as linear combinations of Pauli strings ("letters" over
{I, X, Y, Z}).  Qubit 0 is the leftmost letter and the most significant
tensor factor (bit n−1 of a basis index).  A string acts on basis states
through its binary symplectic form: X or Y sets a bit of ``x_mask``, Y or Z
a bit of ``z_mask``, and since Y = iXZ per qubit,
P|k⟩ = c·i^{#Y}·(−1)^{|k ∧ z_mask|}·|k ⊕ x_mask⟩.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import CapacityError, DimensionError, ParameterError

PRUNE_TOL = 1e-12
DENSE_LIMIT = 14

_NOT_PAULI = str.maketrans("", "", "IXYZ")  # deletes the valid letters
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_CODES = str.maketrans("IXYZ", "\x00\x02\x03\x01")  # one byte 2x + z per letter
_LETTERS = bytes.maketrans(b"\x00\x01\x02\x03", b"IZXY")
_I_POWERS = (1, 1j, -1, -1j)


def _require_letters(letters: str):
    if letters.translate(_NOT_PAULI):
        raise ParameterError(
            f"invalid Pauli letters: {sorted(set(letters.translate(_NOT_PAULI)))}")


@dataclass(frozen=True)
class PauliTerm:
    """A single Pauli string with a complex coefficient."""

    letters: str
    coefficient: complex

    def __post_init__(self):
        _require_letters(self.letters)

    @property
    def qubit_count(self) -> int:
        return len(self.letters)

    @cached_property
    def x_mask(self) -> int:
        return int(self.letters.translate(_X_BITS) or "0", 2)

    @cached_property
    def z_mask(self) -> int:
        return int(self.letters.translate(_Z_BITS) or "0", 2)

    def signed_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, phase) with (P·ψ)[k] = phase[k]·ψ[src[k]] and src[k] = k ⊕ x_mask."""
        src = np.arange(1 << self.qubit_count) ^ self.x_mask
        odd = src & self.z_mask
        for shift in (32, 16, 8, 4, 2, 1):  # parity of the set bits
            odd ^= odd >> shift
        unit = complex(self.coefficient) * _I_POWERS[self.letters.count("Y") % 4]
        return src, unit * (1 - 2 * (odd & 1))

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """P·ψ in O(2ⁿ), without building the matrix."""
        psi = np.asarray(psi)
        if psi.shape != (1 << self.qubit_count,):
            raise DimensionError(
                f"state of shape {psi.shape} for {self.qubit_count} qubits"
            )
        src, phase = self.signed_permutation()
        return phase * psi[src]

    def to_matrix(self) -> np.ndarray:
        if self.qubit_count > DENSE_LIMIT:
            raise CapacityError(
                f"{self.qubit_count} qubits exceeds dense limit {DENSE_LIMIT}"
            )
        src, phase = self.signed_permutation()
        m = np.zeros((src.size, src.size), dtype=complex)
        m[np.arange(src.size), src] = phase
        return m


def _product(ka: str, kb: str) -> tuple[complex, str]:
    """(phase, kc) with a·b = phase·c for equal-length Pauli strings a, b.

    Per qubit a letter is i^{xz}·X^x Z^z (Aaronson & Gottesman, PRA 70,
    052328), so c's code 2x + z is the XOR of a's and b's, and
    phase = i^{#Y_a + #Y_b − #Y_c}·(−1)^{|z_a ∧ x_b|}.
    """
    a = int.from_bytes(ka.translate(_CODES).encode(), "big")
    b = int.from_bytes(kb.translate(_CODES).encode(), "big")
    c = a ^ b
    z = int.from_bytes(b"\x01" * len(ka), "big")  # the z bit of every letter
    k = ((a & a >> 1 & z).bit_count() + (b & b >> 1 & z).bit_count()
         - (c & c >> 1 & z).bit_count() + 2 * (a & b >> 1 & z).bit_count())
    return _I_POWERS[k % 4], c.to_bytes(len(ka), "big").translate(_LETTERS).decode()


def mul(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Pauli group product of two terms, phase folded into the coefficient."""
    if len(a.letters) != len(b.letters):
        raise DimensionError(
            f"letter length mismatch: {len(a.letters)} vs {len(b.letters)}"
        )
    phase, letters = _product(a.letters, b.letters)
    return PauliTerm(letters, a.coefficient * b.coefficient * phase)


class PauliSum:
    """Linear combination of Pauli strings on a fixed number of qubits.

    Immutable; like terms are always merged.  Terms with coefficients at or
    below the pruning tolerance are dropped by :meth:`simplify`.
    """

    __slots__ = ("_terms", "_n")

    def __init__(self, terms: Mapping[str, complex], qubit_count: int):
        if qubit_count < 0:
            raise ParameterError("qubit_count must be non-negative")
        acc: dict[str, complex] = {}
        for letters, coeff in terms.items():
            if len(letters) != qubit_count:
                raise DimensionError(
                    f"term {letters!r} has {len(letters)} letters, expected {qubit_count}"
                )
            acc[letters] = acc.get(letters, 0.0) + complex(coeff)
        _require_letters("".join(acc))
        object.__setattr__(self, "_terms", {k: v for k, v in acc.items() if v != 0})
        object.__setattr__(self, "_n", qubit_count)

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
        """Terms in canonical lexicographic letter order."""
        return tuple(
            PauliTerm(k, self._terms[k]) for k in sorted(self._terms)
        )

    def coefficient(self, letters: str) -> complex:
        return self._terms.get(letters, 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        body = " + ".join(f"({v})·{k}" for k, v in sorted(self._terms.items()))
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
        return PauliSum(acc, self._n)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __rmul__(self, scalar) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return NotImplemented
        return PauliSum({k: scalar * v for k, v in self._terms.items()}, self._n)

    def __mul__(self, other) -> "PauliSum":
        if not isinstance(other, PauliSum):
            return PauliSum({k: other * v for k, v in self._terms.items()}, self._n)
        self._require_same_width(other)
        acc: dict[str, complex] = {}
        for ka, va in self._terms.items():
            for kb, vb in other._terms.items():
                phase, kc = _product(ka, kb)
                acc[kc] = acc.get(kc, 0.0) + va * vb * phase
        return PauliSum(acc, self._n)

    def tensor(self, other: "PauliSum") -> "PauliSum":
        acc = {}
        for ka, va in self._terms.items():
            for kb, vb in other._terms.items():
                acc[ka + kb] = acc.get(ka + kb, 0.0) + va * vb
        return PauliSum(acc, self._n + other._n)

    def adjoint(self) -> "PauliSum":
        return PauliSum({k: np.conj(v) for k, v in self._terms.items()}, self._n)

    def simplify(self, tol: float = PRUNE_TOL) -> "PauliSum":
        """Merge like terms (always maintained) and prune |coeff| <= tol."""
        if tol < 0:
            raise ParameterError("tol must be non-negative")
        return PauliSum(
            {k: v for k, v in self._terms.items() if abs(v) > tol}, self._n
        )

    def to_matrix(self) -> np.ndarray:
        if self._n > DENSE_LIMIT:
            raise CapacityError(
                f"{self._n} qubits exceeds dense limit {DENSE_LIMIT}"
            )
        dim = 2 ** self._n
        out = np.zeros((dim, dim), dtype=complex)
        for k, v in self._terms.items():
            out += PauliTerm(k, v).to_matrix()
        return out

    # -- serialization -----------------------------------------------------
    def to_text(self) -> str:
        """One term per line: '<coeff_re> <coeff_im> <LETTERS>', MSB first."""
        lines = []
        for k in sorted(self._terms):
            v = self._terms[k]
            lines.append(f"{v.real!r} {v.imag!r} {k}")
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_text(text: str, qubit_count: int | None = None) -> "PauliSum":
        acc: dict[str, complex] = {}
        n = qubit_count
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
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
