"""Dense complex linear algebra over product spaces of finite dimensions.

The generic KL check (``klcore`` and the ``kl-check`` experiment), the
rotor's dense objects (``RotorSpace.product_space``, ``ChargeState.dense``
and ``m_inv``) and the test oracles are built on the three value types
here: ``StateVector``, ``Operator`` and ``DensityMatrix``, all living on a
``ProductSpace`` of finite-dimensional factors.  The toric, repetition and
rotor experiments run without them.  Index order is row-major over factors
with the first factor most significant; that convention is fixed once
here and never revisited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

NORM_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands live on incompatible spaces."""


class NormalizationError(ValueError):
    """A state failed its normalization check."""


@dataclass(frozen=True)
class ProductSpace:
    """An ordered tensor product of finite-dimensional factors."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"every factor dim must be >= 1, got {dims}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.factor_dims))

    def tensor(self, other: "ProductSpace") -> "ProductSpace":
        return ProductSpace(self.factor_dims + other.factor_dims)


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitudes on a product space, row-major over factors."""

    space: ProductSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != self.space.dim:
            raise DimensionMismatchError(
                f"amplitude length {amps.shape[0]} != space dim {self.space.dim}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def require_normalized(self) -> "StateVector":
        if not abs(self.norm() ** 2 - 1.0) <= NORM_TOL:  # NaN fails too
            raise NormalizationError(
                f"state norm^2 = {self.norm()**2!r} outside tolerance {NORM_TOL}")
        return self

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)


def basis_state(space: ProductSpace, index: int) -> StateVector:
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(space, amps)


@dataclass(frozen=True)
class Operator:
    """A square dense complex matrix on a product space."""

    space: ProductSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.space.dim
        if m.ndim != 2:
            raise ValueError("operator matrix must be 2-dimensional")
        if m.shape != (d, d):
            raise DimensionMismatchError(
                f"operator shape {m.shape} != ({d}, {d})")
        object.__setattr__(self, "matrix", m)

    def dense(self) -> np.ndarray:
        return self.matrix

    def adjoint(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if self.space.dim != other.space.dim:
            raise DimensionMismatchError("operator product: dimension mismatch")
        return Operator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if self.space.dim != other.space.dim:
            raise DimensionMismatchError("operator sum: dimension mismatch")
        return Operator(self.space, self.matrix + other.matrix)

    def __rmul__(self, scalar) -> "Operator":
        return Operator(self.space, scalar * self.matrix)


def identity(space: ProductSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=np.complex128))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a product space."""

    space: ProductSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.space.dim
        if m.shape != (d, d):
            raise DimensionMismatchError(f"density matrix shape {m.shape} != ({d}, {d})")
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m) - 1.0) > NORM_TOL:
            raise ValueError("density matrix trace differs from 1 beyond tolerance")
        if np.min(np.linalg.eigvalsh(m)) < -NORM_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        psi.require_normalized()
        a = psi.amplitudes
        return cls(psi.space, np.outer(a, a.conj()))


# ---------------------------------------------------------------------------
# Operations


def tensor_product(a, b):
    """Kronecker product of two states or two operators; a's factors first."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.space.tensor(b.space), np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(a.space.tensor(b.space), np.kron(a.matrix, b.matrix))
    raise TypeError(
        f"tensor_product requires two StateVectors or two Operators, "
        f"got {type(a).__name__} and {type(b).__name__}")


def apply(op: Operator, psi: StateVector) -> StateVector:
    """Matrix-vector product of a dense operator with a state."""
    if op.space.dim != psi.space.dim:
        raise DimensionMismatchError(
            f"operator dim {op.space.dim} != state dim {psi.space.dim}")
    return StateVector(psi.space, op.matrix @ psi.amplitudes)


def inner(phi: StateVector, psi: StateVector) -> complex:
    """<phi|psi>, conjugate-linear in the first argument."""
    if phi.space.dim != psi.space.dim:
        raise DimensionMismatchError("inner product: dimension mismatch")
    return complex(np.vdot(phi.amplitudes, psi.amplitudes))


def fidelity(phi: StateVector, psi: StateVector) -> float:
    """|<phi|psi>|^2 for normalized states."""
    phi.require_normalized()
    psi.require_normalized()
    return min(abs(inner(phi, psi)) ** 2, 1.0)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every factor not in ``keep``; kept factors retain their order."""
    keep = sorted(set(int(k) for k in keep))
    dims = rho.space.factor_dims
    n = len(dims)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    traced = [i for i in range(n) if i not in keep]
    t = rho.matrix.reshape(dims + dims)
    # contract each traced factor's bra and ket index, highest index first
    for i in sorted(traced, reverse=True):
        m = t.ndim // 2
        t = np.trace(t, axis1=i, axis2=m + i)
    kept_dims = tuple(dims[i] for i in keep)
    d_keep = int(np.prod(kept_dims))
    return DensityMatrix(ProductSpace(kept_dims), t.reshape(d_keep, d_keep))


# ---------------------------------------------------------------------------
# JSON interchange: {"dims": [...], "re": [...], "im": [...]} with row-major
# flattening.  Vectors carry dim entries, operators dim**2.


def vector_to_json(psi: StateVector) -> dict:
    a = psi.amplitudes
    return {"dims": list(psi.space.factor_dims),
            "re": a.real.tolist(), "im": a.imag.tolist()}


def _entries_from_json(obj, square: bool) -> tuple[ProductSpace, np.ndarray]:
    """Space and entries of an interchange object; ValueError unless it is
    well formed: keys dims, re, im only; positive int dims; re and im lists
    of finite int/float of prod(dims) (vector) or prod(dims)**2 entries."""
    if not isinstance(obj, dict) or set(obj) != {"dims", "re", "im"}:
        raise ValueError("interchange object needs exactly the keys dims, re, im")
    dims, re, im = obj["dims"], obj["re"], obj["im"]
    if not isinstance(dims, list) or not all(type(d) is int and d >= 1 for d in dims):
        raise ValueError(f"dims must be a list of positive ints, got {dims!r}")
    if not (isinstance(re, list) and isinstance(im, list)
            and set(map(type, re)) | set(map(type, im)) <= {int, float}):
        raise ValueError("re and im must be lists of plain numbers")
    if len(re) != len(im):
        raise ValueError("re and im arrays differ in length")
    size = math.prod(dims) ** (2 if square else 1)
    if len(re) != size:
        raise ValueError(f"{len(re)} entries where dims {dims} need {size}")
    try:
        parts = np.array([re, im], dtype=float)
    except OverflowError as exc:
        raise ValueError(f"re/im entry out of double range: {exc}") from None
    if not np.isfinite(parts).all():
        raise ValueError("re and im entries must be finite")
    return ProductSpace(tuple(dims)), parts[0] + 1j * parts[1]


def vector_from_json(obj: dict) -> StateVector:
    return StateVector(*_entries_from_json(obj, square=False))


def operator_to_json(op: Operator) -> dict:
    m = op.dense().reshape(-1)
    return {"dims": list(op.space.factor_dims),
            "re": m.real.tolist(), "im": m.imag.tolist()}


def operator_from_json(obj: dict) -> Operator:
    space, entries = _entries_from_json(obj, square=True)
    return Operator(space, entries.reshape(space.dim, space.dim))
