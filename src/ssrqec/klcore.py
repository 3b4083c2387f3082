"""Knill-Laflamme verification and superselection-sector checks.

``kl_check`` evaluates the full matrix M^{ab}_{ij} = <j| E_b^dag E_a |i>
against the closest scalar structure C_ab * delta_ij, where C_ab is taken
as the codeword average of the diagonal elements (that choice minimizes
the Frobenius deviation and keeps the report reproducible).  The raw
max_violation is always reported alongside the binary verdict so that
approximate codes can apply their own thresholds.

``kraus_extract`` pulls the channel operators out of a joint
system-environment unitary by projecting onto environment basis states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MAX_RECORDED_VIOLATIONS, violations_to_json
from .hilbert import (DimensionMismatchError, Operator, ProductSpace,
                      StateVector)

DEFAULT_KL_TOL = 1e-10
_ORTHO_TOL = 1e-9  # codewords orthonormal, and a joint unitary's columns too


@dataclass(frozen=True)
class CodeSpace:
    """An ordered orthonormal set of codewords on a common space."""

    codewords: tuple[StateVector, ...]

    def __post_init__(self):
        words = tuple(self.codewords)
        if not words:
            raise ValueError("code space needs at least one codeword")
        dim = words[0].space.dim
        for w in words:
            if w.space.dim != dim:
                raise DimensionMismatchError("codewords live on different spaces")
        m = np.column_stack([w.amplitudes for w in words])
        if np.max(np.abs(m.conj().T @ m - np.eye(len(words)))) > _ORTHO_TOL:
            raise ValueError("codewords are not orthonormal within 1e-9")
        object.__setattr__(self, "codewords", words)

    @property
    def n_codewords(self) -> int:
        return len(self.codewords)

    @property
    def space(self) -> ProductSpace:
        return self.codewords[0].space

    def matrix(self) -> np.ndarray:
        """Codewords as columns, dim x K."""
        return np.column_stack([w.amplitudes for w in self.codewords])


@dataclass(frozen=True)
class ErrorSet:
    """Error operators, all square on one space."""

    operators: tuple[Operator, ...]

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("error set needs at least one operator")
        dim = ops[0].space.dim
        for op in ops:
            if op.space.dim != dim:
                raise DimensionMismatchError("error operators on different spaces")
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class KLReport:
    """Verdict and violation data of a Knill-Laflamme check."""

    c_matrix: np.ndarray
    max_violation: float
    violations: tuple[tuple[int, int, int, int, complex], ...]
    satisfied: bool
    tol: float

    @property
    def verdict(self) -> str:
        return "satisfied" if self.satisfied else "violated"

    def to_json(self) -> dict:
        return {
            "c_matrix": {"re": self.c_matrix.real.tolist(),
                         "im": self.c_matrix.imag.tolist()},
            "max_violation": self.max_violation,
            "verdict": self.verdict,
            "tol": self.tol,
            "violations": violations_to_json(self.violations),
        }


def report_from_elements(m: np.ndarray, tol: float) -> KLReport:
    """Build a KLReport from M[a, b, i, j] = <j|E_b^dag E_a|i>.

    Besides M and C it holds 24 B per element at most: first |M - C delta_ij|
    as floats, then for each violating element its index, its negated
    deviation and its rank.
    """
    k = m.shape[2]
    c = np.einsum("abii->ab", m) / k
    absdev = np.abs(m)
    np.abs(np.einsum("abii->abi", m) - c[:, :, None],     # the diagonals, as views
           out=np.einsum("abii->abi", absdev))
    max_violation = float(absdev.max())
    satisfied = max_violation <= tol
    violations = []
    if not satisfied:
        idx = np.flatnonzero(absdev > tol)
        ranked = absdev.reshape(-1)[idx]
        del absdev  # so M, idx, ranked and order are 40 B per element at most
        order = np.argsort(np.negative(ranked, out=ranked))
        for flat in idx[order[:MAX_RECORDED_VIOLATIONS]]:
            a, b, i, j = (int(x) for x in np.unravel_index(flat, m.shape))
            dev = m[a, b, i, j] - c[a, b] if i == j else m[a, b, i, j]
            violations.append((a, b, i, j, complex(dev)))
    return KLReport(c_matrix=c, max_violation=max_violation,
                    violations=tuple(violations), satisfied=satisfied, tol=tol)


def require_same_space(code: CodeSpace, errors: ErrorSet) -> None:
    """DimensionMismatchError unless the errors act on the code's space."""
    if errors.operators[0].space.dim != code.space.dim:
        raise DimensionMismatchError("errors and code live on different spaces")


def kl_check(code: CodeSpace, errors: ErrorSet, tol: float = DEFAULT_KL_TOL) -> KLReport:
    """Check <j|E_b^dag E_a|i> = C_ab delta_ij over all error pairs."""
    require_same_space(code, errors)
    cw = code.matrix()                      # dim x K
    rows = np.empty((len(errors), code.n_codewords, code.space.dim),
                    dtype=np.complex128)
    for a, op in enumerate(errors.operators):
        rows[a] = (op.matrix @ cw).T
    return kl_check_from_applied(rows, tol)


def dense_kl_bytes(n_errors: int, n_codewords: int, dim: int) -> int:
    """Bytes the dense KL kernel (``kl_check_from_applied`` and
    ``report_from_elements``) holds at most on E errors applied to K
    codewords of dimension D, in closed form: the E K applied rows twice
    (the array and its conjugate in the Gram product), 48 B per element of
    the (E K)^2 Gram and the E x E matrix C.  Per Gram element the kernel
    holds 32 B (the Gram and M), then at most 40 B (M and what
    ``report_from_elements`` adds); the other 8 B are headroom, so a check
    whose elements all violate KL peaks at about 0.85 of this."""
    rows = n_errors * n_codewords
    return 32 * rows * dim + 48 * rows ** 2 + 16 * n_errors ** 2


def kl_check_bytes(n_codewords: int, n_errors: int, dim: int) -> int:
    """Bytes a kl-check run of E errors on K codewords of dimension D holds
    at most, in closed form: the parsed D x D operators (two more while one
    is parsed, and about 0.5 KiB of Python objects each), then the larger of
    the dense kernel (``dense_kl_bytes``) and the report it leaves: C as
    floats and JSON text, about 220 B per entry in ``cli.run`` tracemalloc
    peaks, and 1 KiB per recorded violation.  The two never coexist."""
    e, k, d = n_errors, n_codewords, dim
    report = 224 * e * e + 1024 * MAX_RECORDED_VIOLATIONS
    return 16 * (e + 2) * d * d + 512 * e + max(dense_kl_bytes(e, k, d), report)


def kl_check_from_applied(rows: np.ndarray, tol: float = DEFAULT_KL_TOL) -> KLReport:
    """KL check from precomputed rows E_a |i>, shape (n_errors, K, dim).

    Sparse callers (toric module) apply their operators without ever
    materializing matrices and hand the results in here.  The rows are
    contiguous in (a, i) order, so the Gram product copies only their
    conjugate, and the Gram is released once M is built from it.
    """
    n_err, k, dim = rows.shape
    flat = rows.reshape(n_err * k, dim)
    # gram[a*K+i, b*K+j] = (E_b|j>)^dag (E_a|i>)
    gram = flat @ flat.conj().T
    m = np.ascontiguousarray(gram.reshape(n_err, k, n_err, k).transpose(0, 2, 1, 3))
    del gram  # at K > 1, M is a copy: the report need not hold both
    return report_from_elements(m, tol)


@dataclass(frozen=True)
class SectorCheckResult:
    respects_ssr: bool
    worst_element: float


def ssr_sector_check(sectors: Sequence[CodeSpace], local_ops: ErrorSet,
                     tol: float = DEFAULT_KL_TOL) -> SectorCheckResult:
    """True iff no local operator connects distinct sectors.

    Evaluates |<psi| A |phi>| for every operator and every pair of basis
    vectors drawn from two different sectors.
    """
    if len(sectors) < 2:
        raise ValueError("at least two sectors required")
    dim = sectors[0].space.dim
    for s in sectors:
        if s.space.dim != dim:
            raise DimensionMismatchError("sectors on different spaces")
    worst = 0.0
    mats = [s.matrix() for s in sectors]
    for op in local_ops.operators:
        applied = [op.matrix @ m for m in mats]
        for si in range(len(sectors)):
            for sj in range(len(sectors)):
                if si != sj:
                    block = mats[si].conj().T @ applied[sj]
                    worst = max(worst, float(np.abs(block).max()))
    return SectorCheckResult(worst <= tol, worst)


def kraus_extract(u: Operator, env_state: StateVector,
                  env_basis: Sequence[StateVector]) -> ErrorSet:
    """Kraus operators E_k = (I_sys x <e_k|) U (I_sys x |phi>).

    The environment is the trailing block of ``u``'s space; its dimension
    is inferred from ``env_state``.  Operators with no nonzero entry are
    dropped; the survivors satisfy sum_k E_k^dag E_k = I_sys.
    """
    d_tot = u.space.dim
    d_env = env_state.space.dim
    if d_tot % d_env != 0:
        raise DimensionMismatchError("environment dim does not divide joint dim")
    d_sys = d_tot // d_env
    um = u.dense()
    if np.max(np.abs(um.conj().T @ um - np.eye(d_tot))) > _ORTHO_TOL:
        raise ValueError("joint operator is not unitary within tolerance")
    env_state.require_normalized()
    phi = env_state.amplitudes
    u4 = um.reshape(d_sys, d_env, d_sys, d_env)
    # keep the leading factor structure for the system when it splits cleanly
    lead, prod = [], 1
    for d in u.space.factor_dims:
        if prod == d_sys:
            break
        lead.append(d)
        prod *= d
    sys_space = ProductSpace(tuple(lead)) if prod == d_sys else ProductSpace((d_sys,))
    ops = []
    for ek in env_basis:
        if ek.space.dim != d_env:
            raise DimensionMismatchError("environment basis vector has wrong dim")
        e_k = np.einsum("m,imjn,n->ij", ek.amplitudes.conj(), u4, phi)
        if np.any(np.abs(e_k) > 0):
            ops.append(Operator(sys_space, e_k))
    return ErrorSet(tuple(ops))
