"""Z_N toric code on a small torus: sectors, Wilson loops, exact KL checks.

Qudit Paulis have one form: an int row of X and Z powers over the edges
plus a phase exponent of e^{i pi / N}, and a set of them is the rows of a
``PauliArray``.  Commutation phases, products and logical classes are
answered by mod-N arithmetic on int arrays, so the KL check
``kl_check_toric`` builds no state vector and no matrix of pair elements.
A pair product E_b^dag E_a commutes with every stabilizer iff E_a and E_b
share a syndrome; it is then e^{i pi phi / N} times a stabilizer times a
product of Wilson loops, and acts on the sector basis |a, b> as a known
monomial matrix of N-th roots of unity.  So the KL conditions come down to
one rule: errors with the same syndrome must share their logical powers
(Knill-Laflamme, quant-ph/9604034; Gottesman, quant-ph/9705052).  The
stabilizer and Wilson-loop probe rows come from index arithmetic over all
vertices at once, each error's syndrome is one byte-string key, and C is
kept as one block per syndrome class, sliced from one sorted order.  Each
guard raises through ``errors.check_budget`` on a closed form of the bytes
it holds (``kl_guard``: ``kl_check_bytes``), before anything is built.

``ssr_exact_zero_check`` certifies, enumerating nothing, that no Pauli
below the code distance is logical: each Wilson-loop probe has l disjoint
translates that differ from it by stabilizers, so a Pauli that fails to
commute with a probe meets all l of them.  Its cost is a few products with
the dense stabilizer rows, which grow as l^4.

The sector basis has a fixed phase convention.  |0, 0> is the uniform sum
over the orbit of |0...0> under the X-stabilizers and the x-winding
magnetic loop; |a, b> = M_y^a E_y^{-b} |0, 0>, where M_y (E_y) is the
y-winding magnetic (electric) loop.  Then the x-winding electric loop
acts as w^a and the x-winding magnetic loop as w^b, with w = e^{2 pi i / N}.

The dense state-vector code (``ground_space``, ``sector_basis``,
``apply_pauli``, ``kl_check_paulis``) applies the same rows to explicit
states and stays as the test oracle for small lattices; only its KL check
loads ``klcore`` (and through it ``hilbert``), when it is called.
``apply_pauli`` reads a state as the (N,) * n_edges tensor of its basis
digits: a Pauli is one broadcast phase and one roll per X edge.
``ground_space`` and ``kl_check_paulis`` refuse before they allocate when
the closed form of the bytes they hold (``ground_space_bytes``,
``kl_check_paulis_bytes``) exceeds the same budget; ``sector_basis``
checks the basis that ``ground_space`` builds in closed form instead of
diagonalising.

Edge orientation convention: horizontal edges point +x, vertical +y; edge
(h, x, y) has index y l + x and edge (v, x, y) index l^2 + y l + x.
Stars put X on outgoing and X^{-1} on incoming edges; plaquettes put
Z^{+/-1} counterclockwise.  For N = 2 the standard toric code is
recovered.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from ._rowkeys import class_ids
from .errors import (MAX_RECORDED_VIOLATIONS, GuardExceededError, check_budget,
                     violations_to_json)

if TYPE_CHECKING:
    from .klcore import KLReport

KL_TOL = 1e-9  # the dense check's tolerance; the symbolic check's default
MAX_ENUM_WEIGHT = 2
# At most KL_ROW_COPIES copies of the symbolic KL check's xz rows and
# syndromes are alive, and it builds C KL_PAIR_CHUNK error pairs at a time.
KL_ROW_COPIES = 4
KL_PAIR_CHUNK = 2 ** 14


@dataclass(frozen=True)
class TorusLattice:
    """l x l torus with N-dimensional qudits on the 2 l^2 edges."""

    l: int
    n: int

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("linear size l must be >= 2")
        if self.n < 2:
            raise ValueError("qudit dimension N must be >= 2")

    @property
    def n_edges(self) -> int:
        return 2 * self.l * self.l

    @property
    def dim(self) -> int:
        return self.n ** self.n_edges


# ---------------------------------------------------------------------------
# Pauli sets as int arrays


@dataclass(frozen=True, eq=False)
class PauliArray:
    """E qudit Paulis as rows of ``xz`` = (x powers | z powers), (E, 2 n_edges).

    ``phase`` holds the E phase exponents of e^{i pi / N}.
    """

    xz: np.ndarray
    phase: np.ndarray
    n: int

    def __len__(self) -> int:
        return self.xz.shape[0]


def _require_on(lat: TorusLattice, errors: PauliArray) -> None:
    """ValueError unless ``errors`` are rows of 2 n_edges powers mod ``lat.n``."""
    if errors.n != lat.n or errors.xz.shape[1:] != (2 * lat.n_edges,):
        raise ValueError(f"errors with N = {errors.n} and rows {errors.xz.shape[1:]} "
                         f"do not act on the N = {lat.n}, l = {lat.l} lattice")


def commutation_exponents(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """c[i, j] with a_i b_j = w^c b_j a_i, for xz rows a and b; one matmul mod N.
    The matmul runs in float64 (BLAS); for rows reduced mod N its sums stay
    at most 2 n_edges (N - 1)^2 in modulus, so it is exact while that is
    < 2^53, and a larger N raises ValueError."""
    if b.shape[1] * (n - 1) ** 2 >= 2 ** 53:
        raise ValueError(f"N = {n} is too large for exact float64 commutation "
                         f"exponents over {b.shape[1]} columns")
    half = b.shape[1] // 2
    symp = np.concatenate([-b[:, half:], b[:, :half]], axis=1).T
    return (a.astype(np.float64) @ symp.astype(np.float64)).astype(np.int64) % n


def pair_phases(errors: PauliArray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """phi mod 2N of each error pair (a, b) (index arrays that broadcast),
    where E_b^dag E_a = e^{i pi phi / N} X^(x_a - x_b) Z^(z_a - z_b) and
    phi = p_a - p_b + 2 z_b . (x_b - x_a)."""
    half = errors.xz.shape[1] // 2
    x, z = errors.xz[:, :half], errors.xz[:, half:]
    dot = np.einsum("...i,...i->...", z[b], x[b] - x[a])
    return (errors.phase[a] - errors.phase[b] + 2 * dot) % (2 * errors.n)


# ---------------------------------------------------------------------------
# Numeric application


def apply_pauli(lat: TorusLattice, xz: np.ndarray, phase: int,
                vec: np.ndarray) -> np.ndarray:
    """e^{i pi phase / N} X^x Z^z applied to ``vec``, read as the
    (N,) * n_edges tensor of its basis digits (edge 0 first) with any
    further axes as columns: one broadcast phase w^(z . j), then one roll
    per X edge, since Z|j> = w^j |j> and X|j> = |j + 1>."""
    n, m = lat.n, lat.n_edges
    xz = np.asarray(xz) % n
    out = vec.reshape((n,) * m + vec.shape[1:])
    j = np.arange(n).reshape((n,) + (1,) * (out.ndim - 1))     # a digit, on axis 0
    expo = sum(int(xz[m + e]) * np.moveaxis(j, 0, e) for e in np.flatnonzero(xz[m:]))
    global_phase = np.exp(1j * np.pi * (int(phase) % (2 * n)) / n)
    out = global_phase * np.exp(2j * np.pi * (np.asarray(expo) % n) / n) * out
    for e in np.flatnonzero(xz[:m]):
        out = np.roll(out, int(xz[e]), axis=e)
    return out.reshape(vec.shape)


# ---------------------------------------------------------------------------
# Stabilizers and ground space


def _stabilizer_rows(lat: TorusLattice) -> np.ndarray:
    """xz rows mod N of the l^2 stars then the l^2 plaquettes, (2 l^2, 2 n_edges).

    Row v = y l + x is the star (plaquette) at vertex (x, y); the edge
    indices come from index arithmetic on all vertices at once.
    """
    l, n, m = lat.l, lat.n, lat.n_edges
    v = np.arange(l * l)
    y, x = np.divmod(v, l)

    def edge(vertical: int, dx: int, dy: int) -> np.ndarray:
        return vertical * l * l + (y + dy) % l * l + (x + dx) % l

    rows = np.zeros((2, l * l, 2, m), dtype=np.int64)   # (kind, vertex, x|z, edge)
    # stars: X out along +x and +y, X^-1 in from -x and -y
    for vertical, dx, dy, power in ((0, 0, 0, 1), (1, 0, 0, 1), (0, -1, 0, -1),
                                    (1, 0, -1, -1)):
        rows[0, v, 0, edge(vertical, dx, dy)] = power % n
    # plaquettes: Z on bottom (+x), right (+y), top (-x), left (-y)
    for vertical, dx, dy, power in ((0, 0, 0, 1), (1, 1, 0, 1), (0, 0, 1, -1),
                                    (1, 0, 0, -1)):
        rows[1, v, 1, edge(vertical, dx, dy)] = power % n
    return rows.reshape(2 * l * l, 2 * m)


@dataclass(frozen=True)
class GroundSpace:
    """Orthonormal basis of the joint +1 eigenspace of all stabilizers."""

    lattice: TorusLattice
    basis: np.ndarray                       # dim x N^2, columns a N + b

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def ground_space(lat: TorusLattice) -> GroundSpace:
    """The sector basis |a, b> as explicit CSS coset states.

    |0, 0> sums |x> uniformly over the orbit of |0...0> under the group
    generated by l^2 - 1 independent stars and the x-winding magnetic loop
    (the X-stabilizer cosets of M_x^b |0...0>); the other states follow by
    applying the y-winding loops, as in the module docstring.  M_y^a E_y^-b
    is X-only times Z-only, so its row is the sum of theirs and its phase 0.
    """
    check_budget(ground_space_bytes(lat), "the dense ground space")
    n, m, l2 = lat.n, lat.n_edges, lat.l * lat.l
    gens = np.vstack([_stabilizer_rows(lat)[:l2 - 1],
                      wilson_loop(lat, "x", 1, "magnetic")])[:, :m]
    coeffs = np.indices((n,) * l2).reshape(l2, -1).T
    orbit = (coeffs @ gens) % n                         # N^(l^2) distinct x vectors
    vacuum = np.zeros(lat.dim, dtype=np.complex128)
    vacuum[orbit @ n ** np.arange(m - 1, -1, -1)] = n ** (-l2 / 2)
    basis = np.column_stack([
        apply_pauli(lat, wilson_loop(lat, "y", a, "magnetic")
                    + wilson_loop(lat, "y", -b, "electric"), 0, vacuum)
        for a, b in sector_labels(lat)])
    return GroundSpace(lat, basis)


def ground_space_bytes(lat: TorusLattice) -> int:
    """Bytes ``ground_space`` holds at most, in closed form: its K = N^2
    columns of dimension D twice (the list and the stacked basis), the
    copies ``apply_pauli`` makes of one column, and the int rows of its orbit
    of N^(l^2) X patterns."""
    d, k = lat.dim, lat.n ** 2
    return 32 * d * k + 64 * d + 8 * (lat.l ** 2 + 2 * lat.n_edges + 1) * lat.n ** (lat.l ** 2)


# ---------------------------------------------------------------------------
# Wilson loops and the sector basis

# (cycle, kind) -> (row of ``_logical_probes``, the sign of its power)
_LOOPS = {("y", "magnetic"): (0, 1), ("x", "magnetic"): (1, 1),
          ("x", "electric"): (2, -1), ("y", "electric"): (3, -1)}


def wilson_loop(lat: TorusLattice, cycle: str, charge: int,
                kind: str) -> np.ndarray:
    """xz row of Z^charge (electric) or X^charge (magnetic) along a
    representative cycle, phase 0: charge times a logical probe row, mod N.

    Electric loops follow direct-lattice cycles; magnetic loops follow
    dual-lattice cycles winding in the named direction (crossing vertical
    edges for an x-winding, horizontal edges for a y-winding).
    """
    if (cycle, kind) not in _LOOPS:
        raise ValueError("cycle must be 'x' or 'y' and kind 'electric' or 'magnetic'")
    probe, sign = _LOOPS[cycle, kind]
    return charge * sign * _logical_probes(lat)[probe] % lat.n


def _logical_probes(lat: TorusLattice) -> np.ndarray:
    """Rows whose commutation exponents with an undetected Pauli are its
    logical powers (gamma, delta, alpha, beta): its X part is a stabilizer
    times M_y^alpha M_x^beta and its Z part a stabilizer times
    E_x^gamma E_y^delta, for the charge-1 loops M_y, M_x, E_x, E_y.  The
    rows are M_y, M_x, E_x^-1 and E_y^-1, the loops ``wilson_loop`` scales.
    """
    return _probe_translates(lat)[:, 0]


def _probe_translates(lat: TorusLattice) -> np.ndarray:
    """xz rows (4, l, 2 n_edges) of the l translates t of each logical probe:
    X on h(t, .), X on v(., t), Z^-1 on h(., t) and Z^-1 on v(t, .)."""
    l, n, m = lat.l, lat.n, lat.n_edges
    t, k = np.arange(l)[:, None], np.arange(l)[None, :]
    rows = np.zeros((4, l, 2 * m), dtype=np.int64)
    rows[0, t, k * l + t] = 1
    rows[1, t, l * l + t * l + k] = 1
    rows[2, t, m + t * l + k] = n - 1
    rows[3, t, m + l * l + k * l + t] = n - 1
    return rows


def sector_labels(lat: TorusLattice) -> tuple[tuple[int, int], ...]:
    """(a, b) of each sector-basis state, in basis order a * N + b."""
    return tuple((a, b) for a in range(lat.n) for b in range(lat.n))


def sector_basis(gs: GroundSpace) -> GroundSpace:
    """``gs``, once checked to be the joint eigenbasis of the x-cycle loops.

    The electric and magnetic loops winding in x act within the ground
    space and commute (disjoint supports); their joint eigenvalues
    (w^a, w^b) label the N^2 sectors exactly once.  ``ground_space`` builds
    that basis in closed form, so nothing is diagonalised: the N^2 columns
    must be orthonormal, and column a N + b (``sector_labels`` order) must
    be the (w^a, w^b) eigenvector.  Any other basis is an invariant breach
    and raises RuntimeError.
    """
    lat, b = gs.lattice, gs.basis
    n = lat.n
    if gs.dimension != n * n \
            or not np.allclose(b.conj().T @ b, np.eye(n * n), rtol=0, atol=1e-9):
        raise RuntimeError("the basis is not N^2 orthonormal columns labelled a N + b")
    charges = np.divmod(np.arange(n * n), n)
    for kind, charge in zip(("electric", "magnetic"), charges):
        loop = apply_pauli(lat, wilson_loop(lat, "x", 1, kind), 0, b)
        if not np.allclose(loop, np.exp(2j * np.pi * charge / n) * b, rtol=0, atol=1e-9):
            raise RuntimeError(f"a column is not an eigenvector of the x-cycle {kind} "
                               f"loop with the eigenvalue its label names")
    return gs


# ---------------------------------------------------------------------------
# Error enumeration


def error_count(lat: TorusLattice, max_weight: int) -> int:
    """Paulis of weight <= max_weight, identity included, in closed form."""
    return sum(math.comb(lat.n_edges, j) * (lat.n ** 2 - 1) ** j
               for j in range(max_weight + 1))


def _weight_chunks(lat: TorusLattice, weight: int,
                   max_rows: int) -> Iterator[np.ndarray]:
    """xz rows of every Pauli of exactly ``weight``, in chunks.

    Order: supports in lexicographic order, then the non-identity
    single-qudit factors (x, z) of each support edge, x-major.  A chunk
    holds whole supports and at most ``max_rows`` rows unless a single
    support has more.
    """
    n, m = lat.n, lat.n_edges
    singles = np.array([(x, z) for x in range(n) for z in range(n)
                        if (x, z) != (0, 0)], dtype=np.int64)
    factors = np.array(list(itertools.product(range(len(singles)), repeat=weight)),
                       dtype=np.intp)                   # (A, weight)
    supports = itertools.combinations(range(m), weight)
    per_chunk = max(1, max_rows // len(factors))
    while True:
        sup = np.array(list(itertools.islice(supports, per_chunk)), dtype=np.intp)
        if sup.size == 0:
            return
        rows = np.zeros((len(sup), len(factors), 2 * m), dtype=np.int64)
        s_idx = np.arange(len(sup))[:, None]
        f_idx = np.arange(len(factors))[None, :]
        for k in range(weight):
            edge = sup[:, k][:, None]
            xz = singles[factors[:, k]]
            rows[s_idx, f_idx, edge] = xz[:, 0]
            rows[s_idx, f_idx, m + edge] = xz[:, 1]
        yield rows.reshape(-1, 2 * m)


def _check_weight(max_weight: int) -> None:
    if max_weight > MAX_ENUM_WEIGHT:
        raise GuardExceededError(f"error enumeration capped at weight {MAX_ENUM_WEIGHT}")


def enumerate_pauli_errors(lat: TorusLattice, max_weight: int) -> PauliArray:
    """Identity plus all qudit Paulis of weight <= max_weight, phase 0."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    _check_weight(max_weight)
    check_budget(enumeration_bytes(lat, max_weight), "the error enumeration")
    count = error_count(lat, max_weight)
    xz = np.vstack([np.zeros((1, 2 * lat.n_edges), dtype=np.int64)]
                   + [rows for w in range(1, max_weight + 1)
                      for rows in _weight_chunks(lat, w, count)])
    return PauliArray(xz, np.zeros(count, dtype=np.int64), lat.n)


def enumeration_bytes(lat: TorusLattice, max_weight: int) -> int:
    """Bytes ``enumerate_pauli_errors`` holds at most: its int64 rows twice
    (chunks, then stacked), 8 B more per error, and 16 KiB of small tables."""
    return (32 * lat.n_edges + 8) * error_count(lat, max_weight) + 2 ** 14


# ---------------------------------------------------------------------------
# KL checks


def kl_check_paulis(gs: GroundSpace, errors: PauliArray) -> KLReport:
    """Dense KL check, at KL_TOL, of a Pauli error set against a ground-space basis."""
    from . import klcore
    lat, b = gs.lattice, gs.basis
    _require_on(lat, errors)
    check_budget(kl_check_paulis_bytes(lat, len(errors)), "the dense KL check")
    rows = np.empty((len(errors), b.shape[1], b.shape[0]), dtype=np.complex128)
    for a, (xz, phase) in enumerate(zip(errors.xz, errors.phase)):
        rows[a] = apply_pauli(lat, xz, phase, b).T
    return klcore.kl_check_from_applied(rows, KL_TOL)


def kl_check_paulis_bytes(lat: TorusLattice, n_errors: int) -> int:
    """Bytes ``kl_check_paulis`` holds at most on the sector basis, in closed
    form: what the dense kernel holds (``klcore.dense_kl_bytes``) plus the
    copies ``apply_pauli`` makes of the K = N^2 basis columns of dimension D
    (two at a time, and its phase tables)."""
    from . import klcore
    k = lat.n ** 2
    return klcore.dense_kl_bytes(n_errors, k, lat.dim) + 48 * lat.dim * k


class SyndromeKLReport:
    """Verdict and violation data of a KL check, with C as one (error
    indices, block) pair per syndrome class; C is zero between classes.
    A plain class: a dataclass would cost about 1 ms at every import."""

    def __init__(self, n_errors: int, c_blocks: tuple, max_violation: float,
                 violations: tuple, satisfied: bool, tol: float):
        self.n_errors, self.c_blocks, self.violations = n_errors, c_blocks, violations
        self.max_violation, self.satisfied, self.tol = max_violation, satisfied, tol
        self.verdict = "satisfied" if satisfied else "violated"

    def to_json(self) -> dict:
        return {"n_errors": self.n_errors,
                "c_blocks": [{"errors": e.tolist(), "re": c.real.tolist(),
                              "im": c.imag.tolist()} for e, c in self.c_blocks],
                "max_violation": self.max_violation, "verdict": self.verdict,
                "tol": self.tol,
                "violations": violations_to_json(self.violations)}


def kl_check_errors(lat: TorusLattice, errors: PauliArray,
                    tol: float = KL_TOL) -> SyndromeKLReport:
    """Exact KL check of a Pauli error set on the sector basis, by syndrome class.

    Commutation exponents are linear in xz, so E_b^dag E_a commutes with
    every stabilizer iff E_a and E_b have the same syndrome, and its
    logical powers (gamma, delta, alpha, beta) are differences of theirs.
    Then E_b^dag E_a |s, t> = e^{i pi phi / N} w^(gamma s + beta (t - delta))
    |s + alpha, t - delta>.  So C_ab = e^{i pi phi / N} when E_a and E_b
    share syndrome and logical powers, and 0 otherwise; a pair that shares
    only its syndrome violates KL with N^2 deviation entries of modulus 1.
    The first MAX_RECORDED_VIOLATIONS of those, in (a, b, i, j) order, are
    recorded.

    The syndromes are products with ``_stabilizer_rows``, built by index
    arithmetic; each error's syndrome row is one byte-string key
    (``class_ids``), so one 1-D ``np.unique`` numbers the classes in
    lexicographic syndrome order.  One stable sort groups the errors by class,
    and each class's block is a slice of it and of C.  Errors on another N or
    another number of edges raise ValueError.
    """
    _require_on(lat, errors)
    n, k = lat.n, lat.n * lat.n
    cls = class_ids(commutation_exponents(errors.xz, _stabilizer_rows(lat), n), n)
    logical = commutation_exponents(errors.xz, _logical_probes(lat), n)
    code = class_ids(logical, n)                # one id per distinct logical powers
    members = np.argsort(cls, kind="stable")    # grouped by class, ascending
    sizes = np.bincount(cls)
    start = np.cumsum(sizes) - sizes
    # the C blocks, row-major and back to back, KL_PAIR_CHUNK pairs at a time
    offset = np.cumsum(sizes ** 2) - sizes ** 2
    c = np.empty(int(sizes @ sizes), dtype=np.complex128)
    for lo in range(0, c.size, KL_PAIR_CHUNK):
        o = np.arange(lo, min(lo + KL_PAIR_CHUNK, c.size))
        cl = np.searchsorted(offset, o, side="right") - 1
        i, j = np.divmod(o - offset[cl], sizes[cl])
        a, b = members[start[cl] + i], members[start[cl] + j]
        roots = np.exp(1j * np.pi * pair_phases(errors, a, b) / n)
        c[o] = np.where(code[a] == code[b], roots, 0)
    c_blocks = tuple((members[s:s + e], c[o:o + e * e].reshape(e, e)) for s, e, o
                     in zip(start.tolist(), sizes.tolist(), offset.tolist()))

    grouped = code[members]
    mixed = np.minimum.reduceat(grouped, start) != np.maximum.reduceat(grouped, start)
    max_violation = 1.0 if mixed.any() else 0.0
    # the first violating pairs in (a, b) order, enough to fill the record
    need = -(-MAX_RECORDED_VIOLATIONS // k) if max_violation > tol else 0
    pairs = []
    for anchor in np.flatnonzero(mixed[cls])[:need]:
        first = start[cls[anchor]]
        group = members[first:first + sizes[cls[anchor]]]
        pairs += [(anchor, b) for b in group[code[group] != code[anchor]]]
    a, b = np.array(pairs[:need], dtype=np.intp).reshape(-1, 2).T
    gamma, delta, alpha, beta = ((logical[a] - logical[b]) % n).T[:, :, None]
    s, t = np.divmod(np.arange(min(k, MAX_RECORDED_VIOLATIONS)), n)
    expo = (pair_phases(errors, a, b)[:, None]
            + 2 * (gamma * s + beta * (t - delta))) % (2 * n)
    target = ((s + alpha) % n) * n + (t - delta) % n
    roots = np.exp(1j * np.pi * expo / n)
    violations = [(int(a[p]), int(b[p]), i, int(target[p, i]), complex(roots[p, i]))
                  for p in range(len(a)) for i in range(len(s))]
    return SyndromeKLReport(len(errors), c_blocks, max_violation,
                            tuple(violations[:MAX_RECORDED_VIOLATIONS]),
                            max_violation <= tol, tol)


def kl_check_bytes(lat: TorusLattice, max_weight: int) -> int:
    """Bytes ``kl_check_toric`` holds at most, in closed form from the error
    count E: copies of the xz rows and syndromes (3 n_edges int64 per
    error), the C blocks (at worst one class of all E errors, 16 E^2), and
    one chunk of error pairs, each with four int64 rows of n_edges and a few
    dozen scalars."""
    count = error_count(lat, max_weight)
    return (KL_ROW_COPIES * 24 * lat.n_edges * count + 16 * count ** 2
            + min(count ** 2, KL_PAIR_CHUNK) * (32 * lat.n_edges + 256))


def kl_guard(lat: TorusLattice, max_weight: int) -> None:
    """GuardExceededError when ``kl_check_toric`` would refuse this size."""
    _check_weight(max_weight)
    check_budget(kl_check_bytes(lat, max_weight), "the KL check")


def kl_check_toric(lat: TorusLattice, max_weight: int,
                   tol: float = KL_TOL) -> SyndromeKLReport:
    """Exact KL check of all Paulis of weight <= max_weight on the sector basis."""
    kl_guard(lat, max_weight)
    return kl_check_errors(lat, enumerate_pauli_errors(lat, max_weight), tol)


# ---------------------------------------------------------------------------
# Symbolic SSR certificate


def ssr_exact_zero_check(lat: TorusLattice, max_weight: Optional[int] = None
                         ) -> bool:
    """Certify that no Pauli of weight <= max_weight (default l - 1) is a
    logical operator, so <a|P|a'> = 0 for a != a' and every such P.

    Nothing is enumerated.  The l translates of each logical probe are
    checked to have pairwise disjoint supports, to commute with every
    stabilizer and to share the probe's logical powers, so each is the
    probe times a stabilizer.  An undetected Pauli with a nonzero exponent
    against a probe then has it against all l translates, so it meets each
    of their disjoint supports and has weight >= l; the probes are logical
    and have weight l (Kitaev, quant-ph/9707021; Dennis et al.,
    quant-ph/0110143).  So the answer is max_weight < l, and a failed check
    is an invariant breach that raises RuntimeError.  An N too large for
    exact ``commutation_exponents`` raises ValueError.  The dense
    ``_stabilizer_rows`` (guarded by ``ssr_check_bytes``) set the cost as l^4:
    on 2 vCPUs, 0.3 ms at (l, N) = (6, 2), 25 ms and a 32 MiB peak at (20, 5).
    """
    w = lat.l - 1 if max_weight is None else max_weight
    if w < 0:
        raise ValueError("max_weight must be >= 0")
    check_budget(ssr_check_bytes(lat), "the SSR certificate")
    l, m = lat.l, lat.n_edges
    rows = _probe_translates(lat)
    flat = rows.reshape(4 * l, 2 * m)
    if ((rows[:, :, :m] != 0) | (rows[:, :, m:] != 0)).sum(axis=1).max() > 1:
        raise RuntimeError("probe translates overlap within a family")
    if commutation_exponents(flat, _stabilizer_rows(lat), lat.n).any():
        raise RuntimeError("a probe translate fails to commute with a stabilizer")
    powers = commutation_exponents(flat, rows[:, 0], lat.n).reshape(4, l, 4)
    if (powers != powers[:, :1]).any() or not powers[:, 0].any(axis=1).all():
        raise RuntimeError("a probe translate lacks its probe's nonzero logical powers")
    return bool(w < l)


def ssr_check_bytes(lat: TorusLattice) -> int:
    """Bytes ``ssr_exact_zero_check`` holds at most: three 8-byte copies of the
    (2 l^2, 4 l^2) stabilizer rows, the probe translates, and 64 KiB."""
    return 192 * lat.l ** 4 + 384 * lat.l ** 3 + 2 ** 16
