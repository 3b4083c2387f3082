"""Oracles for the Z_N toric code, kept for the tests only.

``QuditPauli`` and ``pauli_mul`` are the scalar Pauli algebra: one Pauli
at a time, as tuples of X and Z powers, with exact phase bookkeeping.
``pauli_identity``, ``single_qudit_pauli``, ``commutation_exponent`` and
``pauli_adjoint`` complete it, and ``as_pauli``, ``pauli_list`` and
``pauli_array`` convert between it and the xz rows that
``ssrqec.toriccode`` works on.  ``edge`` is the edge layout written out by
direction and coordinates; ``stabilizers_by_vertex`` builds the stars and
plaquettes one vertex at a time, and ``loop_by_edge`` the Wilson loops one
edge at a time, as the references for the index arithmetic of
``toriccode._stabilizer_rows`` and ``toriccode.wilson_loop``.

``pauli_permutation`` maps each basis index to its image and phase from
a table of base-N digits, the reference for ``toriccode.apply_pauli``,
which works on tensor axes instead; ``apply_by_permutation`` applies a
Pauli through it and ``pauli_dense`` builds a Pauli's dense matrix from it.

``kl_elements`` writes every element M[a, b, i, j] = <j| E_b^dag E_a |i> of
an error set on the sector basis into one (E, E, N^2, N^2) array;
``klcore.report_from_elements`` then reads the verdict, C and deviations
off it.  The syndrome-class check ``toriccode.kl_check_errors`` must agree
with this path, and ``root_table_json`` is its report with every root
read from a table of all 2N roots, the reference for the roots it computes
per phase.  ``ssr_certificate`` decides stabilizer membership by rank
over GF(N), and ``logical_mask`` marks logical operators row by row, the
enumeration oracle for ``toriccode.ssr_exact_zero_check``.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ssrqec import klcore
from ssrqec.toriccode import (PauliArray, TorusLattice, _logical_probes,
                              _stabilizer_rows, commutation_exponents,
                              pair_phases)


@dataclass(frozen=True)
class QuditPauli:
    """phase_factor * prod_e X_e^{x_e} Z_e^{z_e} with X|j> = |j+1>, Z|j> = w^j |j>.

    ``phase`` is the exponent of e^{i pi / N}, kept mod 2N so products of
    w = e^{2 pi i / N} factors stay exact.
    """

    x_powers: tuple[int, ...]
    z_powers: tuple[int, ...]
    n: int
    phase: int = 0

    def __post_init__(self):
        nn = self.n
        object.__setattr__(self, "x_powers",
                           tuple(int(p) % nn for p in self.x_powers))
        object.__setattr__(self, "z_powers",
                           tuple(int(p) % nn for p in self.z_powers))
        object.__setattr__(self, "phase", int(self.phase) % (2 * nn))

    @property
    def xz(self) -> np.ndarray:
        """The row (x powers | z powers) that ``toriccode`` takes."""
        return np.array(self.x_powers + self.z_powers, dtype=np.int64)

    @property
    def weight(self) -> int:
        return sum(1 for x, z in zip(self.x_powers, self.z_powers)
                   if x != 0 or z != 0)

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, (x, z) in enumerate(zip(self.x_powers, self.z_powers))
                     if x != 0 or z != 0)

    def is_identity_up_to_phase(self) -> bool:
        return self.weight == 0


def pauli_mul(a: QuditPauli, b: QuditPauli) -> QuditPauli:
    """a @ b in the canonical X-then-Z ordering; exact phase bookkeeping."""
    if a.n != b.n or len(a.x_powers) != len(b.x_powers):
        raise ValueError("pauli operands are incompatible")
    n = a.n
    # moving Z^{z_a} through X^{x_b} costs w^{z_a . x_b}
    cross = sum(za * xb for za, xb in zip(a.z_powers, b.x_powers))
    x = tuple((xa + xb) % n for xa, xb in zip(a.x_powers, b.x_powers))
    z = tuple((za + zb) % n for za, zb in zip(a.z_powers, b.z_powers))
    return QuditPauli(x, z, n, a.phase + b.phase + 2 * cross)


def as_pauli(xz, n: int, phase: int = 0) -> QuditPauli:
    """The ``QuditPauli`` of one xz row."""
    half = len(xz) // 2
    return QuditPauli(tuple(xz[:half]), tuple(xz[half:]), n, phase)


def pauli_list(paulis: PauliArray) -> list[QuditPauli]:
    """The rows of a ``PauliArray`` as ``QuditPauli`` objects."""
    return [as_pauli(xz, paulis.n, p) for xz, p in zip(paulis.xz, paulis.phase)]


def pauli_array(paulis: Sequence[QuditPauli], n: int) -> PauliArray:
    """``QuditPauli`` objects as the rows of a ``PauliArray``."""
    xz = np.array([p.x_powers + p.z_powers for p in paulis], dtype=np.int64)
    phase = np.array([p.phase for p in paulis], dtype=np.int64)
    return PauliArray(xz.reshape(len(paulis), -1), phase, n)


def stabilizer_paulis(lat: TorusLattice) -> list[QuditPauli]:
    """``toriccode._stabilizer_rows`` as ``QuditPauli`` objects."""
    rows = _stabilizer_rows(lat)
    return pauli_list(PauliArray(rows, np.zeros(len(rows), dtype=np.int64), lat.n))


def pauli_identity(n_edges: int, n: int) -> QuditPauli:
    return QuditPauli((0,) * n_edges, (0,) * n_edges, n)


def single_qudit_pauli(lat: TorusLattice, edge: int, x_pow: int, z_pow: int) -> QuditPauli:
    xs = [0] * lat.n_edges
    zs = [0] * lat.n_edges
    xs[edge] = x_pow
    zs[edge] = z_pow
    return QuditPauli(tuple(xs), tuple(zs), lat.n)


def commutation_exponent(a: QuditPauli, b: QuditPauli) -> int:
    """c with a b = w^c b a, from the symplectic form mod N."""
    n = a.n
    c = sum(za * xb for za, xb in zip(a.z_powers, b.x_powers)) \
        - sum(zb * xa for zb, xa in zip(b.z_powers, a.x_powers))
    return c % n


def logical_mask(lat: TorusLattice, xz: np.ndarray) -> np.ndarray:
    """True for each xz row that commutes with every stabilizer and has a
    nonzero logical power, i.e. is a logical operator; works for any N."""
    undetected = ~commutation_exponents(xz, _stabilizer_rows(lat), lat.n).any(axis=1)
    mask = np.zeros(len(xz), dtype=bool)
    mask[undetected] = commutation_exponents(
        xz[undetected], _logical_probes(lat), lat.n).any(axis=1)
    return mask


def edge(lat: TorusLattice, direction: str, x: int, y: int) -> int:
    """Edge index; direction 'h' (toward +x) or 'v' (toward +y)."""
    if direction not in ("h", "v"):
        raise ValueError("direction must be 'h' or 'v'")
    base = 0 if direction == "h" else lat.l * lat.l
    return base + (y % lat.l) * lat.l + x % lat.l


def loop_by_edge(lat: TorusLattice, cycle: str, charge: int,
                 kind: str) -> QuditPauli:
    """Z^charge (electric) or X^charge (magnetic) along a representative
    cycle, written edge by edge: electric loops along direct-lattice
    cycles, magnetic loops along dual-lattice cycles (crossing vertical
    edges for an x-winding, horizontal edges for a y-winding)."""
    a = charge % lat.n
    xs = [0] * lat.n_edges
    zs = [0] * lat.n_edges
    if kind == "electric":
        if cycle == "x":
            for x in range(lat.l):
                zs[edge(lat, "h", x, 0)] = a
        elif cycle == "y":
            for y in range(lat.l):
                zs[edge(lat, "v", 0, y)] = a
        else:
            raise ValueError("cycle must be 'x' or 'y'")
    elif kind == "magnetic":
        if cycle == "x":
            for x in range(lat.l):
                xs[edge(lat, "v", x, 0)] = a
        elif cycle == "y":
            for y in range(lat.l):
                xs[edge(lat, "h", 0, y)] = a
        else:
            raise ValueError("cycle must be 'x' or 'y'")
    else:
        raise ValueError("kind must be 'electric' or 'magnetic'")
    return QuditPauli(tuple(xs), tuple(zs), lat.n)


def stabilizers_by_vertex(lat: TorusLattice) -> list[QuditPauli]:
    """l^2 star operators followed by l^2 plaquette operators."""
    stabs = []
    for y in range(lat.l):
        for x in range(lat.l):
            xs = [0] * lat.n_edges
            xs[edge(lat, "h", x, y)] += 1       # outgoing +x
            xs[edge(lat, "v", x, y)] += 1       # outgoing +y
            xs[edge(lat, "h", x - 1, y)] -= 1   # incoming from -x
            xs[edge(lat, "v", x, y - 1)] -= 1   # incoming from -y
            stabs.append(QuditPauli(tuple(xs), (0,) * lat.n_edges, lat.n))
    for y in range(lat.l):
        for x in range(lat.l):
            zs = [0] * lat.n_edges
            zs[edge(lat, "h", x, y)] += 1       # bottom, +x
            zs[edge(lat, "v", x + 1, y)] += 1   # right, +y
            zs[edge(lat, "h", x, y + 1)] -= 1   # top, -x
            zs[edge(lat, "v", x, y)] -= 1       # left, -y
            stabs.append(QuditPauli((0,) * lat.n_edges, tuple(zs), lat.n))
    return stabs


def kl_elements(lat: TorusLattice, errors: PauliArray) -> np.ndarray:
    """M[a, b, i, j] = <j| E_b^dag E_a |i> on the sector basis, exactly.

    i and j index the sector basis in ``sector_labels`` order.  Since
    commutation exponents are linear in xz, P_ab commutes with every
    stabilizer iff E_a and E_b have the same syndrome, and its logical
    powers (gamma, delta, alpha, beta) are differences of theirs.  Then
    P_ab |s, t> = e^{i pi phi / N} w^(gamma s + beta (t - delta))
    |s + alpha, t - delta>.
    """
    n, k = lat.n, lat.n * lat.n
    syndrome = commutation_exponents(errors.xz, _stabilizer_rows(lat), n)
    _, cls = np.unique(syndrome, axis=0, return_inverse=True)
    cls = cls.reshape(-1)
    ea, eb = np.nonzero(cls[:, None] == cls[None, :])   # undetected pairs
    logical = commutation_exponents(errors.xz, _logical_probes(lat), n)
    gamma, delta, alpha, beta = ((logical[ea] - logical[eb]) % n).T[:, :, None]
    phi = pair_phases(errors, ea, eb)[:, None]
    s, t = np.divmod(np.arange(k), n)
    expo = (phi + 2 * (gamma * s + beta * (t - delta))) % (2 * n)
    target = ((s + alpha) % n) * n + (t - delta) % n
    m = np.zeros((len(errors), len(errors), k, k), dtype=np.complex128)
    m[ea[:, None], eb[:, None], np.arange(k), target] = \
        np.exp(1j * np.pi * np.arange(2 * n) / n)[expo]
    return m


def _digits(n: int, n_edges: int) -> np.ndarray:
    """Base-N digits of every basis index, edge 0 most significant; (E, D)."""
    d = n ** n_edges
    idx = np.arange(d, dtype=np.int64)
    out = np.empty((n_edges, d), dtype=np.int8)
    for e in range(n_edges - 1, -1, -1):
        out[e] = idx % n
        idx //= n
    return out


def pauli_permutation(lat: TorusLattice, xz: np.ndarray, phase: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(target indices, phases): P|j> = phases[j] |targets[j]> for the Pauli
    e^{i pi phase / N} X^x Z^z with row ``xz`` = (x | z), from the digits of
    every basis index; the oracle for ``toriccode.apply_pauli``."""
    n, m = lat.n, lat.n_edges
    digits = _digits(n, m)
    xz = np.asarray(xz) % n
    targets = np.arange(lat.dim, dtype=np.int64)
    expo = np.zeros(lat.dim, dtype=np.int64)
    for e in np.flatnonzero(xz[:m] | xz[m:]):
        w_e = n ** (m - 1 - e)
        xe, ze = xz[e], xz[m + e]
        de = digits[e].astype(np.int64)
        if xe:
            targets += (((de + xe) % n) - de) * w_e
        if ze:
            expo += ze * de
    omega = np.exp(2j * np.pi * (expo % n) / n)
    global_phase = np.exp(1j * np.pi * (int(phase) % (2 * n)) / n)
    return targets, global_phase * omega


def apply_by_permutation(lat: TorusLattice, xz: np.ndarray, phase: int,
                         vec: np.ndarray) -> np.ndarray:
    """P vec from ``pauli_permutation``: phases[j] vec[j] lands on targets[j]."""
    targets, phases = pauli_permutation(lat, xz, phase)
    out = np.zeros_like(vec, dtype=np.complex128)
    out[targets] = phases.reshape(phases.shape + (1,) * (vec.ndim - 1)) * vec
    return out


def pauli_dense(lat: TorusLattice, p: QuditPauli) -> np.ndarray:
    """Dense matrix, for small-lattice cross-checks only."""
    targets, phases = pauli_permutation(lat, p.xz, p.phase)
    d = lat.dim
    m = np.zeros((d, d), dtype=np.complex128)
    m[targets, np.arange(d)] = phases
    return m


def pauli_adjoint(a: QuditPauli) -> QuditPauli:
    n = a.n
    cross = sum(za * xa for za, xa in zip(a.z_powers, a.x_powers))
    x = tuple((-xa) % n for xa in a.x_powers)
    z = tuple((-za) % n for za in a.z_powers)
    return QuditPauli(x, z, n, -a.phase + 2 * cross)


def _rank_mod_p(rows: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p); p must be prime."""
    m = rows % p
    m = m.astype(np.int64).copy()
    rank = 0
    cols = m.shape[1]
    for c in range(cols):
        pivot = None
        for r in range(rank, m.shape[0]):
            if m[r, c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, c]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        for r in range(m.shape[0]):
            if r != rank and m[r, c] % p:
                m[r] = (m[r] - m[r, c] * m[rank]) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def ssr_certificate(lat: TorusLattice, p: QuditPauli,
                    stabilizers: Optional[Sequence[QuditPauli]] = None) -> str:
    """Symbolic proof that every off-diagonal sector element of ``p`` is 0.

    Returns 'detected' when p fails to commute with some stabilizer (then
    every ground-space matrix element vanishes), 'stabilizer' when p lies
    in the stabilizer group up to phase (then it acts as a scalar and all
    off-diagonal elements vanish), or 'logical' otherwise.  Membership is
    decided by rank over GF(N), so N must be prime.
    """
    if not _is_prime(lat.n):
        raise ValueError("symbolic membership test requires prime N")
    if stabilizers is None:
        stabilizers = stabilizer_paulis(lat)
    for s in stabilizers:
        if commutation_exponent(p, s):
            return "detected"
    rows = np.array([list(s.x_powers) + list(s.z_powers) for s in stabilizers],
                    dtype=np.int64)
    vec = np.array(list(p.x_powers) + list(p.z_powers), dtype=np.int64)
    if _rank_mod_p(rows, lat.n) == _rank_mod_p(np.vstack([rows, vec]), lat.n):
        return "stabilizer"
    return "logical"


def oracle_report(lat: TorusLattice, errors: PauliArray,
                  tol: float = 1e-9) -> tuple[klcore.KLReport, np.ndarray]:
    """The dense report and its deviation array M - C delta_ij."""
    m = kl_elements(lat, errors)
    report = klcore.report_from_elements(m, tol)
    diag = np.arange(m.shape[2])
    m[:, :, diag, diag] -= report.c_matrix[:, :, None]
    return report, m


def dense_c(report) -> np.ndarray:
    """The E x E C matrix of a ``SyndromeKLReport``, from its class blocks."""
    c = np.zeros((report.n_errors, report.n_errors), dtype=np.complex128)
    for errors, block in report.c_blocks:
        c[np.ix_(errors, errors)] = block
    return c


def root_table_json(lat: TorusLattice, errors: PauliArray, report) -> dict:
    """``report.to_json()`` of a ``kl_check_errors`` report on ``errors``,
    with each C entry and recorded deviation read from the table of the 2N
    roots e^{i pi k / N} at its phase k mod 2N."""
    n = lat.n
    table = np.exp(1j * np.pi * np.arange(2 * n) / n)
    logical = commutation_exponents(errors.xz, _logical_probes(lat), n)
    out = report.to_json()
    for block, (members, _) in zip(out["c_blocks"], report.c_blocks):
        a, b = np.meshgrid(members, members, indexing="ij")
        same = (logical[a] == logical[b]).all(axis=-1)
        c = np.where(same, table[pair_phases(errors, a, b)], 0)
        block["re"], block["im"] = c.real.tolist(), c.imag.tolist()
    for v in out["violations"]:
        gamma, delta, alpha, beta = (logical[v["a"]] - logical[v["b"]]) % n
        s, t = divmod(v["i"], n)
        k = (pair_phases(errors, v["a"], v["b"])
             + 2 * (gamma * s + beta * (t - delta))) % (2 * n)
        v["deviation_re"], v["deviation_im"] = float(table[k].real), float(table[k].imag)
    return out
