"""Relativistic 2->2 cross-section engine: Dirac algebra and kinematics.

Natural units (hbar = c = 1), energies in MeV, metric signature +---.
The pion-emission amplitude proton + scalar -> neutron + pion is built
from Dirac spinors in the Dirac representation; the total cross-section
carries the threshold step function explicitly, with theta(0) = 0 so
sigma vanishes exactly at threshold.

``amplitude_p_to_n`` and ``spin_summed_amp2`` evaluate one kinematic point
and one spin pair at a time; they are the scalar reference.  A sweep runs
through ``sigma_tot_grid``: ``spin_summed_amp2_grid`` builds the momenta,
both spinors, vertex and propagator of every (energy, quadrature node) row
as arrays and gets all four spin amplitudes from one batched product.  Rows
go in chunks of ``GRID_CHUNK_ROWS // n_theta`` energies (at least one), so
the per-(energy, node) temporaries hold at most max(GRID_CHUNK_ROWS, n_theta)
rows, about 12 MiB at n_theta <= 2**14.  On top of that come a few arrays of
one value per energy and the Gauss-Legendre eigenproblem, O(n_theta^2).
``check_energies`` runs every check of a sweep without its amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import PropagatorPoleError

POLE_GUARD = 1.0  # MeV^2: |k^2 - m_p^2| below this raises PropagatorPoleError
# (energy, node) rows per spin_summed_amp2_grid call in sigma_tot_grid;
# each row holds about 0.8 KiB of temporaries at the peak.
GRID_CHUNK_ROWS = 2 ** 14
# Largest n_theta an xsec config may ask for.  leggauss solves an
# n_theta x n_theta eigenproblem: about 0.12 s at 1024, 0.64 s at 2048 and
# 4.2 s at 4096 nodes on a 2-vCPU VM, and 2 GiB of matrix at 2**14.
MAX_N_THETA = 2048
# default conservation_tol (MeV) of the scalar path and the relative on-shell
# tolerance of dirac_u; the batched kernel uses the same values
_KINEMATIC_TOL = 1e-6


@dataclass(frozen=True)
class FourMomentum:
    e: float
    px: float
    py: float
    pz: float

    @classmethod
    def on_shell(cls, m: float, px: float = 0.0, py: float = 0.0,
                 pz: float = 0.0) -> "FourMomentum":
        return cls(math.sqrt(m * m + px * px + py * py + pz * pz), px, py, pz)

    def dot(self, other: "FourMomentum") -> float:
        return (self.e * other.e - self.px * other.px
                - self.py * other.py - self.pz * other.pz)

    def mass2(self) -> float:
        return self.dot(self)

    def __add__(self, other: "FourMomentum") -> "FourMomentum":
        return FourMomentum(self.e + other.e, self.px + other.px,
                            self.py + other.py, self.pz + other.pz)

    def __sub__(self, other: "FourMomentum") -> "FourMomentum":
        return FourMomentum(self.e - other.e, self.px - other.px,
                            self.py - other.py, self.pz - other.pz)

    def boost_z(self, rapidity: float) -> "FourMomentum":
        ch, sh = math.cosh(rapidity), math.sinh(rapidity)
        return FourMomentum(ch * self.e + sh * self.pz, self.px, self.py,
                            sh * self.e + ch * self.pz)

    def rotate(self, r: np.ndarray) -> "FourMomentum":
        v = r @ np.array([self.px, self.py, self.pz])
        return FourMomentum(self.e, float(v[0]), float(v[1]), float(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.e, self.px, self.py, self.pz])


# ---------------------------------------------------------------------------
# Gamma matrices, Dirac representation


def _build_gammas() -> tuple[np.ndarray, ...]:
    s0 = np.eye(2, dtype=np.complex128)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    zero = np.zeros((2, 2), dtype=np.complex128)
    g0 = np.block([[s0, zero], [zero, -s0]])
    gs = [np.block([[zero, s], [-s, zero]]) for s in (sx, sy, sz)]
    g5 = np.block([[zero, s0], [s0, zero]])
    return g0, gs[0], gs[1], gs[2], g5


@dataclass(frozen=True)
class GammaBasis:
    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g5: np.ndarray

    @property
    def metric(self) -> np.ndarray:
        return np.diag([1.0, -1.0, -1.0, -1.0])

    def gammas(self) -> tuple[np.ndarray, ...]:
        return (self.g0, self.g1, self.g2, self.g3)

    def slash(self, p: FourMomentum) -> np.ndarray:
        return (p.e * self.g0 - p.px * self.g1 - p.py * self.g2
                - p.pz * self.g3)


GAMMA = GammaBasis(*_build_gammas())


def dirac_u(p: FourMomentum, m: float, spin: int) -> np.ndarray:
    """Positive-energy spinor, Dirac representation, normalized u-bar u = 2m."""
    if spin not in (+1, -1):
        raise ValueError("spin must be +1 or -1")
    if abs(p.mass2() - m * m) > _KINEMATIC_TOL * max(m * m, 1.0):
        raise ValueError(f"momentum off shell: p^2 = {p.mass2()}, m^2 = {m*m}")
    xi = np.array([1.0, 0.0], dtype=np.complex128) if spin == +1 \
        else np.array([0.0, 1.0], dtype=np.complex128)
    sigma_p = np.array([[p.pz, p.px - 1j * p.py],
                        [p.px + 1j * p.py, -p.pz]], dtype=np.complex128)
    upper = xi
    lower = sigma_p @ xi / (p.e + m)
    return math.sqrt(p.e + m) * np.concatenate([upper, lower])


def u_bar(u: np.ndarray) -> np.ndarray:
    return u.conj() @ GAMMA.g0


# ---------------------------------------------------------------------------
# Kinematics


def cm_momentum(e_cm: float, m_a: float, m_b: float) -> float:
    """Two-body CM momentum; returns 0 below threshold (physical, not an error)."""
    if e_cm <= 0:
        raise ValueError("e_cm must be positive")
    if e_cm <= m_a + m_b:
        return 0.0
    # x * x, not x ** 2: libm pow(x, 2) misrounds about one square in 1000,
    # and the batched path (numpy squares exactly) must see the same momenta
    val = (e_cm * e_cm - (m_a + m_b) ** 2) * (e_cm * e_cm - (m_a - m_b) ** 2)
    return math.sqrt(val) / (2.0 * e_cm)


@dataclass(frozen=True)
class ThresholdEnergy:
    exact: float
    approximate: float


def threshold_incident_energy(m_p: float, m_pi: float, m_phi: float
                              ) -> ThresholdEnergy:
    """Stationary-target threshold energy of the incident scalar.

    Exact: E* with s = m_p^2 + m_phi^2 + 2 m_p E* = (m_p + m_pi)^2 in the
    isospin limit m_n = m_p, i.e. E* = (2 m_p m_pi + m_pi^2 - m_phi^2)/(2 m_p).
    Also returns the approximate form m_pi + m_pi^2 / (2 m_p), which is exact
    at m_phi = 0.
    """
    if m_p <= 0 or m_pi <= 0 or m_phi < 0:
        raise ValueError("masses must be positive (m_phi >= 0)")
    exact = (2.0 * m_p * m_pi + m_pi ** 2 - m_phi ** 2) / (2.0 * m_p)
    approx = m_pi + m_pi ** 2 / (2.0 * m_p)
    return ThresholdEnergy(exact, approx)


def cm_kinematics(e_cm: float, m1: float, m2: float, m3: float, m4: float,
                  cos_theta: float) -> tuple[FourMomentum, ...]:
    """CM-frame momenta with the outgoing pair in the x-z plane."""
    k_in = cm_momentum(e_cm, m1, m2)
    k_out = cm_momentum(e_cm, m3, m4)
    if k_in == 0.0:
        raise ValueError("invalid initial state: e_cm <= m1 + m2")
    st = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    k1 = FourMomentum.on_shell(m1, 0.0, 0.0, k_in)
    k2 = FourMomentum.on_shell(m2, 0.0, 0.0, -k_in)
    k3 = FourMomentum.on_shell(m3, k_out * st, 0.0, k_out * cos_theta)
    k4 = FourMomentum.on_shell(m4, -k_out * st, 0.0, -k_out * cos_theta)
    return k1, k2, k3, k4


# ---------------------------------------------------------------------------
# Amplitude


def amplitude_p_to_n(k1: FourMomentum, k2: FourMomentum, k3: FourMomentum,
                     k4: FourMomentum, g1: float, g2: float, lam: float,
                     spins: tuple[int, int] = (+1, +1),
                     m_p: Optional[float] = None,
                     m_n: Optional[float] = None,
                     conservation_tol: float = _KINEMATIC_TOL) -> complex:
    """Tree amplitude p + phi -> n + pi with an s-channel proton propagator.

    The propagator is evaluated through the (kslash + m)/(k^2 - m^2)
    identity; no matrix inversion.  Energy-momentum conservation beyond
    ``conservation_tol`` (MeV) is an error, never a silent result.
    """
    total = (k1 + k2) - (k3 + k4)
    if max(abs(x) for x in total.as_array()) > conservation_tol:
        raise ValueError("energy-momentum not conserved at the required tolerance")
    mp = m_p if m_p is not None else math.sqrt(max(k1.mass2(), 0.0))
    mn = m_n if m_n is not None else math.sqrt(max(k3.mass2(), 0.0))
    k = k1 + k2
    den = k.mass2() - mp * mp
    if abs(den) < POLE_GUARD:
        raise PropagatorPoleError(
            f"|k^2 - m_p^2| = {abs(den)} below pole guard {POLE_GUARD}")
    s1, s3 = spins
    u1 = dirac_u(k1, mp, s1)
    u3 = dirac_u(k3, mn, s3)
    vertex = (-1j * g1) * (GAMMA.slash(k4) @ GAMMA.g5) - g2 * GAMMA.g5
    propagator = 1j * (GAMMA.slash(k) + mp * np.eye(4)) / den
    return complex((-1j * lam) * (u_bar(u3) @ vertex @ propagator @ u1))


def spin_summed_amp2(k1: FourMomentum, k2: FourMomentum, k3: FourMomentum,
                     k4: FourMomentum, g1: float, g2: float, lam: float,
                     m_p: Optional[float] = None, m_n: Optional[float] = None) -> float:
    """(1/2) sum over spins of |A|^2: initial-spin averaged, final summed."""
    total = 0.0
    for s1 in (+1, -1):
        for s3 in (+1, -1):
            a = amplitude_p_to_n(k1, k2, k3, k4, g1, g2, lam, (s1, s3),
                                 m_p=m_p, m_n=m_n)
            total += abs(a) ** 2
    return total / 2.0


# ---------------------------------------------------------------------------
# Batched amplitude: (energy, cos theta) grids as arrays

# eta_mu gamma^mu and eta_mu gamma^mu gamma5 as (4, 16) rows: slash(p) is
# p @ rows.  Entries are 0, +-1, +-i, so the products are exact.
_G_ETA = np.stack(GAMMA.gammas()) * np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]
_SLASH, _SLASH_G5 = _G_ETA.reshape(4, 16), (_G_ETA @ GAMMA.g5).reshape(4, 16)


def _slash(p: np.ndarray, rows: np.ndarray = _SLASH) -> np.ndarray:
    """GAMMA.slash(p) (or GAMMA.slash(p) @ g5) for p of shape (..., 4)."""
    return (p @ rows).reshape(p.shape[:-1] + (4, 4))


def _mass2(p: np.ndarray) -> np.ndarray:
    return p[..., 0] * p[..., 0] - p[..., 1] * p[..., 1] \
        - p[..., 2] * p[..., 2] - p[..., 3] * p[..., 3]


def _on_shell(m: float, px, pz) -> np.ndarray:
    """FourMomentum.on_shell(m, px, 0, pz) for arrays, as (..., 4)."""
    px, pz = np.broadcast_arrays(px, pz)
    return np.stack([np.sqrt(m * m + px * px + pz * pz), px,
                     np.zeros_like(px), pz], axis=-1)


def _cm_momenta(e: np.ndarray, m_a: float, m_b: float) -> np.ndarray:
    """cm_momentum for an array of energies: 0 at or below threshold."""
    val = (e * e - (m_a + m_b) ** 2) * (e * e - (m_a - m_b) ** 2)
    return np.where(e > m_a + m_b, np.sqrt(np.maximum(val, 0.0)) / (2.0 * e), 0.0)


def _spinors(p: np.ndarray, m: float) -> np.ndarray:
    """dirac_u for spins +1 and -1 as the two columns of (..., 4, 2)."""
    e, px, py, pz = np.moveaxis(p, -1, 0)
    u = np.zeros(p.shape[:-1] + (4, 2), dtype=np.complex128)
    u[..., 0, 0] = u[..., 1, 1] = 1.0
    u[..., 2, 0], u[..., 2, 1] = pz, px - 1j * py
    u[..., 3, 0], u[..., 3, 1] = px + 1j * py, -pz
    u[..., 2:, :] /= (e + m)[..., None, None]
    return np.sqrt(e + m)[..., None, None] * u


def _initial_state(e: np.ndarray, m1: float, m2: float):
    """k1 along +z, k = k1 + k2 and k^2 - m_p^2 (m_p = m1) per energy."""
    k_in = _cm_momenta(e, m1, m2)
    if np.any(k_in == 0.0):
        raise ValueError("invalid initial state: e_cm <= m1 + m2")
    k1 = _on_shell(m1, 0.0, k_in)
    k = k1 + _on_shell(m2, 0.0, -k_in)
    return k1, k, _mass2(k) - m1 * m1


def _check_pole(den: np.ndarray) -> None:
    near = np.abs(den) < POLE_GUARD
    if near.any():
        raise PropagatorPoleError(f"|k^2 - m_p^2| = {float(np.abs(den[near][0]))} "
                                  f"below pole guard {POLE_GUARD}")


def _grid_kinematics(e: np.ndarray, c: np.ndarray,
                     masses: tuple[float, float, float, float]):
    """Momenta k1, k = k1 + k2, k^2 - m_p^2, k3 and k4 of every (E, c) row,
    for ``e`` of shape (E, 1) and ``c`` of shape (1, T), after the kinematic
    checks of spin_summed_amp2_grid."""
    m1, m2, m3, m4 = masses
    k1, k, den = _initial_state(e, m1, m2)                     # (E, 1, ...)
    k_out = _cm_momenta(e, m3, m4)
    st = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    k3 = _on_shell(m3, k_out * st, k_out * c)                  # (E, T, 4)
    k4 = _on_shell(m4, -k_out * st, -k_out * c)
    if np.any(np.abs(k - (k3 + k4)) > _KINEMATIC_TOL):
        raise ValueError("energy-momentum not conserved at the required tolerance")
    _check_pole(den)
    for p, m in ((k1, m1), (k3, m3)):
        p2 = _mass2(p)
        off = np.abs(p2 - m * m) > _KINEMATIC_TOL * max(m * m, 1.0)
        if off.any():
            raise ValueError(f"momentum off shell: p^2 = {float(p2[off][0])}, "
                             f"m^2 = {m * m}")
    return k1, k, den, k3, k4


def spin_summed_amp2_grid(e_cm, cos_theta, masses: tuple[float, float, float, float],
                          g1: float, g2: float, lam: float) -> np.ndarray:
    """spin_summed_amp2 at cm_kinematics(E, *masses, c) for every E x c.

    Returns an (E, T) array.  m_p = m1 and m_n = m3, as in make_amp2.  The
    checks of the scalar path run on every row, in its order: energy-momentum
    conservation (ValueError), the pole guard (PropagatorPoleError), then the
    on-shell test of the proton and neutron spinors (ValueError).
    """
    m1 = masses[0]
    k1, k, den, k3, k4 = _grid_kinematics(np.asarray(e_cm, dtype=float)[:, None],
                                          np.asarray(cos_theta, dtype=float)[None, :],
                                          masses)
    vertex = _slash(k4, (-1j * g1) * _SLASH_G5) - g2 * GAMMA.g5
    propagator = 1j * (_slash(k) + m1 * np.eye(4)) / den[..., None, None]
    u1, u3 = _spinors(k1, m1), _spinors(k3, masses[2])
    u3_bar = u3.conj().swapaxes(-1, -2) * GAMMA.g0.diagonal()  # u-bar; g0 diagonal
    amp = (-1j * lam) * (u3_bar @ vertex @ (propagator @ u1))  # (E, T, s3, s1)
    return (amp.real ** 2 + amp.imag ** 2).sum(axis=(-2, -1)) / 2.0


# ---------------------------------------------------------------------------
# Cross-section


def _require_zero_below(sigma, above) -> None:
    """theta(0) = 0: sigma must be exactly 0.0 wherever ``above`` is False."""
    if np.any(np.asarray(sigma)[~np.asarray(above)] != 0.0):
        raise ValueError("sigma must be exactly 0 below threshold")


@dataclass(frozen=True)
class CrossSectionResult:
    """One energy of the scalar oracle ``sigma_tot``."""

    sigma: float           # MeV^-2
    above_threshold: bool
    e_cm: float

    def __post_init__(self):
        _require_zero_below(self.sigma, self.above_threshold)


def _quadrature(e: np.ndarray, masses: tuple[float, float, float, float],
                n_theta: int):
    """Threshold step, Gauss-Legendre nodes and weights, and the prefactor
    (|k3|/|k1|) 2 pi / (64 pi^2 E^2) of each energy above threshold."""
    m1, m2, m3, m4 = masses
    if np.any(e <= m1 + m2):
        raise ValueError("invalid initial state: e_cm <= m1 + m2")
    if n_theta < 2:
        raise ValueError("n_theta must be >= 2")
    above = e > m3 + m4
    ea = e[above]
    prefactor = (1.0 / (64.0 * math.pi ** 2 * ea ** 2)) \
        * (_cm_momenta(ea, m3, m4) / _cm_momenta(ea, m1, m2)) * 2.0 * math.pi
    nodes, weights = _gauss_legendre(n_theta)
    return above, prefactor, nodes, weights


@lru_cache(maxsize=8)
def _gauss_legendre(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per n_theta
    (an xsec plan checks the grid and its run integrates on the same nodes);
    read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _chunks(size: int, n_theta: int) -> list[slice]:
    """Slices of ``size`` energies, GRID_CHUNK_ROWS // n_theta each (at least one)."""
    per_chunk = max(1, GRID_CHUNK_ROWS // n_theta)
    return [np.s_[lo:lo + per_chunk] for lo in range(0, size, per_chunk)]


def _weighted_sum(weights, values):
    """sum_j w_j values_j, added in node order: each energy's integral is the
    same however the energies are batched."""
    total = 0.0
    for w, v in zip(weights, values):
        total = total + w * v
    return total


def sigma_tot(e_cm: float, masses: tuple[float, float, float, float],
              amp2: Callable[[float], float], n_theta: int = 64
              ) -> CrossSectionResult:
    """Total cross-section with the threshold step function.

    sigma = (1 / (64 pi^2 E^2)) (|k3| / |k1|) theta(E - m3 - m4)
            * 2 pi * int_{-1}^{1} dcos(theta) amp2(cos theta),
    by Gauss-Legendre quadrature in cos(theta).  theta(0) = 0: at and
    below threshold the result is exactly zero with the flag cleared.
    """
    above, prefactor, nodes, weights = _quadrature(np.array([e_cm], dtype=float),
                                                   masses, n_theta)
    if not above[0]:
        return CrossSectionResult(0.0, False, e_cm)
    integral = _weighted_sum(weights, [amp2(float(x)) for x in nodes])
    return CrossSectionResult(float(prefactor[0] * integral), True, e_cm)


def sigma_tot_grid(e_values, masses: tuple[float, float, float, float],
                   g1: float, g2: float, lam: float, n_theta: int = 64
                   ) -> tuple[np.ndarray, np.ndarray]:
    """sigma_tot with make_amp2's |A|^2 for every energy of a sweep, as the
    columns (sigma, above): float64 sigma and the bool threshold flag, in
    energy order, with sigma exactly 0.0 wherever the flag is False.

    Energies above threshold go through spin_summed_amp2_grid in chunks of
    GRID_CHUNK_ROWS // n_theta energies (at least one).  Each energy's
    integral is summed in node order, so it does not depend on the chunking.
    """
    e = np.asarray(e_values, dtype=float)
    above, prefactor, nodes, weights = _quadrature(e, masses, n_theta)
    ea = e[above]
    integral = np.empty(ea.shape)
    for sl in _chunks(ea.size, n_theta):
        amp2 = spin_summed_amp2_grid(ea[sl], nodes, masses, g1, g2, lam)
        integral[sl] = _weighted_sum(weights, amp2.T)
    sigma = np.zeros(e.shape)
    sigma[above] = prefactor * integral
    _require_zero_below(sigma, above)
    return sigma, above


def sweep_bytes(steps: int, n_theta: int) -> int:
    """Bytes an xsec run of ``steps`` energies holds at most, in closed form:
    one chunk of GRID_CHUNK_ROWS (energy, node) rows at 1 KiB a row, two
    n_theta x n_theta doubles for the nodes, and 256 B per energy for its
    columns, their Python floats and the CSV text (at 4 10^5 steps its
    tracemalloc peak holds about 150 B, and at 10^6 its max RSS about 145 B,
    per energy)."""
    return 1024 * GRID_CHUNK_ROWS + 16 * n_theta ** 2 + 256 * steps


def check_energies(e_values, masses: tuple[float, float, float, float],
                   n_theta: int = 64) -> None:
    """Refuse a sweep before any amplitude is built, as sigma_tot_grid would:
    the same checks on the same (energy, node) rows, in the same chunks, so
    the check needs no more memory than one chunk."""
    e = np.asarray(e_values, dtype=float)
    above, _, nodes, _ = _quadrature(e, masses, n_theta)
    ea = e[above]
    for sl in _chunks(ea.size, n_theta):
        _grid_kinematics(ea[sl, None], nodes[None, :], masses)


def make_amp2(e_cm: float, masses: tuple[float, float, float, float],
              g1: float, g2: float, lam: float) -> Callable[[float], float]:
    """Spin-summed |A|^2 as a function of cos(theta) at fixed CM energy:
    a one-energy, one-node view of spin_summed_amp2_grid."""

    def amp2(cos_theta: float) -> float:
        return float(spin_summed_amp2_grid([e_cm], [cos_theta], masses, g1, g2,
                                           lam)[0, 0])

    return amp2
