"""Truncated U(1) rotor: charge lattice, two-mode codewords, recovery.

The rotor is the charge ladder q = -q_max..q_max (dimension 2*q_max + 1).
Two-mode codewords spread a logical charge q over a window of relative
charges q_tilde on registers A and B; phase flips confined to B are
corrected exactly by measuring B's charge and relabeling A.  The
``m_inv`` construction simulates SSR-violating operators with a discrete
reference register of phase states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .hilbert import (Operator, ProductSpace, StateVector, basis_state)

PROB_FLOOR = 1e-15


@dataclass(frozen=True)
class RotorSpace:
    """Charges -q_max..+q_max; charge 0 sits at the center index."""

    q_max: int

    def __post_init__(self):
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")

    @property
    def dim(self) -> int:
        return 2 * self.q_max + 1

    def index(self, q: int) -> int:
        if abs(q) > self.q_max:
            raise ValueError(f"charge {q} outside truncation |q| <= {self.q_max}")
        return q + self.q_max

    def charge_of(self, index: int) -> int:
        return index - self.q_max

    def product_space(self, label: str = "rotor") -> ProductSpace:
        return ProductSpace((self.dim,), (label,))


@dataclass(frozen=True)
class TwoModeCodeword:
    """Coefficients c_{q, q_tilde} of a logical-charge-q two-mode codeword."""

    logical_charge: int
    window: int
    coeffs: tuple[complex, ...]  # indexed by q_tilde = -W..W

    def coeff(self, q_tilde: int) -> complex:
        if abs(q_tilde) > self.window:
            return 0.0
        return self.coeffs[q_tilde + self.window]


@dataclass(frozen=True)
class GroupDiscretization:
    """n_g equally spaced phase points theta_m = 2 pi m / n_g."""

    n_g: int

    def __post_init__(self):
        if self.n_g < 1:
            raise ValueError("n_g must be positive")

    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_g) / self.n_g


def charge_state(space: RotorSpace, q: int) -> StateVector:
    return basis_state(space.product_space(), space.index(q))


def phase_flip(space: RotorSpace, q: int) -> Operator:
    """Z_q = I - 2|q><q|: -1 at charge q, +1 elsewhere."""
    d = space.dim
    diag = np.ones(d, dtype=np.complex128)
    diag[space.index(q)] = -1.0
    return Operator(space.product_space(), np.diag(diag))


def _profile_coeffs(profile: str, window: int, sigma: Optional[float]) -> np.ndarray:
    qt = np.arange(-window, window + 1, dtype=float)
    if profile == "uniform":
        c = np.ones(2 * window + 1)
    elif profile == "gaussian":
        s = sigma if sigma is not None else max(window / 3.0, 0.5)
        c = np.exp(-qt ** 2 / (4.0 * s ** 2))
    else:
        raise ValueError(f"unknown profile {profile!r}")
    c = c / np.linalg.norm(c)
    return c.astype(np.complex128)


def build_codeword(space_a: RotorSpace, space_b: RotorSpace, q: int,
                   profile: str = "gaussian", window: int = 1,
                   sigma: Optional[float] = None
                   ) -> tuple[StateVector, TwoModeCodeword]:
    """Sum_{q~} c_{q,q~} |q - q~>_A |q~>_B, normalized.

    The window must fit the truncation: |q| + W <= q_max on A and
    W <= q_max on B, so no component leaves either register.
    """
    if abs(q) + window > space_a.q_max or window > space_b.q_max:
        raise ValueError(
            f"window {window} with logical charge {q} overflows the truncation")
    coeffs = _profile_coeffs(profile, window, sigma)
    joint = space_a.product_space("A").tensor(space_b.product_space("B"))
    amps = np.zeros(joint.dim, dtype=np.complex128)
    db = space_b.dim
    for k, q_tilde in enumerate(range(-window, window + 1)):
        ia = space_a.index(q - q_tilde)
        ib = space_b.index(q_tilde)
        amps[ia * db + ib] = coeffs[k]
    record = TwoModeCodeword(q, window, tuple(coeffs.tolist()))
    return StateVector(joint, amps), record


@dataclass(frozen=True)
class RecoveryOutcome:
    outcome: int                 # measured B charge q_tilde
    probability: float
    alpha: complex               # recovered logical amplitudes, normalized
    beta: complex
    post_state: StateVector      # on A tensor B after relabeling
    note: str = ("relabeling convention: outcome-conditioned reinterpretation "
                 "|q_i - q_tilde>_A carries logical i; no active rotation applied")


def _split_dims(psi: StateVector) -> tuple[RotorSpace, RotorSpace]:
    da, db = psi.space.factor_dims[-2], psi.space.factor_dims[-1]
    if da % 2 == 0 or db % 2 == 0:
        raise ValueError("rotor registers must have odd dimension")
    return RotorSpace((da - 1) // 2), RotorSpace((db - 1) // 2)


def apply_phase_flip(psi: StateVector, q: int, side: str) -> StateVector:
    """Z_q on register ``side`` ("A" or "B") of ``psi``: negate its charge-q slice."""
    space_a, space_b = _split_dims(psi)
    amps = psi.amplitudes.reshape(-1, space_a.dim, space_b.dim).copy()
    if side == "A":
        sl = np.s_[:, space_a.index(q), :]
    elif side == "B":
        sl = np.s_[:, :, space_b.index(q)]
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    amps[sl] = -amps[sl]
    return StateVector(psi.space, amps.reshape(-1))


def enumerate_recovery(psi: StateVector, logical_charges: tuple[int, int]
                       ) -> Iterator[RecoveryOutcome]:
    """All B-measurement outcomes with their Born probabilities.

    ``psi`` lives on A tensor B (possibly error-corrupted superposition of
    two codewords built with identical coefficient profiles).  For each
    outcome q_tilde the surviving A-register branch is projected onto
    |q_1 - q_tilde>_A and |q_2 - q_tilde>_A to extract the logical pair.
    """
    q1, q2 = logical_charges
    if q1 == q2:
        raise ValueError("logical charges must differ")
    space_a, space_b = _split_dims(psi)
    da, db = space_a.dim, space_b.dim
    prefix = psi.space.dim // (da * db)  # spectator registers (e.g. R) ride along
    amps = psi.amplitudes.reshape(prefix, da, db)
    probs = np.sum(np.abs(amps) ** 2, axis=(0, 1))
    total = probs.sum()
    if total <= 0:
        raise ValueError("zero-norm state")
    probs = probs / total
    for ib in range(db):
        p = float(probs[ib])
        if p < PROB_FLOOR:
            continue
        q_tilde = space_b.charge_of(ib)
        try:
            ia1 = space_a.index(q1 - q_tilde)
            ia2 = space_a.index(q2 - q_tilde)
        except ValueError:
            continue  # outcome incompatible with both logical charges
        v1 = amps[:, ia1, ib]
        v2 = amps[:, ia2, ib]
        nrm = math.sqrt(float(np.sum(np.abs(v1) ** 2 + np.abs(v2) ** 2)))
        if nrm < PROB_FLOOR:
            continue
        # phase-bearing scalars: each logical branch couples to a single
        # spectator component, so the dominant entry carries the amplitude
        a_raw = v1[int(np.argmax(np.abs(v1)))]
        b_raw = v2[int(np.argmax(np.abs(v2)))]
        alpha, beta = a_raw / nrm, b_raw / nrm
        post = np.zeros((prefix, da, db), dtype=np.complex128)
        post[:, ia1, ib] = v1 / nrm
        post[:, ia2, ib] = v2 / nrm
        yield RecoveryOutcome(q_tilde, p, alpha, beta,
                              StateVector(psi.space, post.reshape(-1)))


def recover_by_measuring_B(psi: StateVector, logical_charges: tuple[int, int],
                           rng: Optional[np.random.Generator] = None,
                           outcome: Optional[int] = None) -> RecoveryOutcome:
    """Sample (or force) one B-charge measurement outcome and recover.

    With ``outcome`` given, that branch is selected deterministically; an
    outcome whose probability falls below 1e-15 is an error.
    """
    outcomes = {o.outcome: o for o in enumerate_recovery(psi, logical_charges)}
    if outcome is not None:
        if outcome not in outcomes:
            raise ValueError(
                f"outcome {outcome} has probability < {PROB_FLOOR} or is invalid")
        return outcomes[outcome]
    if rng is None:
        rng = np.random.default_rng()
    keys = sorted(outcomes)
    p = np.array([outcomes[k].probability for k in keys])
    choice = keys[int(rng.choice(len(keys), p=p / p.sum()))]
    return outcomes[choice]


def logical_fidelity(alpha: complex, beta: complex,
                     alpha_ref: complex, beta_ref: complex) -> float:
    """Overlap-squared of two logical qubit states, global phase ignored."""
    return abs(np.conj(alpha_ref) * alpha + np.conj(beta_ref) * beta) ** 2


def wrong_guess_error_probability(space_a: RotorSpace, space_b: RotorSpace,
                                  logical_charges: tuple[int, int],
                                  flip_charge: int,
                                  profile: str = "uniform", window: int = 1,
                                  alpha: complex = 1 / math.sqrt(2),
                                  beta: complex = 1 / math.sqrt(2),
                                  fidelity_tol: float = 1e-10) -> float:
    """Exact logical-error probability after one A-side phase flip.

    Enumerates every B-measurement outcome of the corrupted state and sums
    the probability of branches whose recovered logical state differs from
    the input beyond a global phase.
    """
    q1, q2 = logical_charges
    w1, _ = build_codeword(space_a, space_b, q1, profile, window)
    w2, _ = build_codeword(space_a, space_b, q2, profile, window)
    psi = StateVector(w1.space, alpha * w1.amplitudes + beta * w2.amplitudes)
    corrupted = apply_phase_flip(psi, flip_charge, "A")
    p_err = 0.0
    for oc in enumerate_recovery(corrupted, logical_charges):
        if logical_fidelity(oc.alpha, oc.beta, alpha, beta) < 1.0 - fidelity_tol:
            p_err += oc.probability
    return p_err


# ---------------------------------------------------------------------------
# Charge-invariant simulation M^inv


def m_inv(m_op: Operator, disc: GroupDiscretization) -> Operator:
    """Discretized charge-invariant simulation on R tensor S.

    M^inv = sum_m |theta_m><theta_m|_R (x) (e^{-i theta_m Q} M e^{+i theta_m Q})_S.
    Summing the phases over the group gives the closed form
    M^inv_{(r,s),(r',s')} = M_{ss'} [q_r + q_s = q_r' + q_s' (mod n_g)]:
    zero outside one block per class of (q_r + q_s) mod n_g, and inside
    each block the entries of M at the block's S indices.  Exact
    (orthonormal phase states, homomorphism property) at n_g = rotor
    dimension.
    """
    d = m_op.space.dim
    if d % 2 == 0:
        raise ValueError("rotor dimension must be odd")
    space = RotorSpace((d - 1) // 2)
    if disc.n_g < d:
        raise ValueError(f"n_g = {disc.n_g} < rotor dimension {d}")
    qs = np.arange(-space.q_max, space.q_max + 1)
    cls = (qs[:, None] + qs[None, :]).reshape(-1) % disc.n_g  # at index r*d + s
    s_of = np.tile(np.arange(d), d)
    m = m_op.dense()
    out = np.zeros((d * d, d * d), dtype=m.dtype)
    for c in np.unique(cls):
        idx = np.flatnonzero(cls == c)
        out[np.ix_(idx, idx)] = m[np.ix_(s_of[idx], s_of[idx])]
    joint = space.product_space("R").tensor(space.product_space("S"))
    return Operator(joint, out)


def prepare_simulated_superposition(alphas: Mapping[int, complex],
                                    space: RotorSpace,
                                    profile: str = "gaussian", window: int = 1,
                                    sigma: Optional[float] = None) -> StateVector:
    """Sum_{q, q~} alpha_q c_{q,q~} |-q>_R |q - q~>_A |q~>_B.

    The reference register R carries the compensating charge so the total
    state is a zero eigenstate of the overall charge.
    """
    total = sum(abs(a) ** 2 for a in alphas.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError("alpha amplitudes must be normalized")
    coeffs = _profile_coeffs(profile, window, sigma)
    d = space.dim
    amps = np.zeros(d * d * d, dtype=np.complex128)
    for q, a_q in alphas.items():
        if abs(q) + window > space.q_max:
            raise ValueError(f"charge {q} with window {window} overflows truncation")
        ir = space.index(-q)
        for k, q_tilde in enumerate(range(-window, window + 1)):
            ia = space.index(q - q_tilde)
            ib = space.index(q_tilde)
            amps[(ir * d + ia) * d + ib] += a_q * coeffs[k]
    joint = ProductSpace((d, d, d), ("R", "A", "B"))
    return StateVector(joint, amps)


def total_charge_operator(space: RotorSpace, n_registers: int) -> Operator:
    """Sum of single-register charge operators on n copies of the rotor."""
    qs = np.arange(-space.q_max, space.q_max + 1, dtype=float)
    total = sum(np.ix_(*([qs] * n_registers)))  # q_1 + ... + q_n on the index grid
    joint = ProductSpace((space.dim,) * n_registers, ("rotor",) * n_registers)
    return Operator(joint, np.diag(total.reshape(-1)).astype(np.complex128))
