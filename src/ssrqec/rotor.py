"""Truncated U(1) rotor: charge lattice, two-mode codewords, recovery.

The rotor is the charge ladder q = -q_max..q_max (dimension 2*q_max + 1).
Two-mode codewords spread a logical charge q over a window of relative
charges q_tilde on registers A and B; phase flips confined to B are
corrected exactly by measuring B's charge and relabeling A.  A codeword
has 2W + 1 nonzero amplitudes and phase flips are diagonal in charge, so
states are ``ChargeState`` lists of those amplitudes and their charges, and
the recovery is one sorted pass over them that returns every outcome's
probability and logical pair as arrays.  The
``m_inv`` construction simulates SSR-violating operators with a discrete
reference register of phase states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .hilbert import Operator, ProductSpace, StateVector

PROB_FLOOR = 1e-15
LOGICAL_AMP = 1 / math.sqrt(2)  # alpha = beta of every rotor logical state
FIDELITY_TOL = 1e-10  # a recovery this close to fidelity 1 is right


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

    def product_space(self, label: str = "rotor") -> ProductSpace:
        return ProductSpace((self.dim,), (label,))


@dataclass(frozen=True)
class GroupDiscretization:
    """n_g equally spaced phase points theta_m = 2 pi m / n_g."""

    n_g: int

    def __post_init__(self):
        if self.n_g < 1:
            raise ValueError("n_g must be positive")


class ChargeState:
    """A state on rotor registers: row i of the int64 (entries x registers)
    ``charges`` holds the register charges of ``amplitudes[i]``, and the rows
    are distinct.  The last two registers are A and B; any before them (such
    as a reference register R) are spectators."""

    __slots__ = ("charges", "amplitudes", "spaces", "labels")

    def __init__(self, charges: np.ndarray, amplitudes: np.ndarray, spaces, labels):
        self.charges, self.amplitudes, self.spaces, self.labels = (
            charges, amplitudes, tuple(spaces), tuple(labels))

    def dense(self) -> StateVector:
        """The ``StateVector`` on the product of the register spaces."""
        space = ProductSpace(tuple(s.dim for s in self.spaces), self.labels)
        index = self.charges + [s.q_max for s in self.spaces]
        amps = np.zeros(space.dim, dtype=np.complex128)
        amps[np.ravel_multi_index(index.T, space.factor_dims)] = self.amplitudes
        return StateVector(space, amps)

    def combine(self, a: complex, other: "ChargeState", b: complex) -> "ChargeState":
        """a * self + b * other; amplitudes at a shared charge row add."""
        if self.spaces != other.spaces:
            raise ValueError("charge states on different registers")
        charges = np.concatenate((self.charges, other.charges))
        amps = np.concatenate((a * self.amplitudes, b * other.amplitudes))
        order = np.lexsort(charges.T)
        charges, amps = charges[order], amps[order]
        new = np.ones(len(amps), dtype=bool)
        new[1:] = (charges[1:] != charges[:-1]).any(axis=1)  # a repeat: one per state
        return ChargeState(charges[new], np.add.reduceat(amps, np.flatnonzero(new)),
                           self.spaces, self.labels)


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
                   sigma: Optional[float] = None) -> ChargeState:
    """Sum_{q~} c_{q,q~} |q - q~>_A |q~>_B, normalized.

    The window must fit the truncation: |q| + W <= q_max on A and
    W <= q_max on B, so no component leaves either register.
    """
    if abs(q) + window > space_a.q_max or window > space_b.q_max:
        raise ValueError(
            f"window {window} with logical charge {q} overflows the truncation")
    coeffs = _profile_coeffs(profile, window, sigma)
    q_tilde = np.arange(-window, window + 1)
    return ChargeState(np.stack((q - q_tilde, q_tilde), axis=1), coeffs,
                       (space_a, space_b), ("A", "B"))


def apply_phase_flip(psi: ChargeState, q: int, side: str) -> ChargeState:
    """Z_q on register ``side`` ("A" or "B") of ``psi``: negate its charge-q entries."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    col = -2 if side == "A" else -1
    psi.spaces[col].index(q)  # ValueError outside the truncation
    amps = np.where(psi.charges[:, col] == q, -psi.amplitudes, psi.amplitudes)
    return ChargeState(psi.charges, amps, psi.spaces, psi.labels)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where the sorted ``keys`` start a run of equal values."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def enumerate_recovery(psi: ChargeState, logical_charges: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every B-measurement outcome: ``(outcomes, probabilities, alphas, betas)``.

    ``psi`` lives on A tensor B, after any spectators (possibly an
    error-corrupted superposition of two codewords built with identical
    coefficient profiles).  For each outcome q_tilde the surviving A-register
    branch is projected onto |q_1 - q_tilde>_A and |q_2 - q_tilde>_A to
    extract the logical pair (alpha, beta).  One sort, by B charge and then
    by the registers in order, groups the entries by outcome; ``bincount``
    sums the Born weights in the dense column order, so the probabilities
    are the dense ones bitwise.  The arrays run in ascending outcome order
    and skip outcomes that are improbable, incompatible with either logical
    charge, or carry a vanishing logical branch.
    """
    q1, q2 = logical_charges
    if q1 == q2:
        raise ValueError("logical charges must differ")
    space_a, space_b = psi.spaces[-2:]
    order = np.lexsort(np.roll(psi.charges, 1, axis=1).T[::-1])  # last key first
    charges, amps = psi.charges[order], psi.amplitudes[order]
    a, b = charges[:, -2], charges[:, -1]
    mags = np.abs(amps)
    weights = mags ** 2
    probs = np.bincount(b + space_b.q_max, weights, space_b.dim)
    total = probs.sum()
    if total <= 0:
        raise ValueError("zero-norm state")
    probs /= total
    starts = _run_starts(b)
    outcomes = b[starts]
    group = np.cumsum(starts) - 1  # outcome index of each entry
    n = len(outcomes)
    norm2, raw = np.zeros(n), []
    for q in (q1, q2):  # the two logical branches
        sel = np.flatnonzero(a == q - b)
        norm2 += np.bincount(group[sel], weights[sel], n)
        # phase-bearing scalars: each logical branch couples to a single
        # spectator component, so the dominant entry (the first of equal
        # moduli) carries the amplitude
        sel = sel[np.lexsort((-mags[sel], group[sel]))]
        top = sel[_run_starts(group[sel])]
        amp = np.zeros(n, dtype=np.complex128)
        amp[group[top]] = amps[top]
        raw.append(amp)
    probs = probs[outcomes + space_b.q_max]
    nrm = np.sqrt(norm2)
    keep = ((probs >= PROB_FLOOR) & (nrm >= PROB_FLOOR)
            & (np.maximum(abs(q1 - outcomes), abs(q2 - outcomes)) <= space_a.q_max))
    return (outcomes[keep], probs[keep], raw[0][keep] / nrm[keep],
            raw[1][keep] / nrm[keep])


def logical_fidelity(alpha, beta, alpha_ref: complex, beta_ref: complex):
    """Overlap-squared of two logical qubit states, global phase ignored.

    ``alpha`` and ``beta`` may be arrays.  The modulus is ``hypot`` and the
    square is Python's ``float ** 2`` per element, as for scalars: numpy's
    complex ``abs`` and array square round differently for some inputs.
    """
    z = np.conj(alpha_ref) * alpha + np.conj(beta_ref) * beta
    return np.asarray(np.hypot(z.real, z.imag), dtype=object) ** 2


def wrong_guess_error_probability(space_a: RotorSpace, space_b: RotorSpace,
                                  logical_charges: tuple[int, int],
                                  flip_charge: int,
                                  profile: str = "uniform", window: int = 1) -> float:
    """Exact logical-error probability after one A-side phase flip.

    Enumerates every B-measurement outcome of the corrupted state (alpha =
    beta = LOGICAL_AMP) and sums, in ascending outcome order, the
    probability of branches whose recovered logical state differs from the
    input beyond a global phase and FIDELITY_TOL.
    """
    q1, q2 = logical_charges
    amp = LOGICAL_AMP
    w1, w2 = (build_codeword(space_a, space_b, q, profile, window) for q in (q1, q2))
    corrupted = apply_phase_flip(w1.combine(amp, w2, amp), flip_charge, "A")
    _, probs, alphas, betas = enumerate_recovery(corrupted, logical_charges)
    wrong = logical_fidelity(alphas, betas, amp, amp) < 1.0 - FIDELITY_TOL
    # cumsum adds in order, as ``p += p_i`` does (Python 3.12's ``sum`` compensates)
    return float(np.cumsum(np.append(0.0, probs[wrong]))[-1])


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
                                    profile: str = "gaussian", window: int = 1
                                    ) -> ChargeState:
    """Sum_{q, q~} alpha_q c_{q,q~} |-q>_R |q - q~>_A |q~>_B.

    The reference register R carries the compensating charge so the total
    state is a zero eigenstate of the overall charge.
    """
    total = sum(abs(a) ** 2 for a in alphas.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError("alpha amplitudes must be normalized")
    charges, amps = [], []
    for q, a_q in alphas.items():
        word = build_codeword(space, space, q, profile, window)
        charges.append(np.column_stack((np.full(len(word.charges), -q), word.charges)))
        amps.append(a_q * word.amplitudes)
    return ChargeState(np.concatenate(charges), np.concatenate(amps),
                       (space,) * 3, ("R", "A", "B"))

