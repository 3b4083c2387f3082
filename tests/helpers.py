"""Small operators, states and closed forms that only the tests use.

Nothing in ``ssrqec`` calls these, so they live beside the tests that
exercise them: the rotor charge states, the charge operator of one
register and the total charge of n, one sampled or forced B measurement of
a charge-list state, the truncated shift ``U+`` and the phase states of the
invariant simulation; the full trace of a density matrix; the CSV cell
format of the runner's outputs; the QCD code's effective distance and its
electromagnetic phase error.  The dense rotor protocol (single-register
``phase_flip``, codewords, simulated superpositions, phase flips and
B-measurement recovery on dense joint vectors) is the oracle for the
charge-list states of ``ssrqec.rotor``.  The dense repetition code
(``DenseRepetitionState`` on 2^n amplitudes, particle flips, scattering
branches, syndrome outcomes and majority decode) is the oracle for the
configuration-list states of ``ssrqec.qcdcode``; ``dense_psi`` and
``to_pn_state_vector`` expand a configuration-list state to 2^n amplitudes.

Truncation boundary: ``shift_up`` annihilates the top charge rather than
wrapping around, so boundary leakage shows up as norm loss instead of a
silent SSR violation.
"""

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from ssrqec.hilbert import (DensityMatrix, Operator, ProductSpace, StateVector,
                            basis_state)
from ssrqec import rotor
from ssrqec.qcdcode import (AmplitudeTable, RepetitionState, SyndromeResult,
                            alpha_decomposition)
from ssrqec.rotor import (PROB_FLOOR, ChargeState, GroupDiscretization,
                          RotorSpace, _profile_coeffs)


def trace_all(rho: DensityMatrix) -> complex:
    return complex(np.trace(rho.matrix))


def charge_state(space: RotorSpace, q: int) -> StateVector:
    return basis_state(space.product_space(), space.index(q))


def charge_operator(space: RotorSpace) -> Operator:
    qs = np.arange(-space.q_max, space.q_max + 1, dtype=float)
    return Operator(space.product_space(), np.diag(qs).astype(np.complex128))


def shift_up(space: RotorSpace) -> Operator:
    """U+ mapping |q> -> |q+1>; the top charge is annihilated (non-unitary)."""
    d = space.dim
    m = np.zeros((d, d), dtype=np.complex128)
    for i in range(d - 1):
        m[i + 1, i] = 1.0
    return Operator(space.product_space(), m)


def total_charge_operator(space: RotorSpace, n_registers: int) -> Operator:
    """Sum of single-register charge operators on n copies of the rotor."""
    qs = np.arange(-space.q_max, space.q_max + 1, dtype=float)
    total = sum(np.ix_(*([qs] * n_registers)))  # q_1 + ... + q_n on the index grid
    joint = ProductSpace((space.dim,) * n_registers, ("rotor",) * n_registers)
    return Operator(joint, np.diag(total.reshape(-1)).astype(np.complex128))


def recover_by_measuring_B(psi: ChargeState, logical_charges: tuple[int, int],
                           rng: Optional[np.random.Generator] = None,
                           outcome: Optional[int] = None
                           ) -> tuple[int, float, complex, complex]:
    """Sample (or force) one B-charge measurement outcome and recover.

    Returns ``(outcome, probability, alpha, beta)``.  With ``outcome`` given,
    that branch is selected deterministically; an outcome whose probability
    falls below 1e-15 is an error.
    """
    outcomes, probs, alphas, betas = rotor.enumerate_recovery(psi, logical_charges)
    if outcome is not None:
        hit = np.flatnonzero(outcomes == outcome)
        if not len(hit):
            raise ValueError(
                f"outcome {outcome} has probability < {PROB_FLOOR} or is invalid")
        i = int(hit[0])
    else:
        rng = np.random.default_rng() if rng is None else rng
        i = int(rng.choice(len(outcomes), p=probs / probs.sum()))
    return int(outcomes[i]), float(probs[i]), complex(alphas[i]), complex(betas[i])


def phase_state(space: RotorSpace, disc: GroupDiscretization, m: int) -> StateVector:
    """|theta_m> = (1/sqrt(n_g)) sum_q e^{-i q theta_m} |q> on the truncation."""
    theta = 2.0 * np.pi * m / disc.n_g
    qs = np.arange(-space.q_max, space.q_max + 1)
    amps = np.exp(-1j * qs * theta) / np.sqrt(disc.n_g)
    return StateVector(space.product_space(), amps)


def csv_cell(x) -> str:
    """A CSV cell: the shortest round-trip decimal of a float, else ``str``."""
    return repr(float(x)) if isinstance(x, float) else str(x)


def effective_distance(lambda_qcd: float, epsilon: float) -> float:
    """Energy budget of a sector-changing error in units of epsilon."""
    if lambda_qcd <= 0 or epsilon <= 0:
        raise ValueError("both scales must be positive")
    return lambda_qcd / epsilon


def em_phase_error(theta: float) -> tuple[complex, complex]:
    """(alpha_1, alpha_2) of the electromagnetic phase error diag(e^{-i theta}, 1).

    The charged logical branch acquires e^{-i theta}; in the +/- basis this is
    the same alpha_1 I + alpha_2 Z algebra as the scattering errors.
    """
    a1 = np.exp(-1j * theta / 2.0) * np.cos(theta / 2.0)
    a2 = -1j * np.exp(-1j * theta / 2.0) * np.sin(theta / 2.0)
    return complex(a1), complex(a2)


# ---------------------------------------------------------------------------
# Dense rotor protocol: the oracle for ssrqec.rotor.ChargeState


def from_dense(psi: StateVector) -> ChargeState:
    """The nonzero amplitudes of a dense state on rotor registers (odd dims)."""
    spaces = tuple(RotorSpace((d - 1) // 2) for d in psi.space.factor_dims)
    idx = np.flatnonzero(psi.amplitudes)
    charges = np.stack(np.unravel_index(idx, psi.space.factor_dims), axis=1)
    return ChargeState(charges - [s.q_max for s in spaces], psi.amplitudes[idx],
                       spaces, psi.space.labels)


def phase_flip(space: RotorSpace, q: int) -> Operator:
    """Z_q = I - 2|q><q|: -1 at charge q, +1 elsewhere."""
    d = space.dim
    diag = np.ones(d, dtype=np.complex128)
    diag[space.index(q)] = -1.0
    return Operator(space.product_space(), np.diag(diag))


def build_codeword(space_a: RotorSpace, space_b: RotorSpace, q: int,
                   profile: str = "gaussian", window: int = 1,
                   sigma: Optional[float] = None) -> StateVector:
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
    return StateVector(joint, amps)


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
        q_tilde = ib - space_b.q_max
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


# ---------------------------------------------------------------------------
# Dense repetition code: the oracle for ssrqec.qcdcode.RepetitionState


@dataclass(frozen=True)
class DenseRepetitionState:
    """n-particle state in the +/- basis as its flat 2^n amplitude array.

    Bit 0 of a configuration index means |+> and bit 1 means |->, first
    particle most significant (row-major, matching the hilbert convention).
    """

    n: int
    psi: np.ndarray
    momenta: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError("particle count must be odd (decode-time majority vote)")
        psi = np.asarray(self.psi, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != 2 ** self.n:
            raise ValueError("amplitude array must have length 2^n")
        object.__setattr__(self, "psi", psi.copy())
        mom = tuple(int(m) for m in self.momenta)
        if len(mom) != self.n:
            raise ValueError("one momentum label per particle required")
        object.__setattr__(self, "momenta", mom)

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))

    def normalized(self) -> "DenseRepetitionState":
        return DenseRepetitionState(self.n, self.psi / self.norm(), self.momenta)

    def logical_amplitudes(self) -> tuple[complex, complex]:
        return complex(self.psi[0]), complex(self.psi[-1])


def dense_psi(state: RepetitionState) -> np.ndarray:
    """The 2^n amplitude array of a configuration-list state (small n only)."""
    psi = np.zeros(2 ** state.n, dtype=np.complex128)
    psi[state.configs @ (1 << np.arange(state.n - 1, -1, -1))] = state.amps
    return psi


def to_pn_state_vector(state: RepetitionState) -> StateVector:
    """Expand into the p/n product basis (for partial-trace diagnostics)."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    t = dense_psi(state).reshape((2,) * state.n)
    for axis in range(state.n):
        t = np.tensordot(h, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    space = ProductSpace((2,) * state.n,
                         tuple(f"nucleon{i}" for i in range(state.n)))
    return StateVector(space, t.reshape(-1))


def flip_particle(psi: np.ndarray, n: int, particle: int) -> np.ndarray:
    """Apply the |+> <-> |-> flip (effective Z) on one particle (0-based)."""
    return np.flip(psi.reshape((2,) * n), axis=particle).reshape(-1)


def scattering_branches(state: DenseRepetitionState, particle: int,
                        table: AmplitudeTable, s: str, k: int
                        ) -> list[tuple[int, float, DenseRepetitionState]]:
    """(k', weight, unnormalized state) of each branch of alpha_1 I + alpha_2 Z."""
    flipped = flip_particle(state.psi, state.n, particle)
    out = []
    for kp in table.row_kprimes(s, "p", k):
        a1, a2 = alpha_decomposition(table, s, k, kp)
        psi_b = a1 * state.psi + a2 * flipped
        momenta = list(state.momenta)
        momenta[particle] = kp
        out.append((kp, float(np.linalg.norm(psi_b) ** 2),
                    DenseRepetitionState(state.n, psi_b, tuple(momenta))))
    return out


def syndrome_outcomes(state: DenseRepetitionState
                      ) -> list[tuple[SyndromeResult, float, DenseRepetitionState]]:
    """All syndrome outcomes, one 2^n mask each, in ascending pattern order."""
    n = state.n
    idx = np.arange(2 ** n)
    signs = 1 - 2 * ((idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1)
    syn = signs[:, :-1] * signs[:, 1:]
    keys: dict[tuple[int, ...], np.ndarray] = {}
    for cfg in range(2 ** n):
        key = tuple(int(x) for x in syn[cfg])
        keys.setdefault(key, np.zeros(2 ** n, dtype=bool))[cfg] = True
    out = []
    nrm2 = state.norm() ** 2
    for key in sorted(keys):
        proj = np.where(keys[key], state.psi, 0.0)
        p = float(np.linalg.norm(proj) ** 2) / nrm2
        if p < 1e-15:
            continue
        post = DenseRepetitionState(n, proj, state.momenta).normalized()
        out.append((SyndromeResult(key), p, post))
    return out


def decode_phase_flip(state: DenseRepetitionState, syndrome: SyndromeResult
                      ) -> DenseRepetitionState:
    """Flip the minority sign of the chain c_1 = +1, c_{i+1} = c_i s_i."""
    n = state.n
    chain = [1]
    for s in syndrome.pattern:
        chain.append(chain[-1] * s)
    minus = [i for i, c in enumerate(chain) if c == -1]
    flips = minus if len(minus) <= n // 2 else [i for i in range(n) if i not in minus]
    psi = state.psi
    for i in flips:
        psi = flip_particle(psi, n, i)
    return DenseRepetitionState(n, psi, state.momenta)
