"""Proton/neutron code: rate models, scattering errors, repetition recovery.

The logical system is the two-dimensional proton/neutron space; the
environment couples through species-diagonal scattering amplitudes
A^{s,i}_{k,k'}, whose proton/neutron asymmetry acts as an effective
phase error alpha_1 I + alpha_2 Z.  Concatenating with an n-particle
repetition code in the +/- basis, measuring adjacent parity checks and
majority-voting corrects those errors; Monte Carlo estimates of the
logical failure rate are checked against the binomial tail.

A repetition state is kept as its nonzero configurations, a (k, n) bool
array (True meaning |->), and their k amplitudes, so flips and parity
checks are column operations and the exact recovery cycle runs at the
Monte Carlo's n.

Assumption carried over from the protocol being modeled: the auxiliary
environment particle is discarded after the momentum projection.  That
separability assumption is recorded in report metadata by the CLI layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ._rowkeys import class_ids


# Default energy scales of the rate models, in MeV
LAMBDA_QCD = 330.0
M_PI = 140.0
M_W = 80400.0


# ---------------------------------------------------------------------------
# Rate models


def pion_mass(m_u: float, m_d: float, b_scale: float) -> float:
    """sqrt(B (m_u + m_d)); vanishes in the chiral limit."""
    if m_u < 0 or m_d < 0 or b_scale <= 0:
        raise ValueError("masses must be >= 0 and B > 0")
    return math.sqrt(b_scale * (m_u + m_d))


def thermal_flip_suppression(temperature: float, m_pi: float = M_PI) -> float:
    """Thermal bit-flip suppression e^{-m_pi / T}."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return math.exp(-m_pi / temperature)


def sm_flip_suppression(energy: float, lambda_qcd: float = LAMBDA_QCD,
                        m_w: float = M_W) -> float:
    """max(e^{-Lambda/E}, (E/m_W)^2): pion channel vs electroweak capture."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    return max(math.exp(-lambda_qcd / energy), (energy / m_w) ** 2)


# ---------------------------------------------------------------------------
# Scattering amplitude table


SPECIES = ("phi1", "phi2")


@dataclass(frozen=True)
class MomentumGrid:
    """Discrete momentum labels k in -k_max..k_max."""

    k_max: int

    def __post_init__(self):
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")

    @property
    def indices(self) -> range:
        return range(-self.k_max, self.k_max + 1)

    def check(self, k: int):
        if abs(k) > self.k_max:
            raise ValueError(f"momentum index {k} outside grid |k| <= {self.k_max}")


@dataclass(frozen=True)
class AmplitudeTable:
    """Subnormalized scattering amplitudes A^{s,i}_{k,k'}."""

    grid: MomentumGrid
    entries: Dict[Tuple[str, str, int, int], complex]

    def __post_init__(self):
        rows: Dict[Tuple[str, str, int], float] = {}
        for (s, i, k, kp), a in self.entries.items():
            rows[(s, i, k)] = rows.get((s, i, k), 0.0) + abs(a) ** 2
        for key, total in rows.items():
            if total > 1.0 + 1e-9:
                raise ValueError(f"amplitude row {key} has norm^2 = {total} > 1")

    def amplitude(self, s: str, i: str, k: int, kp: int) -> complex:
        key = (s, i, k, kp)
        if key not in self.entries:
            raise KeyError(f"no amplitude entry for {key}")
        return self.entries[key]

    def row_kprimes(self, s: str, i: str, k: int) -> list[int]:
        return sorted(kp for (ss, ii, kk, kp) in self.entries
                      if (ss, ii, kk) == (s, i, k))


def toy_amplitude_table(lambda1: float, lambda2: float, grid: MomentumGrid,
                        tail_decay: float = 0.5) -> AmplitudeTable:
    """The toy-model table: forward entries fixed, tails a labeled model input.

    Forward (k' = 0) amplitudes: A^{phi1,p} = 1 - lambda1^2/2, A^{phi1,n} = 1,
    A^{phi2,p} = 1, A^{phi2,n} = 1 - lambda2^2/2, for every k.  Entries with
    k' != 0 follow an exponential decay tail_decay^|k'| scaled so each row is
    exactly normalized (zero deficit); the tail shape is explicitly model
    input, not derived content.
    """
    if abs(lambda1) > 1.0 or abs(lambda2) > 1.0:
        raise ValueError("couplings must satisfy |lambda| <= 1")
    if not (0.0 < tail_decay < 1.0):
        raise ValueError("tail_decay must lie in (0, 1)")
    forward = {
        ("phi1", "p"): 1.0 - lambda1 ** 2 / 2.0,
        ("phi1", "n"): 1.0,
        ("phi2", "p"): 1.0,
        ("phi2", "n"): 1.0 - lambda2 ** 2 / 2.0,
    }
    entries: Dict[Tuple[str, str, int, int], complex] = {}
    kmax = grid.k_max
    tail_shape = [tail_decay ** abs(kp) for kp in grid.indices if kp != 0]
    tail_norm2 = sum(t ** 2 for t in tail_shape)
    for (s, i), a0 in forward.items():
        slack = max(0.0, 1.0 - a0 ** 2)
        scale = math.sqrt(slack / tail_norm2) if (tail_norm2 > 0 and slack > 0) else 0.0
        for k in grid.indices:
            entries[(s, i, k, 0)] = complex(a0)
            for kp in grid.indices:
                if kp != 0:
                    entries[(s, i, k, kp)] = complex(scale * tail_decay ** abs(kp))
    return AmplitudeTable(grid, entries)


def alpha_decomposition(table: AmplitudeTable, s: str, k: int, kp: int
                        ) -> tuple[complex, complex]:
    """(alpha_1, alpha_2) of the branch error alpha_1 I + alpha_2 Z.

    alpha_1 = (A^{s,p} + A^{s,n})/2, alpha_2 = (A^{s,p} - A^{s,n})/2, so the
    reconstruction A^{s,p} = alpha_1 + alpha_2, A^{s,n} = alpha_1 - alpha_2
    holds exactly.
    """
    ap = table.amplitude(s, "p", k, kp)
    an = table.amplitude(s, "n", k, kp)
    return (ap + an) / 2.0, (ap - an) / 2.0


def error_operator_pn(table: AmplitudeTable, s: str, k: int, kp: int) -> np.ndarray:
    """The 2x2 species-diagonal error block diag(A^{s,p}, A^{s,n}) in the p/n basis."""
    return np.diag([table.amplitude(s, "p", k, kp),
                    table.amplitude(s, "n", k, kp)]).astype(np.complex128)


# ---------------------------------------------------------------------------
# Repetition code in the +/- basis


@dataclass(frozen=True)
class RepetitionState:
    """n-particle state in the +/- basis with per-particle momentum labels.

    The state is a list of its nonzero configurations: row r of the (k, n)
    bool array ``configs`` is one basis configuration, True meaning |-> and
    False |+>, first particle in column 0, and ``amps[r]`` is its amplitude.
    The constructor adds the amplitudes of repeated rows, drops rows whose
    amplitude is zero and stores the rest in ascending row order.  Momenta
    are classical bookkeeping labels: every configuration in the
    superposition shares them.
    """

    n: int
    configs: np.ndarray
    amps: np.ndarray
    momenta: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError("particle count must be odd (decode-time majority vote)")
        configs = np.asarray(self.configs)
        if configs.ndim != 2 or configs.shape[1] != self.n:
            raise ValueError("configs must have shape (k, n)")
        if not np.isin(configs, (0, 1)).all():
            raise ValueError("configuration entries must be 0 or 1")
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != configs.shape[0]:
            raise ValueError("one amplitude per configuration row required")
        mom = tuple(int(m) for m in self.momenta)
        if len(mom) != self.n:
            raise ValueError("one momentum label per particle required")
        # packbits is big-endian, so the byte keys sort as the rows do
        ids = class_ids(np.packbits(configs.astype(bool), axis=1), 256)
        summed = np.zeros(ids.max(initial=-1) + 1, dtype=np.complex128)
        np.add.at(summed, ids, amps)
        rows = np.empty((summed.size, self.n), dtype=bool)
        rows[ids] = configs
        keep = summed != 0
        for name, arr in (("configs", rows[keep]), ("amps", summed[keep])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "momenta", mom)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "RepetitionState":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize zero state")
        return replace(self, amps=self.amps / nrm)

    def logical_amplitudes(self) -> tuple[complex, complex]:
        """(c_plus, c_minus) components on |+...+> and |-...->."""
        minus = self.configs.sum(axis=1)
        return (complex(self.amps[minus == 0].sum()),
                complex(self.amps[minus == self.n].sum()))


def encode_repetition(c_plus: complex, c_minus: complex, n: int) -> RepetitionState:
    """c+ |+,0>^n + c- |-,0>^n at common momentum 0."""
    if abs(abs(c_plus) ** 2 + abs(c_minus) ** 2 - 1.0) > 1e-9:
        raise ValueError("logical amplitudes must be normalized")
    if n % 2 == 0:
        raise ValueError("even n rejected: majority decode needs odd n")
    configs = np.array([[False], [True]]).repeat(n, axis=1)
    return RepetitionState(n, configs, [c_plus, c_minus], (0,) * n)


@dataclass(frozen=True)
class ScatterBranch:
    """One momentum branch of a single-particle scattering event."""

    k_out: int                    # measured particle momentum k'
    env_momentum: int             # environment label k - k'
    weight: float                 # Born probability of this branch
    state: RepetitionState        # unnormalized branch state


def apply_scattering_error(state: RepetitionState, particle: int,
                           table: AmplitudeTable, s: str, k: int
                           ) -> list[ScatterBranch]:
    """Branch expansion over k': (alpha_1 I + alpha_2 Z) on one particle.

    Z here is the effective flip |+> <-> |-> of the repetition code's
    qubit, an XOR of the particle's column.  Each branch stacks the rows
    with their flipped copies, scaled by alpha_1 and alpha_2.  Branch
    weights are |alpha_1|^2 + |alpha_2|^2 times the input norm; they sum to
    at most 1 (deficit = unmodeled channels).
    """
    if not 0 <= particle < state.n:
        raise ValueError(f"particle index {particle} out of range")
    table.grid.check(k)
    branches = []
    flipped = state.configs ^ (np.arange(state.n) == particle)
    configs = np.concatenate([state.configs, flipped])
    for kp in table.row_kprimes(s, "p", k):
        a1, a2 = alpha_decomposition(table, s, k, kp)
        momenta = list(state.momenta)
        momenta[particle] = kp
        branch = RepetitionState(state.n, configs,
                                 np.concatenate([a1 * state.amps, a2 * state.amps]),
                                 tuple(momenta))
        branches.append(ScatterBranch(kp, k - kp, branch.norm() ** 2, branch))
    return branches


def momentum_project_and_boost(branches: Sequence[ScatterBranch],
                               particle: int,
                               outcome: Optional[int] = None,
                               rng: Optional[np.random.Generator] = None
                               ) -> tuple[int, RepetitionState, float]:
    """Select one momentum branch, boost the particle back to momentum 0.

    Returns (k', post-state at common momentum, branch probability).  The
    branch is ``outcome`` if given, else drawn with ``rng``; with neither,
    ValueError.  The boost is index relabeling on the discrete grid; the
    environment label is discarded afterwards (separability assumption).
    """
    weights = np.array([b.weight for b in branches])
    total = weights.sum()
    if total <= 0:
        raise ValueError("all branches have zero weight")
    probs = weights / total
    if outcome is not None:
        matches = [i for i, b in enumerate(branches) if b.k_out == outcome]
        if not matches or probs[matches[0]] < 1e-15:
            raise ValueError(f"branch k' = {outcome} has vanishing probability")
        idx = matches[0]
    elif rng is None:
        raise ValueError("drawing a branch needs an rng (or an outcome)")
    else:
        idx = int(rng.choice(len(branches), p=probs))
    b = branches[idx]
    momenta = list(b.state.momenta)
    momenta[particle] = 0
    post = replace(b.state, momenta=tuple(momenta)).normalized()
    return b.k_out, post, float(probs[idx])


@dataclass(frozen=True)
class SyndromeResult:
    """Outcomes of the adjacent parity checks X_i X_{i+1}, i = 1..n-1."""

    pattern: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.pattern):
            raise ValueError("syndrome entries must be +/-1")


def syndrome_outcomes(state: RepetitionState
                      ) -> list[tuple[SyndromeResult, float, RepetitionState]]:
    """All syndrome outcomes with Born probabilities and collapsed states.

    Check i reads -1 on a row whose columns i and i+1 differ.  The rows are
    grouped by the packed bytes of their "columns agree" bits, so the
    outcomes come in ascending order of the +/-1 pattern.
    """
    if len(set(state.momenta)) != 1:
        raise ValueError("syndrome measurement requires a definite common momentum")
    differ = state.configs[:, :-1] ^ state.configs[:, 1:]
    ids = class_ids(np.packbits(~differ, axis=1), 256)
    probs = np.bincount(ids, weights=np.abs(state.amps) ** 2) / state.norm() ** 2
    out = []
    for c in np.flatnonzero(probs >= 1e-15):
        rows = ids == c
        pattern = tuple((1 - 2 * differ[rows][0].astype(int)).tolist())
        post = RepetitionState(state.n, state.configs[rows], state.amps[rows],
                               state.momenta).normalized()
        out.append((SyndromeResult(pattern), float(probs[c]), post))
    return out


def measure_syndrome(state: RepetitionState, rng: np.random.Generator
                     ) -> tuple[SyndromeResult, RepetitionState]:
    """Projectively measure the n-1 parity checks; collapse accordingly."""
    outcomes = syndrome_outcomes(state)
    probs = np.array([p for (_, p, _) in outcomes])
    idx = int(rng.choice(len(outcomes), p=probs / probs.sum()))
    syndrome, _, post = outcomes[idx]
    return syndrome, post


def decode_phase_flip(state: RepetitionState, syndrome: SyndromeResult
                      ) -> RepetitionState:
    """Majority-vote correction: flip the minimal set consistent with the syndrome."""
    n = state.n
    if len(syndrome.pattern) != n - 1:
        raise ValueError("syndrome length must be n - 1")
    # chain reconstruction: c_1 = +1, c_{i+1} = c_i * s_i; flip the minority sign
    flips = np.cumprod((1,) + syndrome.pattern) == -1
    if flips.sum() > n // 2:
        flips = ~flips
    return replace(state, configs=state.configs ^ flips)


def recovery_cycle(state: RepetitionState, particle: int, table: AmplitudeTable,
                   s: str, k: int, rng: np.random.Generator,
                   branch_outcome: Optional[int] = None
                   ) -> tuple[int, SyndromeResult, RepetitionState]:
    """encode-side error, momentum projection, syndrome, decode, in one pass."""
    branches = apply_scattering_error(state, particle, table, s, k)
    kp, post, _ = momentum_project_and_boost(branches, particle,
                                             outcome=branch_outcome, rng=rng)
    syndrome, collapsed = measure_syndrome(post, rng=rng)
    return kp, syndrome, decode_phase_flip(collapsed, syndrome)


# ---------------------------------------------------------------------------
# Monte Carlo logical error rate


def binomial_tail(n: int, p: float) -> float:
    """Closed-form failure probability: >= ceil(n/2) independent flips."""
    t = math.ceil(n / 2)
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
               for j in range(t, n + 1))


# Flip draws per Monte Carlo block; bounds the bytes one block allocates.
BLOCK_BITS = 2 ** 15


def _block_rows(n: int) -> int:
    return max(1, BLOCK_BITS // n)


def _block_flips(seed: int, block: int, rows: int, n: int, p: float) -> np.ndarray:
    """Flip patterns of one block, shape (rows, n), from the (seed, block) stream.

    Rows are filled in order, so a partial block's rows equal the leading
    rows of the full block.  A draw is one raw 64-bit word w, and
    ``Generator.random()`` on the same stream returns (w >> 11) * 2**-53, so
    w < ceil(p * 2**53) << 11 is bitwise the same flip as random() < p
    without building the float64 block; p < 1 keeps the threshold below
    2**64.
    """
    # a uint64 key: a list of Python ints above 2**63 would go through float64
    key = np.array([seed, block], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(rows * n).reshape(rows, n)
    return words < np.uint64(math.ceil(p * 2.0 ** 53) << 11)


def _decode_failures(flips: np.ndarray) -> np.ndarray:
    """Per-row failure of the syndrome + majority decode on a (rows, n) block.

    The block is decoded bit-major, as (n, rows), so every step runs across
    trials.  The adjacent-parity syndromes s_i = f_i xor f_{i+1} telescope:
    s_0 xor ... xor s_{k-1} = f_0 xor f_k, each bit's parity relative to
    bit 0.  A global flip of f leaves every syndrome unchanged, so the
    correction depends only on the syndrome: flip the bits that differ from
    bit 0, or, when those are more than n // 2, the complement (the chain
    XOR a per-trial "flip all" bit).  Every residual bit is then f_0 xor
    flip_all, set (a failure) exactly when more than n // 2 bits flip.
    """
    f = np.ascontiguousarray(flips.T)
    flip_all = (f ^ f[0]).sum(axis=0, dtype=np.int32) > f.shape[0] // 2
    return f[0] ^ flip_all


def logical_error_rate(n: int, p: float, trials: int, seed: int
                       ) -> tuple[float, float]:
    """Monte Carlo failure frequency of the full syndrome+decode cycle.

    Trials run in blocks of max(1, BLOCK_BITS // n) rows, so a block holds
    about BLOCK_BITS flip draws at any n.  Block b draws from a
    counter-based Philox stream keyed by (seed, b) for any seed in
    [0, 2**64), so a trial's draws do not depend on the trial count.
    Returns (estimate, binomial standard error).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be positive")
    rows = _block_rows(n)
    failures = 0
    for b in range((trials + rows - 1) // rows):
        k = min(rows, trials - b * rows)
        failures += int(_decode_failures(_block_flips(seed, b, k, n, p)).sum())
    est = failures / trials
    stderr = math.sqrt(max(est * (1 - est), 1e-300) / trials)
    return est, stderr
