"""Independent oracles for checking every benchmark op.

Nothing here calls into ssrqec: each check recomputes the expected
result from a closed form or from a different method (the trace
technique for |A|^2, the charge-window counting rule for rotor recovery,
code-distance arithmetic for the toric KL verdict).
"""

from __future__ import annotations

import math

import numpy as np

# --- Monte Carlo ----------------------------------------------------------


def binomial_tail(n: int, p: float) -> float:
    """Probability that a majority of n independent bits flip."""
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
               for j in range(math.ceil(n / 2), n + 1))


def mc_within_4_sigma(estimate: float, n: int, p: float, trials: int) -> bool:
    """|estimate - tail| <= 4 sigma, sigma the binomial error at the true tail."""
    tail = binomial_tail(n, p)
    sigma = math.sqrt(tail * (1 - tail) / trials)
    return abs(estimate - tail) <= 4 * sigma


# --- cross-section: trace technique --------------------------------------

_S = (np.array([[0, 1], [1, 0]], dtype=complex),
      np.array([[0, -1j], [1j, 0]], dtype=complex),
      np.array([[1, 0], [0, -1]], dtype=complex))
_I2, _Z2 = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
_G0 = np.block([[_I2, _Z2], [_Z2, -_I2]])
_GS = [np.block([[_Z2, s], [-s, _Z2]]) for s in _S]
_G5 = np.block([[_Z2, _I2], [_I2, _Z2]])
_I4 = np.eye(4, dtype=complex)


def _slash(p: np.ndarray) -> np.ndarray:
    """Batched p_mu gamma^mu for four-vectors p of shape (..., 4)."""
    return (p[..., 0, None, None] * _G0 - p[..., 1, None, None] * _GS[0]
            - p[..., 2, None, None] * _GS[1] - p[..., 3, None, None] * _GS[2])


def _cm_momentum(e: float, ma: float, mb: float) -> float:
    return math.sqrt((e * e - (ma + mb) ** 2) * (e * e - (ma - mb) ** 2)) / (2 * e)


def sigma_trace(e_cm: float, masses, g1: float, g2: float, lam: float,
                n_theta: int) -> float:
    """sigma_tot above threshold, with |A|^2 from the Dirac trace.

    (1/2) sum_spins |A|^2 = (lam^2 / 2) Tr[(k3/ + m_n) V (k1/ + m_p) Vbar],
    V the vertex times the s-channel propagator, Vbar = g0 V^dag g0.
    """
    m1, m2, m3, m4 = masses
    k_in, k_out = _cm_momentum(e_cm, m1, m2), _cm_momentum(e_cm, m3, m4)
    x, w = np.polynomial.legendre.leggauss(n_theta)
    st = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    zero = np.zeros_like(x)

    def four(m, px, pz):
        return np.stack([np.sqrt(m * m + px * px + pz * pz), px, zero, pz], axis=-1)

    k1 = four(m1, zero, zero + k_in)
    k3 = four(m3, k_out * st, k_out * x)
    k4 = four(m4, -k_out * st, -k_out * x)
    k = np.array([e_cm, 0.0, 0.0, 0.0])          # k1 + k2 in the CM frame
    den = e_cm * e_cm - m1 * m1
    vertex = (-1j * g1) * (_slash(k4) @ _G5) - g2 * _G5
    v = vertex @ (1j * (_slash(k) + m1 * _I4) / den)
    vbar = _G0 @ np.conj(np.swapaxes(v, -1, -2)) @ _G0
    tr = np.trace((_slash(k3) + m3 * _I4) @ v @ (_slash(k1) + m1 * _I4) @ vbar,
                  axis1=-2, axis2=-1)
    amp2 = 0.5 * lam * lam * tr.real
    return (k_out / k_in) * 2 * math.pi * float(w @ amp2) / (64 * math.pi ** 2 * e_cm ** 2)


def xsec_rows_ok(rows, masses, g1, g2, lam, n_theta, rel=1e-6) -> bool:
    """Exact zero at or below threshold; trace-technique value above it."""
    threshold = masses[2] + masses[3]
    for e_cm, sigma, above in rows:
        if e_cm <= threshold:
            if sigma != 0.0 or above:
                return False
            continue
        ref = sigma_trace(e_cm, masses, g1, g2, lam, n_theta)
        if not above or abs(sigma - ref) > rel * abs(ref):
            return False
    return True


# --- rotor ----------------------------------------------------------------


def rotor_rows_ok(rows, window: int, charges, flips, tol=1e-9) -> bool:
    """Uniform-window recovery after A-side phase flips at charges ``flips``.

    Every outcome q~ in -W..W has probability 1/(2W+1).  Its recovered state
    is wrong (fidelity 0 for alpha = beta) exactly when one, but not both,
    of q1 - q~ and q2 - q~ is flipped; so the wrong-guess probability is
    at most 2 |flips| / (2W + 1).
    """
    q1, q2 = charges
    flips = set(flips)
    got = {int(q): (p, f) for q, p, f in rows}
    if set(got) != set(range(-window, window + 1)):
        return False
    wrong = 0.0
    for q, (p, fid) in got.items():
        bad = ((q1 - q) in flips) != ((q2 - q) in flips)
        if abs(p - 1 / (2 * window + 1)) > tol:
            return False
        if abs(fid - (0.0 if bad else 1.0)) > tol:
            return False
        wrong += p if bad else 0.0
    return wrong <= 2 * len(flips) / (2 * window + 1) + tol


# --- m_inv ----------------------------------------------------------------


def m_inv_trace_ok(m_inv: np.ndarray, m: np.ndarray, rho_r: np.ndarray,
                   rho_s: np.ndarray, tol=1e-9) -> bool:
    """Tr[M^inv (rho_R x rho_S)] = Tr[M rho_S] for sector-diagonal rho_S."""
    d = m.shape[0]
    lhs = np.einsum("rsRS,Rr,Ss->", m_inv.reshape(d, d, d, d), rho_r, rho_s)
    rhs = np.trace(m @ rho_s)
    return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


# --- toric ----------------------------------------------------------------


def toric_kl_expected(l: int, max_weight: int) -> str:
    """Code distance l: errors of weight <= w are correctable iff 2w < l."""
    return "satisfied" if 2 * max_weight < l else "violated"


def toric_kl_bytes(n: int, l: int, max_weight: int) -> int:
    """Bytes of the flat applied-error array plus the Gram matrix.

    Computed from the shapes the brute-force KL check allocates:
    (n_errors * N^2, N^(2 l^2)) and its (n_errors * N^2)^2 Gram product.
    """
    edges = 2 * l * l
    n_err = sum(math.comb(edges, j) * (n * n - 1) ** j for j in range(max_weight + 1))
    rows = n_err * n * n
    return 16 * rows * (n ** edges + rows)
