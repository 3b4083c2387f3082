"""Small operators, states and closed forms that only the tests use.

Nothing in ``ssrqec`` calls these, so they live beside the tests that
exercise them: the rotor charge operator, the truncated shift ``U+`` and
the phase states of the invariant simulation; the full trace of a density
matrix; the QCD code's effective distance and its electromagnetic phase
error.

Truncation boundary: ``shift_up`` annihilates the top charge rather than
wrapping around, so boundary leakage shows up as norm loss instead of a
silent SSR violation.
"""

import numpy as np

from ssrqec.hilbert import DensityMatrix, Operator, StateVector
from ssrqec.rotor import GroupDiscretization, RotorSpace


def trace_all(rho: DensityMatrix) -> complex:
    return complex(np.trace(rho.matrix))


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


def phase_state(space: RotorSpace, disc: GroupDiscretization, m: int) -> StateVector:
    """|theta_m> = (1/sqrt(n_g)) sum_q e^{-i q theta_m} |q> on the truncation."""
    theta = 2.0 * np.pi * m / disc.n_g
    qs = np.arange(-space.q_max, space.q_max + 1)
    amps = np.exp(-1j * qs * theta) / np.sqrt(disc.n_g)
    return StateVector(space.product_space(), amps)


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
