"""Refusal branches: each bad input raises its exception with its message.

One table per module; each case is a thunk that must raise the named
exception type with a message containing the fragment.
"""

import numpy as np
import pytest

from ssrqec import hilbert, klcore, qcdcode, rotor, scatter, toriccode
from ssrqec.hilbert import (DensityMatrix, DimensionMismatchError,
                            NormalizationError, Operator, ProductSpace,
                            StateVector, basis_state, identity)

SP2, SP3 = ProductSpace((2,)), ProductSpace((3,))
SP22 = ProductSpace((2, 2))
I2, I3 = identity(SP2), identity(SP3)


def _run(thunk, exc, fragment):
    with pytest.raises(exc) as info:
        thunk()
    assert fragment in str(info.value)


def _cases(table):
    return pytest.mark.parametrize("thunk, exc, fragment", list(table.values()),
                                   ids=list(table))


HILBERT = {
    "label count": (lambda: ProductSpace((2, 2), ("a",)), ValueError,
                    "labels must match"),
    "vector length": (lambda: StateVector(SP2, [1.0, 0.0, 0.0]),
                      DimensionMismatchError, "amplitude length"),
    "normalize zero": (lambda: StateVector(SP2, [0.0, 0.0]).normalized(),
                       NormalizationError, "zero vector"),
    "operator not 2-D": (lambda: Operator(SP2, np.zeros(4)), ValueError,
                         "2-dimensional"),
    "operator shape": (lambda: Operator(SP2, np.zeros((3, 3))),
                       DimensionMismatchError, "operator shape"),
    "matmul non-operator": (lambda: I2 @ "I", TypeError, "operand"),
    "matmul dims": (lambda: I2 @ I3, DimensionMismatchError, "operator product"),
    "add non-operator": (lambda: I2 + "I", TypeError, "operand"),
    "add dims": (lambda: I2 + I3, DimensionMismatchError, "operator sum"),
    "density shape": (lambda: DensityMatrix(SP2, np.eye(3) / 3),
                      DimensionMismatchError, "density matrix shape"),
    "density trace": (lambda: DensityMatrix(SP2, np.eye(2)), ValueError,
                      "trace differs from 1"),
    "density negative": (lambda: DensityMatrix(SP2, np.diag([1.5, -0.5])),
                         ValueError, "negative eigenvalue"),
    "inner dims": (lambda: hilbert.inner(basis_state(SP2, 0), basis_state(SP3, 0)),
                   DimensionMismatchError, "inner product"),
    "partial trace index": (
        lambda: hilbert.partial_trace(
            DensityMatrix.from_state(basis_state(SP22, 0)), keep=[2]),
        ValueError, "out of range"),
}


@_cases(HILBERT)
def test_hilbert_refusals(thunk, exc, fragment):
    _run(thunk, exc, fragment)


def _code(space):
    return klcore.CodeSpace((basis_state(space, 0),))


KLCORE = {
    "empty code space": (lambda: klcore.CodeSpace(()), ValueError,
                         "at least one codeword"),
    "error set on two spaces": (lambda: klcore.ErrorSet((I2, I3)),
                                DimensionMismatchError, "different spaces"),
    "sectors on two spaces": (
        lambda: klcore.ssr_sector_check([_code(SP2), _code(SP3)],
                                        klcore.ErrorSet((I2,))),
        DimensionMismatchError, "sectors on different spaces"),
    "environment does not divide": (
        lambda: klcore.kraus_extract(I2, basis_state(SP3, 0), [basis_state(SP3, 0)]),
        DimensionMismatchError, "does not divide"),
    "environment basis dim": (
        lambda: klcore.kraus_extract(identity(SP22), basis_state(SP2, 0),
                                     [basis_state(SP3, 0)]),
        DimensionMismatchError, "wrong dim"),
}


@_cases(KLCORE)
def test_klcore_refusals(thunk, exc, fragment):
    _run(thunk, exc, fragment)


GRID = qcdcode.MomentumGrid(1)
STATE3 = qcdcode.encode_repetition(1.0, 0.0, 3)
ZERO_STATE = qcdcode.RepetitionState(1, [[0]], [0.0], (0,))

QCDCODE = {
    "pion mass inputs": (lambda: qcdcode.pion_mass(-1.0, 3.0, 3000.0), ValueError,
                         "masses must be >= 0"),
    "thermal temperature": (lambda: qcdcode.thermal_flip_suppression(0.0),
                            ValueError, "temperature must be positive"),
    "sm energy": (lambda: qcdcode.sm_flip_suppression(-1.0), ValueError,
                  "energy must be positive"),
    "grid k_max": (lambda: qcdcode.MomentumGrid(-1), ValueError,
                   "k_max must be >= 0"),
    "grid check": (lambda: GRID.check(2), ValueError, "outside grid"),
    "missing amplitude": (
        lambda: qcdcode.toy_amplitude_table(0.5, 0.5, GRID).amplitude("phi1", "p", 0, 5),
        KeyError, "no amplitude entry"),
    "toy couplings": (lambda: qcdcode.toy_amplitude_table(1.5, 0.5, GRID),
                      ValueError, "couplings must satisfy"),
    "toy tail decay": (lambda: qcdcode.toy_amplitude_table(0.5, 0.5, GRID, 1.0),
                       ValueError, "tail_decay must lie in (0, 1)"),
    "normalize zero state": (lambda: ZERO_STATE.normalized(), ValueError,
                             "cannot normalize zero state"),
    "particle out of range": (
        lambda: qcdcode.apply_scattering_error(
            STATE3, 3, qcdcode.toy_amplitude_table(0.5, 0.5, GRID), "phi1", 0),
        ValueError, "out of range"),
    "zero branch weights": (
        lambda: qcdcode.momentum_project_and_boost(
            [qcdcode.ScatterBranch(0, 0, 0.0, STATE3)], 0),
        ValueError, "all branches have zero weight"),
    "branch drawn without rng": (
        lambda: qcdcode.momentum_project_and_boost(
            [qcdcode.ScatterBranch(0, 0, 1.0, STATE3)], 0),
        ValueError, "needs an rng"),
    "syndrome entries": (lambda: qcdcode.SyndromeResult((1, 0)), ValueError,
                         "entries must be +/-1"),
    "syndrome length": (
        lambda: qcdcode.decode_phase_flip(STATE3, qcdcode.SyndromeResult((1,))),
        ValueError, "syndrome length must be n - 1"),
}


@_cases(QCDCODE)
def test_qcdcode_refusals(thunk, exc, fragment):
    _run(thunk, exc, fragment)


R2 = rotor.RotorSpace(2)

ROTOR = {
    "q_max": (lambda: rotor.RotorSpace(0), ValueError, "q_max must be >= 1"),
    "n_g": (lambda: rotor.GroupDiscretization(0), ValueError,
            "n_g must be positive"),
    "unknown profile": (lambda: rotor.build_codeword(R2, R2, 0, "square"),
                        ValueError, "unknown profile"),
    "equal logical charges": (
        lambda: rotor.enumerate_recovery(rotor.build_codeword(R2, R2, 0), (1, 1)),
        ValueError, "logical charges must differ"),
    "m_inv even dimension": (
        lambda: rotor.m_inv(identity(ProductSpace((4,))), rotor.GroupDiscretization(4)),
        ValueError, "must be odd"),
}


@_cases(ROTOR)
def test_rotor_refusals(thunk, exc, fragment):
    _run(thunk, exc, fragment)


SCATTER = {
    "spin value": (lambda: scatter.dirac_u(scatter.FourMomentum.on_shell(1.0), 1.0, 0),
                   ValueError, "spin must be +1 or -1"),
    "e_cm": (lambda: scatter.cm_momentum(0.0, 1.0, 1.0), ValueError,
             "e_cm must be positive"),
    "threshold masses": (lambda: scatter.threshold_incident_energy(0.0, 139.6, 10.0),
                         ValueError, "masses must be positive"),
    "n_theta": (lambda: scatter.sigma_tot(2000.0, (938.3, 10.0, 939.6, 139.6),
                                          lambda c: 1.0, n_theta=1),
                ValueError, "n_theta must be >= 2"),
}


@_cases(SCATTER)
def test_scatter_refusals(thunk, exc, fragment):
    _run(thunk, exc, fragment)


TORICCODE = {
    "l": (lambda: toriccode.TorusLattice(1, 2), ValueError, "l must be >= 2"),
    "N": (lambda: toriccode.TorusLattice(2, 1), ValueError, "N must be >= 2"),
    "max_weight": (
        lambda: toriccode.enumerate_pauli_errors(toriccode.TorusLattice(2, 2), 0),
        ValueError, "max_weight must be >= 1"),
}


@_cases(TORICCODE)
def test_toriccode_refusals(thunk, exc, fragment):
    _run(thunk, exc, fragment)
