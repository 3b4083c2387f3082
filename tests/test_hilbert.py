"""Linear-algebra layer: product spaces, states, operators, reductions."""

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrqec.hilbert import (DensityMatrix, DimensionMismatchError,
                            NormalizationError, Operator, ProductSpace,
                            StateVector, apply, basis_state, fidelity,
                            identity, inner, operator_from_json,
                            operator_to_json, partial_trace, tensor_product,
                            vector_from_json, vector_to_json)

from helpers import shift_up, trace_all

SP2 = ProductSpace((2,))
Z = Operator(SP2, np.diag([1.0, -1.0]).astype(np.complex128))


def ket(*amps):
    a = np.asarray(amps, dtype=np.complex128)
    return StateVector(ProductSpace((len(a),)), a)


class TestProductSpace:
    def test_dim_is_product_of_factors(self):
        assert ProductSpace((2, 3, 5)).dim == 30

    def test_rejects_zero_dim_factor(self):
        with pytest.raises(ValueError):
            ProductSpace((2, 0))

    def test_tensor_concatenates_factors(self):
        s = ProductSpace((2,)).tensor(ProductSpace((3,)))
        assert s.factor_dims == (2, 3)


class TestTensorProduct:
    def test_identity_times_identity(self):
        i4 = tensor_product(identity(SP2), identity(SP2))
        np.testing.assert_allclose(i4.dense(), np.eye(4))

    def test_basis_state_index_bookkeeping(self):
        v = tensor_product(basis_state(SP2, 0), basis_state(SP2, 1))
        np.testing.assert_allclose(v.amplitudes, np.eye(4)[1])

    def test_zz_on_11(self):
        zz = tensor_product(Z, Z)
        v11 = tensor_product(basis_state(SP2, 1), basis_state(SP2, 1))
        np.testing.assert_allclose(apply(zz, v11).amplitudes, v11.amplitudes)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor_product(identity(SP2), basis_state(SP2, 0))

    def test_kron_associativity(self):
        rng = np.random.default_rng(11)
        ops = [Operator(SP2, rng.normal(size=(2, 2))
                        + 1j * rng.normal(size=(2, 2))) for _ in range(3)]
        left = tensor_product(tensor_product(ops[0], ops[1]), ops[2])
        right = tensor_product(ops[0], tensor_product(ops[1], ops[2]))
        np.testing.assert_allclose(left.dense(), right.dense(), atol=1e-12)


class TestApply:
    def test_identity_is_noop(self):
        psi = ket(0.6, 0.8)
        np.testing.assert_allclose(apply(identity(SP2), psi).amplitudes,
                                   psi.amplitudes)

    def test_shift_on_truncated_ladder(self):
        # |q=1> -> |q=2> on the 5-dim charge ladder
        from helpers import charge_state
        from ssrqec.rotor import RotorSpace
        space = RotorSpace(2)
        out = apply(shift_up(space), charge_state(space, 1))
        np.testing.assert_allclose(out.amplitudes,
                                   charge_state(space, 2).amplitudes)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(identity(SP2), ket(1.0, 0.0, 0.0))


class TestInnerAndFidelity:
    def test_self_inner_is_one(self):
        psi = ket(0.6, 0.8)
        assert inner(psi, psi) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert inner(basis_state(SP2, 0), basis_state(SP2, 1)) == 0

    def test_plus_zero_overlap(self):
        plus = ket(1, 1).normalized()
        assert inner(plus, basis_state(SP2, 0)) == pytest.approx(1 / np.sqrt(2))

    def test_conjugate_linearity_first_argument(self):
        phi, psi = ket(1j, 0.5).normalized(), ket(0.3, 0.7j).normalized()
        assert inner(phi, psi) == pytest.approx(np.conj(inner(psi, phi)))

    def test_fidelity_self(self):
        psi = ket(0.6, 0.8)
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_fidelity_orthogonal(self):
        assert fidelity(basis_state(SP2, 0), basis_state(SP2, 1)) == 0.0

    def test_fidelity_plus_zero(self):
        plus = ket(1, 1).normalized()
        assert fidelity(plus, basis_state(SP2, 0)) == pytest.approx(0.5)

    def test_fidelity_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            fidelity(ket(2.0, 0.0), basis_state(SP2, 0))


class TestDensityAndPartialTrace:
    def test_product_state_reduction(self):
        rng = np.random.default_rng(7)
        a = ket(*rng.normal(size=2)).normalized()
        b = ket(*rng.normal(size=3)).normalized()
        rho = DensityMatrix.from_state(tensor_product(a, b))
        red = partial_trace(rho, keep=[0])
        np.testing.assert_allclose(
            red.matrix, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = StateVector(ProductSpace((2, 2)),
                           np.array([1, 0, 0, 1]) / np.sqrt(2))
        red = partial_trace(DensityMatrix.from_state(bell), keep=[0])
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_random_state(self):
        rng = np.random.default_rng(5)
        psi = StateVector(ProductSpace((2, 3, 2)),
                          rng.normal(size=12) + 1j * rng.normal(size=12)
                          ).normalized()
        red = partial_trace(DensityMatrix.from_state(psi), keep=[1])
        assert np.trace(red.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_keep_all_factors_is_identity_map(self):
        rng = np.random.default_rng(6)
        psi = StateVector(ProductSpace((2, 2)),
                          rng.normal(size=4)).normalized()
        rho = DensityMatrix.from_state(psi)
        red = partial_trace(rho, keep=[0, 1])
        np.testing.assert_allclose(red.matrix, rho.matrix, atol=1e-12)
        assert trace_all(rho) == pytest.approx(1.0)

    def test_empty_keep_rejected(self):
        rho = DensityMatrix.from_state(basis_state(SP2, 0))
        with pytest.raises(ValueError):
            partial_trace(rho, keep=[])

    def test_invalid_density_matrix_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(SP2, np.array([[1.0, 1.0], [0.0, 0.5]]))


class TestOperatorRepresentation:
    def test_adjoint_round_trip(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = Operator(ProductSpace((3,)), m)
        np.testing.assert_allclose(op.adjoint().adjoint().dense(), m)
        np.testing.assert_allclose(op.adjoint().dense(), m.conj().T)

    def test_gram_form_positive(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = Operator(ProductSpace((4,)), m)
        psi = StateVector(ProductSpace((4,)), rng.normal(size=4)).normalized()
        val = inner(psi, apply(op.adjoint() @ op, psi))
        assert val.real >= -1e-12

    def test_matmul_add_scalar(self):
        a = Operator(SP2, np.array([[0, 1], [1, 0]], dtype=complex))
        combo = 2.0 * (a @ a) + a
        np.testing.assert_allclose(combo.dense(),
                                   2 * np.eye(2) + a.dense())


class TestJsonInterchange:
    def test_vector_round_trip(self):
        psi = StateVector(ProductSpace((2, 2)),
                          np.array([0.5, 0.5j, -0.5, -0.5j]))
        back = vector_from_json(vector_to_json(psi))
        assert back.space.factor_dims == (2, 2)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes)

    def test_operator_round_trip(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = Operator(ProductSpace((2, 2)), m)
        back = operator_from_json(operator_to_json(op))
        np.testing.assert_allclose(back.dense(), m)


# The interchange schema the CLI applied item by item before the hilbert
# parser owned the format; kept as the oracle of what must be refused.
OLD_INTERCHANGE = jsonschema.Draft202012Validator({
    "type": "object",
    "properties": {
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "re": {"type": "array", "items": {"type": "number"}},
        "im": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["dims", "re", "im"],
    "additionalProperties": False,
})

JSON_ODDITIES = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                          st.lists(st.floats(-1, 1), max_size=2),
                          st.integers(2 ** 63, 2 ** 1100))
NUMBERS = st.one_of(st.floats(-2, 2), st.integers(-2, 2),
                    st.sampled_from([float("nan"), float("inf"), 1e308]))


@st.composite
def interchange_objects(draw):
    d = draw(st.integers(1, 3))
    square = draw(st.booleans())
    n = d * d if square else d
    sizes = st.sampled_from([n, n, n - 1, n + 1])
    item = st.one_of(NUMBERS, NUMBERS, NUMBERS, JSON_ODDITIES)
    obj = {"dims": draw(st.one_of(st.just([d]), st.lists(
               st.one_of(st.integers(-1, 3), JSON_ODDITIES), max_size=2))),
           "re": draw(st.lists(item, min_size=draw(sizes), max_size=n + 1)),
           "im": draw(st.lists(item, min_size=draw(sizes), max_size=n + 1))}
    for key in draw(st.lists(st.sampled_from(["dims", "re", "im"]), max_size=1)):
        del obj[key]
    if draw(st.integers(0, 9)) == 0:
        obj["extra"] = 0
    return obj


class TestJsonInterchangeRefusals:
    @settings(max_examples=300, deadline=None)
    @given(interchange_objects())
    def test_refuses_whatever_the_old_schema_refused(self, obj):
        for parse in (vector_from_json, operator_from_json):
            try:
                parse(obj)
                refused = False
            except ValueError:
                refused = True
            assert refused or OLD_INTERCHANGE.is_valid(obj), (parse.__name__, obj)

    @pytest.mark.parametrize("obj", [
        {"dims": [2], "re": [1.0, True], "im": [0.0, 0.0]},
        {"dims": [2], "re": [1.0, None], "im": [0.0, 0.0]},
        {"dims": [2], "re": [1.0, [0.0]], "im": [0.0, 0.0]},
        {"dims": [True, 2], "re": [1.0, 0.0], "im": [0.0, 0.0]},
        {"dims": [2], "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]},
        {"dims": [2], "re": [1.0, 0.0], "im": [0.0]},
        {"dims": [2], "re": [1.0, float("nan")], "im": [0.0, 0.0]},
        {"dims": [2], "re": [1.0, 10 ** 400], "im": [0.0, 0.0]},
    ])
    def test_malformed_vector_rejected(self, obj):
        with pytest.raises(ValueError):
            vector_from_json(obj)
