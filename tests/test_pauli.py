import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdanneal.errors import DimensionMismatchError, ParameterError, ResourceCapError
from cdanneal.pauli import (
    DENSE_CAP,
    PauliString,
    PauliSum,
    commutator,
    is_stoquastic,
    multiply,
    to_dense,
    trace_inner,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_of_label(label):
    # Qubit 0 is the least-significant index bit, so it sits innermost.
    mat = np.array([[1.0 + 0j]])
    for char in label:
        mat = np.kron(MATS[char], mat)
    return mat


def strings(n):
    return st.builds(
        PauliString,
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
    )


# ---------------------------------------------------------------- multiply


@pytest.mark.parametrize(
    "a,b,expected,phase",
    [
        ("Z", "X", "Y", 1j),
        ("X", "X", "I", 1.0),
        ("XZ", "ZZ", "YI", -1j),
        ("Y", "Z", "X", 1j),
        ("X", "Y", "Z", 1j),
    ],
)
def test_multiply_examples(a, b, expected, phase):
    result, ph = multiply(PauliString.from_label(a), PauliString.from_label(b))
    assert result == PauliString.from_label(expected)
    assert ph == phase


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(strings(n), strings(n))))
@settings(max_examples=200)
def test_multiply_matches_dense(pair):
    a, b = pair
    result, phase = multiply(a, b)
    lhs = dense_of_label(a.label()) @ dense_of_label(b.label())
    rhs = phase * dense_of_label(result.label())
    assert np.allclose(lhs, rhs)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(strings(n), strings(n), strings(n))))
@settings(max_examples=300)
def test_multiply_associative(triple):
    a, b, c = triple
    ab, p_ab = multiply(a, b)
    left, p_left = multiply(ab, c)
    bc, p_bc = multiply(b, c)
    right, p_right = multiply(a, bc)
    assert left == right
    assert p_ab * p_left == p_bc * p_right


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


def test_mask_validation():
    with pytest.raises(ParameterError):
        PauliString(2, x_mask=1 << 2)
    with pytest.raises(ParameterError):
        PauliString(0)


def test_label_round_trip():
    for label in ("I", "XYZ", "IZYX", "YY"):
        assert PauliString.from_label(label).label() == label
    with pytest.raises(ParameterError):
        PauliString.from_label("XQ")


# -------------------------------------------------------------- commutator


def test_commutator_examples():
    z = PauliSum.from_labels({"Z": 1.0})
    x = PauliSum.from_labels({"X": 1.0})
    assert commutator(z, x).approx_eq(PauliSum.from_labels({"Y": 2j}))

    zz = PauliSum.from_labels({"ZZ": 1.0})
    zi = PauliSum.from_labels({"ZI": 1.0})
    assert len(commutator(zz, zi)) == 0

    xx = PauliSum.from_labels({"XX": 1.0})
    assert commutator(xx, zi).approx_eq(PauliSum.from_labels({"YX": -2j}))


def random_sum(rng, n, terms=4):
    data = {}
    for _ in range(terms):
        s = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        data[s] = complex(rng.standard_normal(), rng.standard_normal())
    return PauliSum(n, data)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b = random_sum(rng, 3), random_sum(rng, 3)
        lhs = commutator(a, b)
        rhs = commutator(b, a)
        assert (lhs + rhs).approx_eq(PauliSum.zero(3))


def test_commutator_matches_dense():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = random_sum(rng, 3), random_sum(rng, 3)
        da, db = to_dense(a), to_dense(b)
        assert np.allclose(to_dense(commutator(a, b)), da @ db - db @ da, atol=1e-12)


def test_jacobi_identity_dense():
    rng = np.random.default_rng(5)
    for _ in range(15):
        a, b, c = (random_sum(rng, 3, terms=3) for _ in range(3))
        total = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert np.allclose(to_dense(total), 0.0, atol=1e-10)


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(PauliSum.from_labels({"X": 1.0}), PauliSum.from_labels({"XX": 1.0}))


# -------------------------------------------------------------- trace_inner


def test_trace_inner_examples():
    x = PauliSum.from_labels({"X": 1.0})
    y = PauliSum.from_labels({"Y": 1.0})
    assert trace_inner(x, x) == 1.0
    assert trace_inner(x, y) == 0.0
    mixed = PauliSum.from_labels({"X": 2.0, "Z": 3j})
    assert trace_inner(mixed, mixed) == pytest.approx(13.0)


def test_trace_inner_matches_dense():
    rng = np.random.default_rng(6)
    for _ in range(15):
        a, b = random_sum(rng, 2), random_sum(rng, 2)
        dense = np.trace(to_dense(a).conj().T @ to_dense(b)) / 4.0
        assert trace_inner(a, b) == pytest.approx(dense, abs=1e-12)


def test_trace_inner_self_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_sum(rng, 3)
        value = trace_inner(a, a)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real >= 0.0
        expected = sum(abs(c) ** 2 for _, c in a)
        assert value.real == pytest.approx(expected)


# ----------------------------------------------------------------- to_dense


def test_to_dense_examples():
    assert np.allclose(to_dense(PauliSum.from_labels({"Z": 1.0})), np.diag([1, -1]))
    assert np.allclose(to_dense(PauliSum.from_labels({"X": 1.0})), X)
    assert np.allclose(
        to_dense(PauliSum.from_labels({"ZZ": 1.0})), np.diag([1, -1, -1, 1])
    )


def test_to_dense_matches_kron():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = random_sum(rng, 3)
        expected = sum(c * dense_of_label(s.label()) for s, c in a)
        assert np.allclose(to_dense(a), expected)


def test_to_dense_cap():
    # Refused before the 2^n x 2^n matrix is allocated.  A complex matrix at
    # n = 13 takes 1 GiB, the whole memory budget, and is_stoquastic would
    # add a mask and a copy: both refuse it first.
    assert DENSE_CAP == 12
    with pytest.raises(ResourceCapError):
        to_dense(PauliSum.zero(DENSE_CAP + 1))
    n = DENSE_CAP + 1
    op = PauliSum(n, {PauliString.single(n, i, "X"): -1.0 for i in range(n)})
    for dense_check in (to_dense, is_stoquastic):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="n=13 exceeds cap 12"):
                dense_check(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (dense_check.__name__, peak)


# ------------------------------------------------------------ is_stoquastic


def test_is_stoquastic_examples():
    neg_x = PauliSum.from_labels({"XI": -1.0, "IX": -1.0})
    assert is_stoquastic(neg_x)
    assert not is_stoquastic(PauliSum.from_labels({"Y": 1.0}))
    assert not is_stoquastic(PauliSum.from_labels({"ZY": 1.0, "YZ": 1.0}))


def test_is_stoquastic_requires_hermitian():
    with pytest.raises(ParameterError):
        is_stoquastic(PauliSum.from_labels({"X": 1j}))


# ------------------------------------------------------- sum data structure


def test_prune_and_merge():
    s = PauliString.from_label("X")
    out = PauliSum(1, [(s, 1.0), (s, -1.0 + 5e-13)])
    assert len(out) == 0
    kept = PauliSum(1, [(s, 1e-6)])
    assert kept.coefficient(s) == pytest.approx(1e-6)


def test_hermitian_flag():
    assert PauliSum.from_labels({"XI": 1.0, "ZZ": -0.5}).is_hermitian()
    assert not PauliSum.from_labels({"X": 1j}).is_hermitian()


def test_hermitian_flag_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_sum(rng, 2)
        real_part = PauliSum(2, {s: c.real for s, c in a})
        dense = to_dense(real_part)
        assert real_part.is_hermitian()
        assert np.allclose(dense, dense.conj().T)


def test_scalar_arithmetic():
    a = PauliSum.from_labels({"X": 1.0, "Z": 2.0})
    b = 2.0 * a - a
    assert b.approx_eq(a)
    assert (-a + a).approx_eq(PauliSum.zero(1))


def test_operator_product_matches_dense():
    rng = np.random.default_rng(9)
    a, b = random_sum(rng, 2), random_sum(rng, 2)
    assert np.allclose(to_dense(a * b), to_dense(a) @ to_dense(b))


def test_from_labels_empty_mapping():
    with pytest.raises(ParameterError):
        PauliSum.from_labels({})


def test_string_properties():
    s = PauliString.from_label("XYZI")
    assert s.weight == 3
    assert s.y_count == 1
    assert not s.is_diagonal
    assert PauliString.from_label("ZIZ").is_diagonal
    assert PauliString.identity(3).is_identity
