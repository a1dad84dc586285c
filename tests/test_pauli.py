"""Unit + property tests for the Pauli algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stabilizer import PauliString

from oracles.pauli import (from_label, is_hermitian, single, support,
                           symplectic_commutes, to_matrix, weight)


def pauli_strategy(n=4):
    return st.builds(
        lambda xs, zs, ph: PauliString(np.array(xs), np.array(zs), ph),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.integers(0, 3),
    )


class TestConstruction:
    def test_identity(self):
        p = PauliString.identity(3)
        assert weight(p) == 0
        assert p.label() == "+III"

    def test_from_label_roundtrip(self):
        for label in ["+XIZ", "-YY", "+ZZZZ", "-IXYZ"]:
            assert from_label(label).label() == label

    def test_from_label_phases(self):
        assert from_label("iX").phase == 1
        assert from_label("-X").phase == 2

    def test_y_carries_i_factor(self):
        y = from_label("Y")
        assert y.phase == 1  # Y = i XZ

    def test_bad_character_rejected(self):
        with pytest.raises(ValueError):
            from_label("XQ")

    def test_single(self):
        p = single(3, 1, "Y")
        assert p.label() == "+IYI"

    def test_mismatched_xz_rejected(self):
        with pytest.raises(ValueError):
            PauliString([1, 0], [1])


class TestAlgebra:
    def test_xz_anticommute(self):
        x = from_label("X")
        z = from_label("Z")
        assert not x.commutes_with(z)

    def test_xx_zz_commute(self):
        assert from_label("XX").commutes_with(
            from_label("ZZ"))

    def test_product_xy(self):
        x = from_label("X")
        y = from_label("Y")
        # X @ Y = iZ
        assert (x * y).label() == "iZ"

    def test_product_matches_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = PauliString(rng.integers(0, 2, 3), rng.integers(0, 2, 3),
                            int(rng.integers(0, 4)))
            b = PauliString(rng.integers(0, 2, 3), rng.integers(0, 2, 3),
                            int(rng.integers(0, 4)))
            np.testing.assert_allclose(
                to_matrix(a * b), to_matrix(a) @ to_matrix(b),
                atol=1e-12)

    def test_neg(self):
        p = from_label("X")
        assert (-p).label() == "-X"

    def test_hermitian_detection(self):
        assert is_hermitian(from_label("XYZ"))
        assert not is_hermitian(PauliString(np.array([1]), np.array([0]), 1))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(pauli_strategy(), pauli_strategy())
    def test_commutation_matches_matrix(self, a, b):
        mat_comm = np.allclose(
            to_matrix(a) @ to_matrix(b), to_matrix(b) @ to_matrix(a))
        assert a.commutes_with(b) == mat_comm

    @settings(max_examples=60, deadline=None)
    @given(pauli_strategy())
    def test_self_commutes(self, p):
        assert p.commutes_with(p)

    @settings(max_examples=60, deadline=None)
    @given(pauli_strategy(), pauli_strategy())
    def test_product_weight_support(self, a, b):
        prod = a * b
        prod_support = set(support(prod))
        assert prod_support <= set(support(a)) | set(support(b))

    @settings(max_examples=60, deadline=None)
    @given(pauli_strategy(), pauli_strategy(), pauli_strategy())
    def test_product_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(pauli_strategy())
    def test_square_is_scalar(self, p):
        sq = p * p
        assert weight(sq) == 0


class TestSymplecticBatch:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        x1 = rng.integers(0, 2, (20, 5), dtype=np.uint8)
        z1 = rng.integers(0, 2, (20, 5), dtype=np.uint8)
        x2 = rng.integers(0, 2, (20, 5), dtype=np.uint8)
        z2 = rng.integers(0, 2, (20, 5), dtype=np.uint8)
        batch = symplectic_commutes(x1, z1, x2, z2)
        for i in range(20):
            a = PauliString(x1[i], z1[i])
            b = PauliString(x2[i], z2[i])
            assert batch[i] == a.commutes_with(b)
