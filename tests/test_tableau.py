"""Tests for the single-state tableau: gates, measurement, invariants."""

import numpy as np
import pytest

from repro.stabilizer import PauliString

from oracles.chp import Tableau, _gf2_rank
from oracles.pauli import from_label


def rng():
    return np.random.default_rng(42)


class TestInitialState:
    def test_initial_stabilizers_are_z(self):
        t = Tableau(3)
        labels = [s.label() for s in t.stabilizers()]
        assert labels == ["+ZII", "+IZI", "+IIZ"]

    def test_initial_destabilizers_are_x(self):
        t = Tableau(2)
        labels = [s.label() for s in t.destabilizers()]
        assert labels == ["+XI", "+IX"]

    def test_initial_tableau_valid(self):
        assert Tableau(5).is_valid()

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            Tableau(0)


class TestGateConjugation:
    def test_h_maps_z_to_x(self):
        t = Tableau(1)
        t.h(0)
        assert t.stabilizers()[0].label() == "+X"

    def test_x_flips_stabilizer_sign(self):
        t = Tableau(1)
        t.x_gate(0)
        assert t.stabilizers()[0].label() == "-Z"

    def test_s_then_sdg_identity(self):
        t = Tableau(2)
        t.h(0)
        t.s(0)
        t.sdg(0)
        assert t.stabilizers()[0].label() == "+XI"

    def test_s_on_x_gives_y(self):
        t = Tableau(1)
        t.h(0)   # stabilizer X
        t.s(0)   # X -> Y
        assert t.stabilizers()[0].label() == "+Y"

    def test_sdg_on_x_gives_minus_y(self):
        t = Tableau(1)
        t.h(0)
        t.sdg(0)
        assert t.stabilizers()[0].label() == "-Y"

    def test_cx_propagates_x(self):
        t = Tableau(2)
        t.h(0)
        t.cx(0, 1)
        labels = {s.label() for s in t.stabilizers()}
        assert labels == {"+XX", "+ZZ"}  # Bell pair

    def test_cz_symmetric(self):
        t1 = Tableau(2)
        t1.h(0); t1.h(1); t1.cz(0, 1)
        t2 = Tableau(2)
        t2.h(0); t2.h(1); t2.cz(1, 0)
        assert {s.label() for s in t1.stabilizers()} == \
               {s.label() for s in t2.stabilizers()}

    def test_swap(self):
        t = Tableau(2)
        t.x_gate(0)
        t.swap(0, 1)
        assert t.expectation(from_label("ZI")) == 1
        assert t.expectation(from_label("IZ")) == -1

    def test_gates_preserve_validity(self):
        t = Tableau(4)
        g = rng()
        for _ in range(200):
            op = g.integers(6)
            q = int(g.integers(4))
            if op == 0:
                t.h(q)
            elif op == 1:
                t.s(q)
            elif op == 2:
                t.x_gate(q)
            elif op == 3:
                t.sdg(q)
            else:
                q2 = int((q + 1 + g.integers(3)) % 4)
                (t.cx if op == 4 else t.cz)(q, q2)
        assert t.is_valid()


class TestMeasurement:
    def test_deterministic_zero(self):
        t = Tableau(1)
        assert t.measure(0, rng()) == 0

    def test_deterministic_one_after_x(self):
        t = Tableau(1)
        t.x_gate(0)
        assert t.measure(0, rng()) == 1

    def test_random_measurement_collapses(self):
        t = Tableau(1)
        t.h(0)
        g = rng()
        first = t.measure(0, g)
        for _ in range(5):
            assert t.measure(0, g) == first

    def test_forced_outcome(self):
        for want in (0, 1):
            t = Tableau(1)
            t.h(0)
            assert t.measure(0, rng(), forced_outcome=want) == want

    def test_bell_correlation(self):
        for seed in range(20):
            t = Tableau(2)
            t.h(0)
            t.cx(0, 1)
            g = np.random.default_rng(seed)
            assert t.measure(0, g) == t.measure(1, g)

    def test_measurement_keeps_validity(self):
        t = Tableau(3)
        g = rng()
        t.h(0); t.cx(0, 1); t.cx(1, 2)
        t.measure(1, g)
        assert t.is_valid()

    def test_reset_forces_zero(self):
        for seed in range(10):
            t = Tableau(2)
            g = np.random.default_rng(seed)
            t.h(0)
            t.cx(0, 1)
            t.reset(0, g)
            assert t.measure(0, g) == 0


class TestExpectation:
    def test_stabilizer_expectation_plus_one(self):
        t = Tableau(2)
        t.h(0)
        t.cx(0, 1)
        assert t.expectation(from_label("XX")) == 1
        assert t.expectation(from_label("ZZ")) == 1

    def test_anticommuting_gives_zero(self):
        t = Tableau(1)
        assert t.expectation(from_label("X")) == 0

    def test_negative_expectation(self):
        t = Tableau(1)
        t.x_gate(0)
        assert t.expectation(from_label("Z")) == -1

    def test_non_hermitian_rejected(self):
        t = Tableau(1)
        with pytest.raises(ValueError):
            t.expectation(PauliString(np.array([1]), np.array([0]), 1))

    def test_copy_independent(self):
        t = Tableau(1)
        c = t.copy()
        c.x_gate(0)
        assert t.expectation(from_label("Z")) == 1
        assert c.expectation(from_label("Z")) == -1


class TestGf2Rank:
    def test_identity_full_rank(self):
        assert _gf2_rank(np.eye(4, dtype=np.uint8)) == 4

    def test_duplicate_rows(self):
        m = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        assert _gf2_rank(m) == 1

    def test_zero_matrix(self):
        assert _gf2_rank(np.zeros((3, 3), dtype=np.uint8)) == 0

    def test_xor_dependence(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        assert _gf2_rank(m) == 2
