"""Unit tests for dB/linear conversions."""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optics.units import (
    DB_FLOOR,
    add_powers_db,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
)


class TestDbToLinear:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_three_db_is_double(self):
        assert db_to_linear(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_negative_db_is_fraction(self):
        assert db_to_linear(-10.0) == pytest.approx(0.1)

    def test_array_input(self):
        arr = np.array([0.0, 10.0, 20.0])
        np.testing.assert_allclose(db_to_linear(arr), [1.0, 10.0, 100.0])


class TestLinearToDb:
    def test_unity_is_zero_db(self):
        assert linear_to_db(1.0) == pytest.approx(0.0)

    def test_hundred_is_twenty_db(self):
        assert linear_to_db(100.0) == pytest.approx(20.0)

    def test_zero_clamps_to_floor(self):
        assert linear_to_db(0.0) == DB_FLOOR

    def test_negative_clamps_to_floor(self):
        assert linear_to_db(-5.0) == DB_FLOOR

    def test_tiny_positive_clamps_to_floor(self):
        assert linear_to_db(1e-30) == DB_FLOOR

    def test_array_mixes_positive_and_zero(self):
        arr = np.array([1.0, 0.0, 10.0, -1.0])
        out = linear_to_db(arr)
        np.testing.assert_allclose(out, [0.0, DB_FLOOR, 10.0, DB_FLOOR])

    def test_custom_floor(self):
        assert linear_to_db(0.0, floor_db=-99.0) == -99.0


class TestRoundTrip:
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_db_linear_db(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-9)

    @given(st.floats(min_value=1e-5, max_value=1e5))
    def test_linear_db_linear(self, lin):
        assert db_to_linear(linear_to_db(lin)) == pytest.approx(lin, rel=1e-9)


class TestAbsolutePower:
    def test_zero_dbm_is_one_mw(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_thirty_dbm_is_one_watt(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)


class TestAddPowersDb:
    def test_equal_powers_gain_3db(self):
        assert add_powers_db(-20.0, -20.0) == pytest.approx(-16.9897, abs=1e-3)

    def test_single_value_is_identity(self):
        assert add_powers_db(-7.0) == pytest.approx(-7.0)

    def test_dominant_term_wins(self):
        # a 40 dB weaker term changes the sum by < 0.001 dB
        assert add_powers_db(0.0, -40.0) == pytest.approx(0.0, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            add_powers_db()

    @given(st.lists(st.floats(min_value=-40, max_value=10), min_size=2, max_size=6))
    def test_sum_at_least_max(self, values):
        assert add_powers_db(*values) >= max(values) - 1e-9
