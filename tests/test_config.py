"""The settable tolerances and their range checks."""

import math

import pytest

import luequiv as lq


class TestTolerances:
    @pytest.mark.parametrize("field", ["eps_deg", "eps_inv", "eps_cert"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-12, "1e-8", None])
    def test_eps_out_of_range_raises(self, field, value):
        with pytest.raises(ValueError, match=field):
            lq.Tolerances(**{field: value})
        with pytest.raises(ValueError, match=field):
            lq.DEFAULT_TOL.replace(**{field: value})

    @pytest.mark.parametrize("field", ["eps_deg", "eps_inv", "eps_cert"])
    def test_eps_zero_and_large_are_accepted(self, field):
        assert getattr(lq.Tolerances(**{field: 0.0}), field) == 0.0
        assert getattr(lq.Tolerances(**{field: 1}), field) == 1

    @pytest.mark.parametrize("value", [0, -3, 2.0, True, "4", math.nan])
    def test_tau_cap_out_of_range_raises(self, value):
        with pytest.raises(ValueError, match="tau_cap"):
            lq.Tolerances(tau_cap=value)

    def test_tau_cap_accepts_none_and_positive_integers(self):
        assert lq.Tolerances(tau_cap=None).effective_tau_cap(3) == 6
        assert lq.Tolerances(tau_cap=1).effective_tau_cap(3) == 1
