"""Check runner: how residuals are turned into verdicts."""
import math

import pytest

from nklab import suites


class TestExtract:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("keys", [("a", "b"), ("b", "a"), "b"])
    def test_non_finite_residual_fails(self, bad, keys):
        residual = suites._extract({"a": 1e-12, "b": bad}, keys)
        assert not residual <= 1e-8

    def test_largest_magnitude(self):
        assert suites._extract({"a": -3e-9, "b": 1e-9}, ("a", "b")) == 3e-9
