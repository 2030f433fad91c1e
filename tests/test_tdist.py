import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtr

from hiersparse import confidence_intervals, t_quantile


class TestStudentT:
    def test_quantile_median_is_zero(self):
        assert t_quantile(0.5, 3.0) == 0.0

    def test_known_value_df_ten(self):
        assert t_quantile(0.975, 10.0) == pytest.approx(2.228139, abs=1e-6)

    def test_large_df_normal_limit(self):
        assert t_quantile(0.975, float("inf")) == pytest.approx(1.959964, abs=1e-6)
        assert t_quantile(0.975, 1e6) == pytest.approx(1.959966, abs=5e-6)
        assert t_quantile(0.975, 1e6) == pytest.approx(
            float(stats.t.ppf(0.975, 1e6)), abs=1e-6
        )

    def test_matches_scipy_grid(self):
        for df in (0.5, 1.0, 2.5, 10.0, 100.0, 1e4, 1e6):
            for p in (0.01, 0.2, 0.6, 0.9, 0.975, 0.999):
                assert t_quantile(p, df) == pytest.approx(
                    float(stats.t.ppf(p, df)), abs=1e-6
                )

    @given(p=st.floats(0.001, 0.999), df=st.floats(0.5, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_quantile_inverts_cdf(self, p, df):
        assert stdtr(df, t_quantile(p, df)) == pytest.approx(p, abs=1e-9)

    @given(p=st.floats(0.501, 0.999), df=st.floats(0.5, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, p, df):
        assert t_quantile(1.0 - p, df) == pytest.approx(-t_quantile(p, df), abs=1e-9)

    def test_monotone_in_p(self):
        qs = [t_quantile(p, 6.0) for p in np.linspace(0.05, 0.95, 19)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5.0)
        with pytest.raises(ValueError):
            t_quantile(0.5, 0.0)

    def test_nan_df_is_refused(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="df"):
            t_quantile(0.975, nan)
        with pytest.raises(ValueError, match="df"):
            confidence_intervals(np.zeros(3), np.ones(3), nan, 0.05)
