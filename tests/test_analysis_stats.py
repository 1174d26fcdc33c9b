"""Tests for repro.analysis.stats: bootstrap confidence intervals."""

import numpy as np
import pytest

from repro.analysis.stats import relative_gain_ci
from repro.errors import ConfigError


class TestRelativeGain:
    def test_known_gain(self):
        base = [1.0] * 20
        new = [1.2] * 20
        s = relative_gain_ci(new, base, seed=6)
        assert s.mean == pytest.approx(0.2)
        assert s.ci_low > 0.0

    def test_noisy_gain_bracketed(self):
        rng = np.random.default_rng(7)
        base = rng.normal(1.0, 0.05, size=30)
        new = rng.normal(1.15, 0.05, size=30)
        s = relative_gain_ci(new, base, seed=8)
        realized = float(np.mean(new) / np.mean(base) - 1.0)
        assert s.ci_low <= realized <= s.ci_high
        assert 0.08 <= s.ci_low and s.ci_high <= 0.25

    def test_validation(self):
        with pytest.raises(ConfigError):
            relative_gain_ci([1.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            relative_gain_ci([1.0, 2.0], [0.0, 0.0])
