import math

import numpy as np
import pytest
from scipy import special

from biliseg import AnovaResult, ConfigError, DegenerateInputError, mean_std, one_way_anova
from biliseg.stats import reg_inc_beta


class TestMeanStd:
    def test_constant_samples(self):
        assert mean_std([5, 5, 5]) == (5.0, 0.0)

    def test_hand_computed(self):
        m, s = mean_std([1, 2, 3, 4])
        assert m == 2.5
        assert s == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-15)
        assert s == pytest.approx(1.2909944487358056, abs=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateInputError):
            mean_std([3.0])

    def test_sample_convention(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=40)
        _, s = mean_std(x)
        assert s == pytest.approx(float(np.std(x, ddof=1)), rel=1e-12)

    @pytest.mark.parametrize("samples, expected", [
        ([-1e160, 1e160], (0.0, 1.414213562373095e160)),  # the squares overflow
        ([1e308, 1.7e308], (1.35e308, 4.949747468305832e307)),  # the sum overflows
    ], ids=["squares-overflow", "sum-overflows"])
    def test_finite_samples_near_the_float_limit(self, samples, expected):
        assert mean_std(samples) == expected

    def test_spread_beyond_the_float_range_rejected(self):
        with pytest.raises(DegenerateInputError, match="beyond the float range"):
            mean_std([-1.7e308, 1.7e308])


class TestRegIncBeta:
    def test_uniform_cdf(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_identity_for_a1_b1(self):
        for x in np.linspace(0, 1, 21):
            assert reg_inc_beta(float(x), 1.0, 1.0) == pytest.approx(float(x), abs=1e-12)

    def test_closed_form_power(self):
        # I_x(a, 1) == x**a
        assert reg_inc_beta(0.8, 0.5, 1.0) == pytest.approx(0.8 ** 0.5, abs=1e-12)
        assert reg_inc_beta(0.3, 2.5, 1.0) == pytest.approx(0.3 ** 2.5, abs=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_reflection_identity_on_grid(self):
        for x in (0.05, 0.2, 0.5, 0.73, 0.95):
            for a in (0.5, 1.0, 2.0, 7.5):
                for b in (0.5, 1.3, 4.0, 9.0):
                    total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
                    assert total == pytest.approx(1.0, abs=1e-9)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            x = float(rng.uniform(0, 1))
            a = float(rng.uniform(0.1, 20))
            b = float(rng.uniform(0.1, 20))
            assert reg_inc_beta(x, a, b) == pytest.approx(float(special.betainc(a, b, x)),
                                                          abs=1e-10)

    @pytest.mark.parametrize("x, a, b, expected", [
        (0.3, 2.5, 4.0, "0x1.68a67be4cc811p-2"),      # the direct fraction
        (0.42, 13.0, 7.5, "0x1.937350d23b6fap-6"),
        (0.7, 0.5, 0.5, "0x1.43111b092557dp-1"),      # the reflected fraction
        (0.02, 3.0, 200.0, "0x1.8a930d9933dd2p-1"),
        (0.05, 0.1, 40.0, "0x1.fd3481f80652ep-1"),
    ])
    def test_pinned_bits(self, x, a, b, expected):
        assert reg_inc_beta(x, a, b).hex() == expected

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -2.0)


class TestOneWayAnova:
    def test_identical_groups(self):
        res = one_way_anova([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        assert res.f_stat == 0.0
        assert res.p_value == 1.0
        assert not res.significant

    def test_two_group_hand_computation(self):
        res = one_way_anova([[1, 2], [3, 4]])
        assert res.f_stat == 8.0
        assert res.df_between == 1 and res.df_within == 2
        assert res.p_value == pytest.approx(1.0 - 0.8 ** 0.5, abs=1e-12)
        assert res.p_value == pytest.approx(0.1055728090, abs=1e-9)
        assert not res.significant

    def test_location_and_scale_invariance(self):
        rng = np.random.default_rng(52)
        groups = [list(rng.normal(loc, 1.0, 8)) for loc in (0.0, 0.4, 1.1)]
        base = one_way_anova(groups)
        shifted = one_way_anova([[x + 13.7 for x in g] for g in groups])
        scaled = one_way_anova([[x * 3.25 for x in g] for g in groups])
        assert shifted.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert shifted.p_value == pytest.approx(base.p_value, rel=1e-9)
        assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_p_monotone_in_f(self):
        # higher F at the same degrees of freedom must lower p
        def p_of(f, d1, d2):
            x = d1 * f / (d1 * f + d2)
            return 1.0 - reg_inc_beta(x, d1 / 2.0, d2 / 2.0)

        previous = 1.0
        for f in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0):
            p = p_of(f, 2, 12)
            assert p <= previous + 1e-15
            previous = p

    def test_against_scipy_oracle(self):
        from scipy import stats as sstats
        rng = np.random.default_rng(53)
        for _ in range(25):
            groups = [list(rng.normal(rng.uniform(-1, 1), 1.0, int(rng.integers(3, 9))))
                      for _ in range(int(rng.integers(2, 5)))]
            res = one_way_anova(groups)
            f_ref, p_ref = sstats.f_oneway(*groups)
            assert res.f_stat == pytest.approx(float(f_ref), rel=1e-10)
            assert res.p_value == pytest.approx(float(p_ref), abs=1e-10)

    def test_errors(self):
        with pytest.raises(ConfigError):
            one_way_anova([[1, 2, 3]])
        with pytest.raises(ConfigError):
            one_way_anova([[1, 2], [3]])
        with pytest.raises(DegenerateInputError):
            one_way_anova([[2, 2], [2, 2]])  # zero within-group variance

    @pytest.mark.parametrize("groups, cause", [
        ([[0.0, 1e-160], [1e10, 1e10]], "F overflows the float range"),
        ([[1e200, 1.0000000000000012e200], [-1e200, -1.0000000000000012e200]],  # (m - grand) ** 2
         "between-group sum of squares overflows"),
        ([[-1e160, 1e160], [0.5, 0.6]], "within-group sum of squares overflows"),
        # the group's mean is finite, the weighted sum of means is not
        ([[1.7e308, 1.7e308], [0.5, 0.6]], "between-group sum of squares overflows"),
        ([[1.7e308, 1.7e308], [1.7e308, 1.7e308]], "zero within-group variance"),
    ], ids=["f-overflows", "between-sum-overflows", "within-sum-overflows", "grand-mean-overflows",
            "huge-equal-groups"])
    def test_overflow_leaves_f_undefined(self, groups, cause):
        with pytest.raises(DegenerateInputError, match=f"^{cause}$"):
            one_way_anova(groups)

    def test_significance_boundary_is_strict(self):
        assert not AnovaResult(1.0, 1, 10, 0.05).significant
        assert AnovaResult(1.0, 1, 10, 0.049999999).significant
        assert not AnovaResult(1.0, 1, 10, 0.0500001).significant
