"""Privacy profiles, group profiles, the quadrature oracle, calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subamp.mechanisms import (
    Family,
    MechanismSpec,
    PrivacyPoint,
    calibrate_sigma,
    group_profile,
    profile,
    profile_numeric_oracle,
)

from reference_values import check_printed


class TestProfile:
    @pytest.mark.parametrize(
        "family, theta, eps, printed",
        [
            ("laplace", 1.0, 0.5, "0.221"),
            ("laplace", 1.0, 1.0, "0"),
            ("gaussian", 1.0, 1.0, "0.127"),
            ("gaussian", 1.0, 2.0, "0.021"),
        ],
    )
    def test_reference_points(self, family, theta, eps, printed):
        assert check_printed(profile(MechanismSpec(family, theta), eps), printed)

    def test_laplace_zero_past_theta(self):
        mech = MechanismSpec(Family.LAPLACE, 1.0)
        for eps in np.linspace(1.0, 20.0, 50):
            assert profile(mech, float(eps)) == 0.0

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("theta", [0.25, 1.0, 4.0])
    def test_nonincreasing_in_eps(self, family, theta):
        mech = MechanismSpec(family, theta)
        grid = np.linspace(0.0, 8.0, 1000)
        values = profile(mech, grid)
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_array_and_scalar_agree(self):
        mech = MechanismSpec("gaussian", 0.7)
        grid = np.array([0.0, 0.3, 1.7])
        arr = profile(mech, grid)
        assert arr.tolist() == [profile(mech, float(e)) for e in grid]

    def test_rejects_bad_epsilon(self):
        mech = MechanismSpec("gaussian", 1.0)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                profile(mech, bad)

    def test_rejects_bad_theta(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                MechanismSpec("laplace", bad)

    def test_deep_tail_has_relative_precision(self):
        # Values near 1e-73 appear in the reference table and must not
        # collapse to 0 or lose their leading digits.
        val = profile(MechanismSpec("gaussian", 0.25), 4.5)
        assert check_printed(val, "1.27e-73")


class TestGroupProfile:
    def test_identity_at_j_one(self):
        mech = MechanismSpec("gaussian", 0.5)
        for eps in (0.0, 0.7, 3.0):
            assert group_profile(mech, 1, eps) == profile(mech, eps)

    def test_laplace_zero_when_eps_dominates(self):
        assert group_profile(MechanismSpec("laplace", 1.0), 3, 3.0) == 0.0

    def test_substitution_rule(self):
        # Scaling theta by j reproduces the profile of the scaled mechanism.
        lhs = group_profile(MechanismSpec("gaussian", 0.25), 4, 1.0)
        rhs = profile(MechanismSpec("gaussian", 1.0), 1.0)
        assert lhs == rhs
        assert check_printed(lhs, "0.127")

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_nondecreasing_in_group_size(self, family):
        mech = MechanismSpec(family, 0.4)
        for eps in (0.1, 1.0, 2.5):
            values = [group_profile(mech, j, eps) for j in range(1, 12)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_zero_group(self):
        with pytest.raises(ValueError):
            group_profile(MechanismSpec("laplace", 1.0), 0, 1.0)

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_array_of_group_sizes(self, family):
        mech, j = MechanismSpec(family, 0.4), np.arange(1, 12)
        values = group_profile(mech, j, 0.8)
        assert isinstance(values, np.ndarray)
        assert values.tolist() == [group_profile(mech, int(u), 0.8) for u in j]
        for bad in (np.array([1, 0, 2]), np.array([1.0, 2.0]), 2.0):
            with pytest.raises(ValueError):
                group_profile(mech, bad, 0.8)


class TestNumericOracle:
    @pytest.mark.parametrize(
        "family, theta, j, eps, printed",
        [
            ("gaussian", 1.0, 1, 1.0, "0.127"),
            ("laplace", 1.0, 1, 0.5, "0.221"),
        ],
    )
    def test_matches_reference(self, family, theta, j, eps, printed):
        val = profile_numeric_oracle(MechanismSpec(family, theta), j, eps)
        assert check_printed(val, printed)

    def test_laplace_exact_zero_region(self):
        val = profile_numeric_oracle(MechanismSpec("laplace", 1.0), 1, 2.0)
        assert abs(val) <= 1e-9

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("theta", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_agreement_with_closed_form(self, family, theta, j):
        mech = MechanismSpec(family, theta)
        for eps in (0.0, 0.5, 1.5, 3.0, 6.0):
            closed = group_profile(mech, j, eps)
            quad = profile_numeric_oracle(mech, j, eps)
            assert abs(closed - quad) <= 1e-6


class TestCalibration:
    def test_classical_closed_form(self):
        # eps = 1 sits outside the formula's nominal range, hence the warning.
        with pytest.warns(RuntimeWarning):
            got = calibrate_sigma("gaussian", 0.05, 1.0, 1.0, method="classical")
        assert got == pytest.approx(math.sqrt(2.0 * math.log(25.0)), rel=1e-12)

    def test_classical_reproduces_bootstrap_scale(self):
        # Deamplified loss for a 10% inclusion probability at eps' = 0.1.
        eps = math.log1p(math.expm1(0.1) / 0.1)
        got = calibrate_sigma("gaussian", 1 / 300, eps, 8 / 300, method="classical")
        assert check_printed(got, "0.13")

    def test_classical_warns_outside_unit_range(self):
        with pytest.warns(RuntimeWarning):
            calibrate_sigma("gaussian", 0.05, 1.5, 1.0, method="classical")

    def test_exact_is_self_consistent(self):
        for eps, delta in [(0.5, 1e-4), (1.0, 0.05), (2.0, 1e-8)]:
            sigma = calibrate_sigma("gaussian", delta, eps, 1.0, method="exact")
            assert profile(MechanismSpec("gaussian", 1.0 / sigma), eps) == pytest.approx(
                delta, abs=1e-9
            )

    def test_exact_supports_laplace(self):
        sigma = calibrate_sigma("laplace", 0.1, 0.5, 1.0, method="exact")
        assert profile(MechanismSpec("laplace", 1.0 / sigma), 0.5) == pytest.approx(
            0.1, abs=1e-9
        )

    def test_exact_monotone_in_delta(self):
        sigmas = [
            calibrate_sigma("gaussian", d, 1.0, 1.0, method="exact")
            for d in (1e-8, 1e-6, 1e-4, 1e-2, 0.2)
        ]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(sigmas, sigmas[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            calibrate_sigma("gaussian", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            calibrate_sigma("gaussian", 0.1, -1.0, 1.0)
        with pytest.raises(ValueError):
            calibrate_sigma("laplace", 0.1, 1.0, 1.0, method="classical")
        with pytest.raises(ValueError):
            calibrate_sigma("gaussian", 0.1, 1.0, 1.0, method="nope")


class TestPrivacyPoint:
    def test_validation(self):
        PrivacyPoint(0.5, 0.1)
        with pytest.raises(ValueError):
            PrivacyPoint(-0.1, 0.1)
        with pytest.raises(ValueError):
            PrivacyPoint(0.5, 1.5)


@given(
    family=st.sampled_from(["laplace", "gaussian"]),
    theta=st.floats(0.05, 8.0),
    eps_a=st.floats(0.0, 6.0),
    eps_b=st.floats(0.0, 6.0),
)
@settings(max_examples=200, deadline=None)
def test_profile_monotone_property(family, theta, eps_a, eps_b):
    mech = MechanismSpec(family, theta)
    lo, hi = sorted((eps_a, eps_b))
    assert profile(mech, hi) <= profile(mech, lo) + 1e-15
