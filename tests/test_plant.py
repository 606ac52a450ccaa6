import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremobs.errors import ConfigurationError
from dremobs.plant import (
    CHUA_DISTURBANCE_AMPLITUDES,
    CHUA_DISTURBANCE_FREQUENCIES,
    CHUA_P0,
    NoiseSpec,
    OutputRegion,
    StateRegionRule,
    TimeScheduleRule,
    chua_preset,
    chua_robust_noise,
    sample_noise,
)
from reference import plant_rate


def chua_rhs_oracle(x):
    """Hand-assembled raw oscillator equations with the piecewise element."""
    p0, q0, r0 = 10.0, 16.0, 0.0385
    x1, x2, x3 = x
    if x1 >= 1.0:
        g = -0.7143 * x1 - 0.4286
    elif abs(x1) < 1.0:
        g = -1.1429 * x1
    else:
        g = -0.7143 * x1 + 0.4286
    return np.array(
        [p0 * (-x1 + x2 - g), x1 - x2 + x3, -q0 * x2 - r0 * x3]
    )


class TestRegionRule:
    def test_chua_region_examples(self):
        rule = chua_preset().switching_rule
        assert rule.subsystem_for(2.0, 0.0) == 1
        assert rule.subsystem_for(0.0, 0.0) == 2
        assert rule.subsystem_for(-2.0, 0.0) == 3

    def test_boundary_ties_go_to_outer_regions(self):
        rule = chua_preset().switching_rule
        assert rule.subsystem_for(1.0, 0.0) == 1
        assert rule.subsystem_for(-1.0, 0.0) == 3

    def test_non_finite_outputs_and_boundaries_map_to_a_subsystem(self):
        # NaN fails every bound test, so the first region holds it.
        rule = chua_preset().switching_rule
        ys = [math.nan, math.inf, -math.inf, 1.0, math.nextafter(1.0, 0.0), -1.0, math.nextafter(-1.0, 0.0)]
        assert [rule.subsystem_for(y, 0.0) for y in ys] == [1, 1, 3, 1, 2, 3, 2]
        # An infinite end written open is closed, as the coverage sweep takes
        # it: y = inf used to match no region and raise a raw ValueError.
        rule = StateRegionRule((
            OutputRegion(lower=0.0, upper=math.inf, upper_closed=False),
            OutputRegion(lower=-math.inf, upper=0.0, lower_closed=False, upper_closed=False),
        ))
        assert [(r.lower_closed, r.upper_closed) for r in rule.regions] == [(True, True), (True, False)]
        ys = [math.nan, math.inf, -math.inf, 0.0, -5e-324]
        assert [rule.subsystem_for(y, 0.0) for y in ys] == [1, 1, 2, 1, 2]

    def test_every_output_has_exactly_one_first_match(self):
        regions = chua_preset().switching_rule.regions
        rng = np.random.default_rng(0)
        for y in rng.uniform(-5, 5, 500):
            matches = [r.contains(y) for r in regions]
            assert any(matches)
            assert matches.index(True) == chua_preset().switching_rule.subsystem_for(y, 0.0) - 1

    def test_gap_raises_configuration_error(self):
        # Rejected at construction; open and closed seams compared exactly.
        inf = None
        gapped = [  # (lower, upper, lower_closed, upper_closed) per region
            [(1.0, inf, True, True), (inf, -1.0, True, True)],
            [(inf, 0.0, True, False), (0.0, inf, False, True)],
            [(inf, -1.0, True, True), (-1.0, 1.0, False, False), (2.0, inf, True, True)],
            [(-5.0, inf, True, True)],
            [(inf, 5.0, True, False)],
        ]
        for spans in gapped:
            with pytest.raises(ConfigurationError, match="cover the real line"):
                StateRegionRule(tuple(OutputRegion(*r) for r in spans))

    @pytest.mark.parametrize(
        "regions, match",
        [
            ((OutputRegion(lower="a"),), r"^regions\[0\]\.lower: bound 'a' is neither None nor"),
            ((OutputRegion(), OutputRegion(upper=[1.0])), r"^regions\[1\]\.upper: bound \[1\.0\]"),
            ((OutputRegion(lower=math.nan),), r"^regions\[0\]\.lower: bound nan"),
            ((OutputRegion(upper=True),), r"^regions\[0\]\.upper: bound True"),
            (
                (OutputRegion(upper=0.0, upper_closed="no"), OutputRegion(lower=0.0)),
                r"^regions\[0\]\.upper_closed: expected True or False, got 'no'$",
            ),
            (
                (OutputRegion(), OutputRegion(lower_closed=None)),
                r"^regions\[1\]\.lower_closed: expected True or False, got None$",
            ),
        ],
        ids=["text", "list", "nan", "bool", "text-flag", "none-flag"],
    )
    def test_rejects_bound_that_is_not_a_number(self, regions, match):
        # Compared in the coverage sweep before anything checked its type: a
        # raw TypeError, or for NaN a region that contained every output.  A
        # flag that is not a bool counted as its truth value: with "no",
        # y = 0 picked subsystem 1.
        with pytest.raises(ConfigurationError, match=match):
            StateRegionRule(regions)

    def test_integer_bound_beyond_the_float_range_is_an_infinity(self):
        # math.isnan raised a raw OverflowError on the integer.
        rule = StateRegionRule((OutputRegion(upper=10**400), OutputRegion(lower=-(10**400))))
        assert [(r.lower, r.upper) for r in rule.regions] == [(None, math.inf), (-math.inf, None)]
        assert rule.subsystem_for(1e308, 0.0) == 1

    def test_covering_seams_accepted(self):
        inf = None
        covering = [
            [(inf, 0.0, True, False), (0.0, inf, True, True)],
            [(inf, 0.0, True, True), (0.0, inf, False, True)],
            [(inf, 1.0, True, True), (-1.0, inf, False, True)],
            [(3.0, 2.0, True, True), (inf, inf, True, True)],  # an empty region
            [(inf, 0.0, True, False), (0.0, 0.0, True, True), (0.0, inf, False, True)],
        ]
        for spans in covering:
            StateRegionRule(tuple(OutputRegion(*r) for r in spans))


ENDPOINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def covering_regions(draw):
    """Random regions with open and closed ends, in declaration order; a
    catch-all region is appended when they leave a gap."""
    regions = [
        OutputRegion(
            lower=draw(st.none() | ENDPOINTS),
            upper=draw(st.none() | ENDPOINTS),
            lower_closed=draw(st.booleans()),
            upper_closed=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    try:
        StateRegionRule(tuple(regions))
    except ConfigurationError:
        regions.append(OutputRegion())
    return tuple(regions)


class TestRegionRuleFirstMatch:
    @settings(max_examples=200, deadline=None)
    @given(covering_regions())
    def test_first_region_containing_the_output(self, regions):
        rule = StateRegionRule(regions)
        probes = [0.0, -0.0, 1e308, -1e308]
        for e in (e for r in regions for e in (r.lower, r.upper) if e is not None):
            probes += [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]
        for y in probes + [-y for y in probes]:
            first = next(k for k, r in enumerate(regions, 1) if r.contains(y))
            assert rule.subsystem_for(y, 0.0) == first, (y, regions)


class TestScheduleRule:
    def test_piecewise_lookup(self):
        rule = TimeScheduleRule(((0.0, 2), (1.5, 1), (4.0, 3)))
        assert rule.subsystem_for(0.0, 0.0) == 2
        assert rule.subsystem_for(0.0, 1.49) == 2
        assert rule.subsystem_for(0.0, 1.5) == 1
        assert rule.subsystem_for(0.0, 10.0) == 3

    def test_query_before_start_fails(self):
        rule = TimeScheduleRule(((1.0, 1),))
        with pytest.raises(ConfigurationError):
            rule.subsystem_for(0.0, 0.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ConfigurationError):
            TimeScheduleRule(((0.0, 1), (0.0, 2)))

    @pytest.mark.parametrize(
        "entries, match",
        [
            (((0.0, 1), (None, 2)), r"^entries\[1\]\[0\]: expected a number, got None"),
            ((("0", 1),), r"^entries\[0\]\[0\]: expected a number, got '0'"),
            (((False, 1), (1.0, 2)), r"^entries\[0\]\[0\]: expected a number, got False"),
        ],
        ids=["none", "text", "bool"],
    )
    def test_rejects_start_that_is_not_a_number(self, entries, match):
        # Compared before anything checked its type: a raw TypeError.
        with pytest.raises(ConfigurationError, match=match):
            TimeScheduleRule(entries)


class TestChuaPreset:
    def test_psi_values(self):
        model = chua_preset()
        np.testing.assert_array_equal(
            model.psi(2.0, 0.0), -10.0 * np.array([[2.0, 1.0], [0, 0], [0, 0]])
        )

    def test_middle_branch_reproduces_linear_slope(self):
        model = chua_preset()
        for y in (0.3, -0.7, 0.99):
            first = (model.psi(y, 0.0) @ model.true_params[1])[0]
            np.testing.assert_allclose(first, -CHUA_P0 * (-1.1429 * y), rtol=1e-14)

    def test_piecewise_element_continuous_at_breakpoints(self):
        theta = chua_preset().true_params
        # slope * 1 + offset agrees between neighbouring branches at y = 1
        assert math.isclose(theta[0] @ [1.0, 1.0], theta[1] @ [1.0, 1.0])
        assert math.isclose(theta[2] @ [-1.0, 1.0], theta[1] @ [-1.0, 1.0])

    def test_derivative_zero_state_middle_branch(self):
        model = chua_preset()
        np.testing.assert_array_equal(
            plant_rate(model, np.zeros(3), 0.0, 2), np.zeros(3)
        )

    def test_derivative_matches_hand_assembled_oracle_at_x0(self):
        model = chua_preset()
        x0 = model.initial_state
        np.testing.assert_allclose(
            plant_rate(model, x0, 0.0, 1), chua_rhs_oracle(x0), atol=1e-12
        )

    def test_factorisation_matches_raw_model_at_random_states(self):
        model = chua_preset()
        rule = model.switching_rule
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x = rng.uniform(-4.0, 4.0, 3)
            sigma = rule.subsystem_for(x[0], 0.0)
            got = plant_rate(model, x, 0.0, sigma)
            np.testing.assert_allclose(got, chua_rhs_oracle(x), atol=1e-12)

    def test_zero_input_matrix_makes_input_irrelevant(self):
        model = chua_preset()
        base = plant_rate(model, model.initial_state, 0.0, 1)
        driven = type(model)(
            a=model.a,
            b=model.b,
            c=model.c,
            psi=model.psi,
            true_params=model.true_params,
            switching_rule=model.switching_rule,
            initial_state=model.initial_state,
            input_signal=lambda t: 3.7,
            name=model.name,
        )
        np.testing.assert_array_equal(
            plant_rate(driven, model.initial_state, 0.0, 1), base
        )

    def test_dimension_checks(self):
        # Checked once when the model is built, not on every evaluation.
        model = chua_preset()
        with pytest.raises(ConfigurationError, match=r"^initial_state: expected length n = 3"):
            replace(model, initial_state=np.zeros(2))
        with pytest.raises(ConfigurationError):
            replace(model, switching_rule=TimeScheduleRule(((0.0, 4),)))

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"a": np.ones((3, 2))}, r"^a: expected a non-empty square matrix, got shape \(3, 2\)"),
            ({"a": [[1.0, 2.0], [3.0]]}, r"^a: expected a rectangular array"),
            ({"b": np.zeros(4)}, r"^b: expected length n = 3, got shape \(4,\)"),
            ({"c": np.full(3, np.nan)}, r"^c\[0\]: expected a finite number, got nan"),
            ({"initial_state": np.zeros((3, 1))}, r"^initial_state: expected length n = 3"),
            ({"true_params": np.zeros(2)}, r"^true_params: expected s >= 1 parameter vectors"),
            ({"true_params": np.zeros((3, 6))}, r"^true_params: m \+ n = 9 exceeds"),
            ({"true_params": np.zeros((2, 2))}, r"^switching\.regions: 3 regions for 2 parameter"),
            ({"psi": lambda y, u: np.zeros((3, 3))}, r"^psi: must map floats"),
            ({"c": ["1", "0", "0"]}, r"^c\[0\]: expected a number, got '1'"),
            ({"c": [True, False, False]}, r"^c\[0\]: expected a number, got True"),
        ],
        ids=["a-not-square", "a-ragged", "b-length", "c-nan", "x0-shape", "params-flat",
             "m+n-9", "regions-count", "psi-shape", "c-strings", "c-bools"],
    )
    def test_field_errors_name_the_field(self, fields, match):
        # A wrong shape used to raise DimensionError, a ragged or non-finite
        # array a bare ValueError; strings and bools used to load as numbers.
        with pytest.raises(ConfigurationError, match=match):
            replace(chua_preset(), **fields)

    def test_checked_arrays_are_read_only_copies(self):
        a = chua_preset().a.copy()
        model = replace(chua_preset(), a=a)
        a[0, 0] = 1.0
        assert model.a[0, 0] == -CHUA_P0
        with pytest.raises(ValueError, match="read-only"):
            model.a[0, 0] = 1.0


class TestNoise:
    def test_zero_bound_always_zero(self):
        spec = NoiseSpec(v0=0.0, seed=123)
        assert all(sample_noise(spec, k) == 0.0 for k in range(100))

    def test_deterministic_per_index(self):
        spec = NoiseSpec(v0=0.1, seed=99)
        for k in (0, 1, 17, 100000):
            assert sample_noise(spec, k) == sample_noise(spec, k)

    def test_within_bound(self):
        spec = NoiseSpec(v0=0.1, seed=5)
        samples = np.array([sample_noise(spec, k) for k in range(10000)])
        assert np.abs(samples).max() <= 0.1

    def test_seed_changes_stream(self):
        a = [sample_noise(NoiseSpec(v0=0.1, seed=1), k) for k in range(50)]
        b = [sample_noise(NoiseSpec(v0=0.1, seed=2), k) for k in range(50)]
        assert a != b

    def test_uniform_moment_oracle(self):
        # Mean of N uniform samples on [-v0, v0] is within 3 sigma/sqrt(N).
        v0 = 0.1
        n = 10**5
        spec = NoiseSpec(v0=v0, seed=2024)
        samples = np.array([sample_noise(spec, k) for k in range(n)])
        bound = 3.0 * v0 / math.sqrt(3.0 * n)
        assert abs(samples.mean()) <= bound

    def test_disturbance_preset_values(self):
        noise = chua_robust_noise(seed=0)
        for t in (0.0, 0.37, 2.2):
            expected = CHUA_DISTURBANCE_AMPLITUDES * np.sin(
                CHUA_DISTURBANCE_FREQUENCIES * t
            )
            np.testing.assert_allclose(noise.omega(t), expected, rtol=1e-15)
        assert noise.v0 == 0.1

    def test_rejects_negative_bound(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(v0=-0.1)

    @pytest.mark.parametrize("v0", [math.inf, math.nan, -1.0], ids=["inf", "nan", "minus-1"])
    def test_rejects_bound_that_is_not_finite_and_nonnegative(self, v0):
        # An infinite or NaN bound used to build and abort the run at its
        # first step, naming x_hat[0].
        with pytest.raises(ConfigurationError, match=r"^v0: "):
            NoiseSpec(v0=v0)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"seed": 1.5}, r"^seed: 1\.5 is not an integer"),
            ({"seed": True}, r"^seed: True is not an integer"),
        ],
        ids=["float-seed", "bool-seed"],
    )
    def test_rejects_fields_at_build(self, fields, match):
        # A seed of 1.5 used to build and fail the run in sample_noise with a
        # raw TypeError.
        with pytest.raises(ConfigurationError, match=match):
            NoiseSpec(v0=0.1, **fields)

    def test_numpy_integer_seed_gives_its_int_stream(self):
        # Used to build and raise OverflowError in sample_noise.
        steps = np.arange(50)
        for seed in (5, -5, 2**63 - 1):
            expected = sample_noise(NoiseSpec(v0=0.1, seed=seed), steps)
            spec = NoiseSpec(v0=0.1, seed=np.int64(seed))
            assert type(spec.seed) is int
            assert sample_noise(spec, steps).tobytes() == expected.tobytes()
