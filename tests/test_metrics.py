import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from taskseq.metrics import (
    MetricKind,
    MetricParams,
    _joint_groups,
    _trapezoid_is_monotone,
    _trapezoid_kernel,
    default_weights,
    edge_cost,
    linear_interp_duration,
    max_joint_difference,
    pairwise_cost,
    trapezoid_duration_1d,
    weighted_euclidean,
)
from taskseq.model import planar_arm


def test_weighted_euclidean_reduces_to_euclidean():
    assert weighted_euclidean([0.0, 0.0], [3.0, 4.0], [1.0, 1.0]) == pytest.approx(5.0)


def test_weighted_euclidean_weights_squared_difference():
    assert weighted_euclidean([0.0, 0.0], [1.0, 2.0], [4.0, 1.0]) == pytest.approx(math.sqrt(8.0))


def test_weighted_euclidean_identity():
    q = np.array([0.3, -1.2, 2.0])
    assert weighted_euclidean(q, q, [2.0, 1.0, 0.5]) == 0.0


def test_weighted_euclidean_length_mismatch():
    with pytest.raises(ValueError):
        weighted_euclidean([0.0], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        weighted_euclidean([0.0, 1.0], [1.0, 2.0], [1.0])


def test_max_joint_difference_direct():
    assert max_joint_difference([0.0, 0.0], [1.0, 2.0], [1.0, 1.0]) == pytest.approx(2.0)
    assert max_joint_difference([0.0, 0.0], [1.0, 2.0], [1.0, 4.0]) == pytest.approx(1.0)


def test_max_joint_difference_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.normal(size=4), rng.normal(size=4)
        v = rng.uniform(0.5, 2.0, 4)
        assert max_joint_difference(a, b, v) == max_joint_difference(b, a, v)


@pytest.mark.parametrize(
    "delta,vmax,amax,expected",
    [
        (2.0, 1.0, 1.0, 3.0),    # trapezoidal profile
        (1.0, 1.0, 1.0, 2.0),    # exact triangle/trapezoid boundary
        (0.25, 1.0, 1.0, 1.0),   # triangular profile
        (0.0, 1.0, 1.0, 0.0),
        (-2.0, 1.0, 1.0, 3.0),   # sign-independent
    ],
)
def test_trapezoid_durations(delta, vmax, amax, expected):
    assert trapezoid_duration_1d(delta, vmax, amax) == pytest.approx(expected)


def test_trapezoid_continuous_at_profile_boundary():
    vmax, amax = 1.3, 0.7
    boundary = vmax * vmax / amax
    below = trapezoid_duration_1d(boundary * (1 - 1e-12), vmax, amax)
    above = trapezoid_duration_1d(boundary * (1 + 1e-12), vmax, amax)
    assert below == pytest.approx(2 * vmax / amax, rel=1e-9)
    assert above == pytest.approx(2 * vmax / amax, rel=1e-9)


def test_trapezoid_rejects_bad_limits():
    with pytest.raises(ValueError):
        trapezoid_duration_1d(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        trapezoid_duration_1d(1.0, 1.0, -1.0)


def test_linear_interp_single_joint_reduces_to_1d():
    assert linear_interp_duration([0.0], [2.0], [1.0], [1.0]) == pytest.approx(3.0)


def test_linear_interp_identity_and_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        v = rng.uniform(0.5, 2.0, 3)
        acc = rng.uniform(0.5, 2.0, 3)
        assert linear_interp_duration(a, a, v, acc) == 0.0
        assert linear_interp_duration(a, b, v, acc) == linear_interp_duration(b, a, v, acc)


def test_linear_interp_dominates_max_joint_difference():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a, b = rng.normal(size=5), rng.normal(size=5)
        v = rng.uniform(0.2, 3.0, 5)
        acc = rng.uniform(0.2, 3.0, 5)
        assert linear_interp_duration(a, b, v, acc) >= max_joint_difference(a, b, v) - 1e-12


@pytest.mark.parametrize("kind", list(MetricKind))
def test_metric_axioms(kind):
    rng = np.random.default_rng(6)
    params = MetricParams(
        weights=rng.uniform(0.5, 3.0, 4),
        vel_max=rng.uniform(0.5, 2.0, 4),
        acc_max=rng.uniform(0.5, 2.0, 4),
    )
    triangle = kind in (MetricKind.WEIGHTED_EUCLIDEAN, MetricKind.MAX_JOINT_DIFFERENCE)
    for _ in range(1000):
        a, b, c = (rng.uniform(-math.pi, math.pi, 4) for _ in range(3))
        dab = edge_cost(kind, params, a, b)
        assert dab >= 0.0
        assert edge_cost(kind, params, a, a) == 0.0
        assert dab == edge_cost(kind, params, b, a)
        if triangle:
            assert edge_cost(kind, params, a, c) <= dab + edge_cost(kind, params, b, c) + 1e-12


def test_default_weights_are_distal_reach_sums():
    assert np.allclose(default_weights(planar_arm((1.0, 1.0, 1.0))), [3.0, 2.0, 1.0])
    assert np.allclose(default_weights(planar_arm((2.0, 1.0))), [3.0, 1.0])
    assert np.allclose(default_weights(planar_arm((5.0,))), [5.0])


def test_edge_cost_dispatch_matches_direct_calls():
    params = MetricParams(weights=[1.0, 1.0], vel_max=[1.0, 1.0], acc_max=[1.0, 1.0])
    a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    assert edge_cost(MetricKind.WEIGHTED_EUCLIDEAN, params, a, b) == pytest.approx(5.0)
    assert edge_cost(MetricKind.MAX_JOINT_DIFFERENCE, params, a, b) == pytest.approx(4.0)
    assert edge_cost(MetricKind.LINEAR_INTERP_DURATION, params, a, b) == pytest.approx(5.0)


@pytest.mark.parametrize("dof", [3, 8, 24])  # numpy sums 8+ terms pairwise, not in order
@pytest.mark.parametrize("kind", list(MetricKind))
def test_pairwise_kernel_matches_scalar_metric(kind, dof):
    rng = np.random.default_rng(8)
    params = MetricParams(
        weights=rng.uniform(0.5, 3.0, dof),
        vel_max=rng.uniform(0.5, 2.0, dof),
        acc_max=rng.uniform(0.5, 2.0, dof),
    )
    a = rng.uniform(-math.pi, math.pi, (4, dof))
    b = rng.uniform(-math.pi, math.pi, (5, dof))
    table = pairwise_cost(kind, params, a, b)
    assert table.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert table[i, j] == edge_cost(kind, params, a[i], b[j])


def _full_difference_cost(kind, params, a, b):
    """The pairwise pricing the kernels must reproduce: one (m_a, m_b, dof) difference array."""
    diff = a[:, None, :] - b[None, :, :]
    if kind is MetricKind.WEIGHTED_EUCLIDEAN:
        return np.sqrt(np.sum(params.weights * diff * diff, axis=-1))
    if kind is MetricKind.MAX_JOINT_DIFFERENCE:
        return np.max(np.abs(diff) / params.vel_max, axis=-1)
    dist, vmax, amax = np.abs(diff), params.vel_max, params.acc_max
    durations = np.where(dist >= vmax * vmax / amax, dist / vmax + vmax / amax, 2.0 * np.sqrt(dist / amax))
    return np.max(durations, axis=-1)


_ENTRIES = st.one_of(
    st.floats(-8.0, 8.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
# Multiples of a joint's profile boundary vmax^2/amax: moves of exactly that
# distance and one ulp either side of it take both branches of the trapezoid.
_BOUNDARY_FACTORS = st.sampled_from([0.0, 1.0, -1.0, 1.0 + 2**-52, 1.0 - 2**-53, 0.5, 2.0])


@st.composite
def _priced_stacks(draw, dof):
    limits = arrays(float, dof, elements=st.floats(0.25, 4.0))
    params = MetricParams(weights=draw(limits), vel_max=draw(limits), acc_max=draw(limits))
    boundary = params.vel_max * params.vel_max / params.acc_max

    def stack():
        shape = (draw(st.integers(1, 40)), dof)
        plain = draw(arrays(float, shape, elements=_ENTRIES))
        factors = draw(arrays(float, shape, elements=_BOUNDARY_FACTORS))
        return np.where(draw(arrays(bool, shape)), factors * boundary, plain)

    return params, stack(), stack()


@pytest.mark.parametrize("dof", [1, 3, 6, 8, 24])
@pytest.mark.parametrize("kind", list(MetricKind))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pairwise_cost_matches_the_full_difference_array(kind, dof, data):
    params, a, b = data.draw(_priced_stacks(dof))
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN move on both sides
        expected = _full_difference_cost(kind, params, a, b)
        table = pairwise_cost(kind, params, a, b)
    assert np.array_equal(table, expected, equal_nan=True)


# The trapezoid formula drops across its branch point c = vmax^2/amax for
# these limits: f(prevfloat(c)) > f(c), so their joints must not be grouped.
_NON_MONOTONE = (0.05407598572326695, 3.8795177930322358)
_LIMIT_POOL = [_NON_MONOTONE, (1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]
_MAX_KINDS = [MetricKind.MAX_JOINT_DIFFERENCE, MetricKind.LINEAR_INTERP_DURATION]


def _around(c):
    """c, prevfloat(c), the float below that, nextfloat(c), and their negatives."""
    below = math.nextafter(c, 0.0)
    values = [c, below, math.nextafter(below, 0.0), math.nextafter(c, math.inf)]
    return values + [-v for v in values]


@st.composite
def _grouped_stacks(draw):
    """Limits drawn from a small pool, so joints share them; moves of zero, on
    c and next to it, or anywhere."""
    dof = draw(st.integers(1, 6))
    if draw(st.booleans()):  # every joint in one group
        pairs = [draw(st.sampled_from(_LIMIT_POOL))] * dof
    else:
        pairs = draw(st.lists(st.sampled_from(_LIMIT_POOL), min_size=dof, max_size=dof))
    params = MetricParams(np.ones(dof), [v for v, _ in pairs], [a for _, a in pairs])
    entries = [
        st.one_of(st.just(0.0), st.sampled_from(_around(v * v / a)), st.floats(-4.0, 4.0))
        for v, a in pairs
    ]
    rows = draw(st.integers(1, 12))
    a = np.array([[draw(entry) for entry in entries] for _ in range(rows)])
    return params, a, np.zeros((draw(st.integers(1, 4)), dof))


def _drop_example():
    """Two joints of the non-monotone pair, moved by prevfloat(c) and by c."""
    v, a = _NON_MONOTONE
    c = v * v / a
    params = MetricParams(np.ones(2), [v, v], [a, a])
    return params, np.array([[math.nextafter(c, 0.0), c]]), np.zeros((1, 2))


@pytest.mark.parametrize("kind", _MAX_KINDS)
@settings(max_examples=150, deadline=None)
@given(drawn=_grouped_stacks())
@example(drawn=_drop_example())
def test_grouped_pricing_matches_the_per_joint_formula(kind, drawn):
    params, a, b = drawn
    expected = _full_difference_cost(kind, params, a, b)
    assert np.array_equal(pairwise_cost(kind, params, a, b), expected)


def test_joints_with_equal_limits_are_grouped_unless_the_trapezoid_drops():
    v, a = _NON_MONOTONE
    params = MetricParams(np.ones(4), [1.0, v, 1.0, v], [1.0, a, 1.0, a])
    speed, trapezoid = params.vel_max.tobytes(), params.acc_max.tobytes()
    assert _joint_groups(speed) == (((0, 2), (1.0,)), ((1, 3), (v,)))
    assert _joint_groups(speed, trapezoid) == (((0, 2), (1.0, 1.0)), ((1,), (v, a)), ((3,), (v, a)))
    # The drop itself: one joint just below c costs more than another at c.
    c = v * v / a
    move = np.array([[0.0, math.nextafter(c, 0.0), 0.0, c]])
    priced = pairwise_cost(MetricKind.LINEAR_INTERP_DURATION, params, move, np.zeros((1, 4)))
    assert priced[0, 0] == trapezoid_duration_1d(math.nextafter(c, 0.0), v, a)
    assert priced[0, 0] > trapezoid_duration_1d(c, v, a)


def test_monotonicity_check_agrees_with_the_kernel_on_random_limits():
    # About 0.2% of random pairs drop across c; the check must flag exactly those.
    rng = np.random.default_rng(2)
    vmax, amax = rng.uniform(0.01, 5.0, 20000), rng.uniform(0.01, 5.0, 20000)
    c = vmax * vmax / amax

    def two_branch(dist):
        return np.where(dist >= c, dist / vmax + vmax / amax, 2.0 * np.sqrt(dist / amax))

    drops = two_branch(np.nextafter(c, 0.0)) > two_branch(c)
    assert 10 < np.count_nonzero(drops) < 200
    flagged = [not _trapezoid_is_monotone(v, a) for v, a in zip(vmax.tolist(), amax.tolist())]
    assert flagged == drops.tolist()


@pytest.mark.parametrize(
    "vmax,amax,monotone",
    [(1.0, 1.0, True), (2.816, 1.324, True), (*_NON_MONOTONE, False), (0.828, 2.082, False)],
    ids=["monotone", "monotone-branches-differ-at-c", "non-monotone", "non-monotone-2"],
)
def test_single_branch_kernel_matches_the_two_branch_formula_around_c(vmax, amax, monotone):
    # The kernel computes the long-move branch everywhere and overwrites the
    # moves strictly below c with the short-move branch; np.where picks the
    # same branch for every entry. In three of these cases the branches
    # differ at c itself, so a kernel that took the short branch at c fails.
    c = vmax * vmax / amax
    assert _trapezoid_is_monotone(vmax, amax) is monotone
    dist = np.array([0.0, math.nextafter(c, 0.0), c, math.nextafter(c, math.inf), 2.0 * c])
    two_branch = np.where(dist >= c, dist / vmax + vmax / amax, 2.0 * np.sqrt(dist / amax))
    assert _trapezoid_kernel(dist, vmax, amax).tobytes() == two_branch.tobytes()
    for d, expected in zip(dist, two_branch):  # the single-move path
        assert trapezoid_duration_1d(d, vmax, amax) == expected


_ONE_GROUP = ((0, 1, 2),)


@pytest.mark.parametrize(
    "vmax,amax,groups",
    [(1e-200, 1.0, _ONE_GROUP), (1e-170, 1e-30, _ONE_GROUP), (1e200, 1.0, _ONE_GROUP),
     (1e200, 0.5, _ONE_GROUP), (1e160, 1e-30, _ONE_GROUP),
     (math.inf, 1.0, ((0,), (1,), (2,))), (1.0, math.inf, _ONE_GROUP)],
    ids=["c-underflows", "c-underflows-small-amax", "c-overflows", "c-overflows-prev-overflows",
         "c-overflows-small-amax", "vmax-inf-splits", "amax-inf"],
)
def test_trapezoid_groups_at_c_zero_and_c_inf_raise_no_warning(vmax, amax, groups):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = vmax * vmax / amax
        assert c in (0.0, math.inf)
        params = MetricParams(np.ones(3), [vmax] * 3, [amax] * 3)
        expected = tuple((joints, (vmax, amax)) for joints in groups)
        assert _joint_groups(params.vel_max.tobytes(), params.acc_max.tobytes()) == expected
        a = np.array([[0.5, -1.0, 0.25], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        b = np.zeros((2, 3))
        kind = MetricKind.LINEAR_INTERP_DURATION
        table = pairwise_cost(kind, params, a, b)
        with np.errstate(over="ignore"):  # the reference squares vmax as an array
            assert np.array_equal(table, _full_difference_cost(kind, params, a, b))
        assert linear_interp_duration(a[0], b[0], [vmax] * 3, [amax] * 3) == trapezoid_duration_1d(
            1.0, vmax, amax
        )


@pytest.mark.parametrize("a_dof,b_dof,params_dof", [(1, 3, 3), (3, 3, 1), (3, 2, 3)])
@pytest.mark.parametrize("kind", list(MetricKind))
def test_pairwise_cost_rejects_a_joint_count_mismatch(kind, a_dof, b_dof, params_dof):
    params = MetricParams(weights=np.ones(params_dof), vel_max=np.ones(params_dof),
                          acc_max=np.ones(params_dof))
    buffer = np.getbufsize()
    with pytest.raises(ValueError, match="joint count mismatch"):
        pairwise_cost(kind, params, np.zeros((2, a_dof)), np.ones((3, b_dof)))
    assert np.getbufsize() == buffer  # restored after a failed pricing call too


@pytest.mark.parametrize("kind", [MetricKind.MAX_JOINT_DIFFERENCE, MetricKind.LINEAR_INTERP_DURATION])
def test_pairwise_cost_of_zero_joints_raises(kind):
    params = MetricParams(weights=[], vel_max=[], acc_max=[])
    with pytest.raises(ValueError):
        pairwise_cost(kind, params, np.empty((2, 0)), np.empty((3, 0)))


_NON_POSITIVE_LIMITS = [
    ([-1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    ([1.0, 1.0, 1.0], [1.0, -1.0, 1.0]),
    ([1.0, 1.0, 1.0], [1.0, 1.0, 0.0]),
]


@pytest.mark.parametrize("kind", [MetricKind.MAX_JOINT_DIFFERENCE, MetricKind.LINEAR_INTERP_DURATION])
def test_joint_groups_are_cached_by_the_limit_values(kind):
    # Ten scalar calls with the same limits group them once and hit the cache nine times.
    _joint_groups.cache_clear()
    q, q_to, limits = np.zeros(6), np.linspace(0.1, 0.6, 6), [1.0, 2.0, 1.0, 3.0, 2.0, 1.0]
    for _ in range(10):
        edge_cost(kind, MetricParams(np.ones(6), limits, limits), q, q_to)
    assert (_joint_groups.cache_info().hits, _joint_groups.cache_info().misses) == (9, 1)


@pytest.mark.parametrize("vel_max,acc_max", _NON_POSITIVE_LIMITS)
@pytest.mark.parametrize("kind", list(MetricKind))
def test_non_positive_limits_raise_through_pairwise_and_edge_cost(kind, vel_max, acc_max):
    a, b = np.zeros(3), np.ones(3)
    with pytest.raises(ValueError, match="must be positive"):
        pairwise_cost(kind, MetricParams(np.ones(3), vel_max, acc_max), a[None], b[None])
    with pytest.raises(ValueError, match="must be positive"):
        edge_cost(kind, MetricParams(np.ones(3), vel_max, acc_max), a, b)


@pytest.mark.parametrize("vel_max", [[-1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
def test_max_joint_difference_rejects_non_positive_vel_max(vel_max):
    with pytest.raises(ValueError, match="must be positive"):
        max_joint_difference(np.zeros(3), np.ones(3), vel_max)


def test_params_from_planar_robot_uses_reach_weights():
    params = MetricParams.from_robot(planar_arm((1.0, 1.0, 1.0)))
    assert np.allclose(params.weights, [3.0, 2.0, 1.0])
