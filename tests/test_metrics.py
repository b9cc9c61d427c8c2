import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from taskseq import metrics
from taskseq.metrics import (
    MetricKind,
    MetricParams,
    _joint_groups,
    _trapezoid_kernel,
    default_weights,
    edge_cost,
    linear_interp_duration,
    max_joint_difference,
    pairwise_cost,
    trapezoid_duration_1d,
    weighted_euclidean,
)
from taskseq.model import ordered_sum, planar_arm


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


_ONE, _STACK_OF_TWO = [0.0, 0.0], [[0.0, 0.0], [3.0, 3.0]]


@pytest.mark.parametrize("price", [
    lambda q, q_to: edge_cost(MetricKind.MAX_JOINT_DIFFERENCE, MetricParams(*[np.ones(2)] * 3), q, q_to),
    lambda q, q_to: weighted_euclidean(q, q_to, [1.0, 1.0]),
    lambda q, q_to: max_joint_difference(q, q_to, [1.0, 1.0]),
    lambda q, q_to: linear_interp_duration(q, q_to, [1.0, 1.0], [1.0, 1.0]),
])
def test_scalar_metrics_refuse_a_stack_of_moves(price):
    # A stack is refused, not priced by its first move alone.
    assert price([0.0, 0.0], [3.0, 3.0]) > 0.0
    for q, q_to in [(_STACK_OF_TWO, _ONE), (_ONE, _STACK_OF_TWO), ([[_ONE]], _ONE)]:
        with pytest.raises(ValueError, match="prices one move"):
            price(q, q_to)


def test_scalar_metrics_take_single_joint_scalars():
    assert weighted_euclidean(0.0, 3.0, [4.0]) == 6.0
    assert max_joint_difference(np.float64(1.0), 3.0, [2.0]) == 1.0
    assert linear_interp_duration(0.0, 4.0, [1.0], [1.0]) == 5.0
    assert trapezoid_duration_1d(4.0, 1.0, 1.0) == 5.0
    with pytest.raises(ValueError, match="prices one move"):
        trapezoid_duration_1d(np.array([1.0, 5.0]), 1.0, 1.0)


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


@pytest.mark.parametrize("dof", [3, 8, 24])  # from 8 joints np.sum's pairwise order gives other bits
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
    # The layout of the stacks does not reach the bits: a joint-major b prices the same.
    assert np.array_equal(pairwise_cost(kind, params, a, np.asfortranarray(b)), table)


def _full_difference_cost(kind, params, a, b):
    """The pairwise pricing the kernels must reproduce: one (m_a, m_b, dof) difference array.
    Weighted squares are added joint by joint from 0.0 (``sum`` adds arrays left to right)."""
    diff = a[:, None, :] - b[None, :, :]
    if kind is MetricKind.WEIGHTED_EUCLIDEAN:
        return np.sqrt(sum(np.moveaxis(params.weights * diff * diff, -1, 0), 0.0))
    if kind is MetricKind.MAX_JOINT_DIFFERENCE:
        return np.max(np.abs(diff) / params.vel_max, axis=-1)
    return np.max(_two_branch(np.abs(diff), params.vel_max, params.acc_max), axis=-1)


def _two_branch(dist, vmax, amax):
    """The trapezoid duration by branch: the long-move time at or beyond c, the
    smaller of the long- and short-move times below it."""
    long = dist / vmax + vmax / amax
    return np.where(dist >= vmax * vmax / amax, long, np.minimum(long, 2.0 * np.sqrt(dist / amax)))


_ENTRIES = st.one_of(
    st.floats(-8.0, 8.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
# Multiples of a joint's profile boundary vmax^2/amax: moves of exactly that
# distance and one ulp either side of it take both branches of the trapezoid.
_BOUNDARY_FACTORS = [0.0, 1.0, -1.0, 1.0 + 2**-52, 1.0 - 2**-53, 0.5, 2.0]


@st.composite
def _priced_stacks(draw, dof):
    """Params and two stacks of up to 40 rows: a mask picks, per entry, a
    multiple of its joint's profile boundary or a plain entry, one of a few
    drawn from ``_ENTRIES`` or uniform in [-8, 8]. Whole stacks come from a
    seeded generator, as hypothesis fills an array: one background value and
    a share of entries drawn anew, none to all, so constant stacks, whose
    moves are short at 130 joints too, come up. Drawing a 130-joint stack
    entry by entry took most of the test's time."""
    limits = arrays(float, dof, elements=st.floats(0.25, 4.0))
    params = MetricParams(weights=draw(limits), vel_max=draw(limits), acc_max=draw(limits))
    boundary = params.vel_max * params.vel_max / params.acc_max
    pool = draw(st.lists(_ENTRIES, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def filled(shape, pick):
        return np.where(rng.random(shape) < rng.choice([0.0, 0.05, 0.5, 1.0]), pick(shape), pick(()))

    def stack():
        shape = (draw(st.integers(1, 40)), dof)
        plain = filled(shape, lambda s: np.where(rng.random(s) < 0.5, rng.choice(pool, s), rng.uniform(-8, 8, s)))
        factors = filled(shape, lambda s: rng.choice(_BOUNDARY_FACTORS, s))
        return np.where(filled(shape, lambda s: rng.random(s) < 0.5), factors * boundary, plain)

    return params, stack(), stack()


@pytest.mark.parametrize("dof", [1, 3, 6, 8, 24, 130])  # 130: past a pairwise sum's 128-term block
@pytest.mark.parametrize("kind", list(MetricKind))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pairwise_cost_matches_the_full_difference_array(kind, dof, data):
    params, a, b = data.draw(_priced_stacks(dof))
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN move on both sides
        expected = _full_difference_cost(kind, params, a, b)
        table = pairwise_cost(kind, params, a, b)
    assert np.array_equal(table, expected, equal_nan=True)


@st.composite
def _swappable_stacks(draw):
    """Weights and limits over six decades; entries anywhere, of +-0.0, or of +-c = vmax^2/amax,
    so a move against a zero entry lies exactly on a joint's profile boundary."""
    dof = draw(st.integers(1, 9))
    limits = arrays(float, dof, elements=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    params = MetricParams(weights=draw(limits), vel_max=draw(limits), acc_max=draw(limits))
    boundary = params.vel_max * params.vel_max / params.acc_max

    def stack():
        shape = (draw(st.integers(1, 12)), dof)
        plain = draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
        factors = draw(arrays(float, shape, elements=st.sampled_from([0.0, -0.0, 1.0, -1.0])))
        return np.where(draw(arrays(bool, shape)), factors * boundary, plain)

    return params, stack(), stack()


@pytest.mark.parametrize("kind", list(MetricKind))
@settings(max_examples=60, deadline=None)
@given(drawn=_swappable_stacks())
def test_every_metric_prices_a_move_and_its_reverse_bit_for_bit_alike(kind, drawn):
    params, a, b = drawn
    assert pairwise_cost(kind, params, a, b).tobytes() == pairwise_cost(kind, params, b, a).T.tobytes()
    for q, r in itertools.product(a[:3], b[:3]):
        assert edge_cost(kind, params, q, r).hex() == edge_cost(kind, params, r, q).hex()


def _weight_variants(rng, dof):
    """Weights over 7 decades, then with a zero, a -0.0 and all -0.0 (MetricParams takes both)."""
    spread = 10.0 ** rng.uniform(-3.0, 4.0, dof)
    zero, negative_zero = spread.copy(), spread.copy()
    zero[rng.integers(dof)], negative_zero[rng.integers(dof)] = 0.0, -0.0
    return [spread, zero, negative_zero, np.full(dof, -0.0)]


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 130])
def test_weighted_euclidean_keeps_np_sum_bits_below_8_joints_and_adds_in_order_from_8(dof):
    # Below 8 joints np.sum adds its terms in order from 0.0, so pricing them
    # joint by joint gives its bits; from 8 np.sum adds pairwise, and the
    # pricing is the plain left-to-right sum instead.
    rng = np.random.default_rng(dof)
    kind = MetricKind.WEIGHTED_EUCLIDEAN
    rows, cols = (200, 180) if dof < 8 else (6, 7)  # 200 x 180 is priced in two row bands
    for weights in _weight_variants(rng, dof):
        params = MetricParams(weights, np.ones(dof), np.ones(dof))
        a, b = (rng.uniform(-math.pi, math.pi, (m, dof)) for m in (rows, cols))
        a[0] = b[0]  # a move of zero length
        table = pairwise_cost(kind, params, a, b)
        single = np.array([[edge_cost(kind, params, p, q) for q in b[:7]] for p in a[:6]])
        diff = a[:, None, :] - b[None, :, :]
        terms = params.weights * diff * diff
        if dof < 8:
            expected = np.sqrt(np.sum(terms, axis=-1))
        else:
            expected = np.array([[math.sqrt(ordered_sum(t)) for t in row.tolist()] for row in terms])
        assert np.all(np.isfinite(expected))
        assert table.tobytes() == expected.tobytes()
        assert single.tobytes() == expected[:6, :7].tobytes()


# Taking the short-move time alone below c, the trapezoid drops across its
# branch point c = vmax^2/amax for these limits: f(prevfloat(c)) > f(c).
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


def test_joints_with_equal_limits_are_always_grouped():
    v, a = _NON_MONOTONE
    params = MetricParams(np.ones(4), [1.0, v, 1.0, v], [1.0, a, 1.0, a])
    speed, trapezoid = params.vel_max.tobytes(), params.acc_max.tobytes()
    assert _joint_groups(speed) == (((0, 2), (1.0,)), ((1, 3), (v,)))
    assert _joint_groups(speed, trapezoid) == (((0, 2), (1.0, 1.0)), ((1, 3), (v, a)))
    # No drop: the joint just below c costs no more than the joint at c.
    c = v * v / a
    move = np.array([[0.0, math.nextafter(c, 0.0), 0.0, c]])
    priced = pairwise_cost(MetricKind.LINEAR_INTERP_DURATION, params, move, np.zeros((1, 4)))
    assert trapezoid_duration_1d(math.nextafter(c, 0.0), v, a) <= trapezoid_duration_1d(c, v, a)
    assert priced[0, 0] == trapezoid_duration_1d(c, v, a)


def test_the_kernel_never_drops_across_c_on_random_limits():
    # About 0.2% of random pairs drop across c when the short-move time is
    # taken alone below it; the kernel's min must drop on none of them.
    rng = np.random.default_rng(2)
    vmax, amax = rng.uniform(0.01, 5.0, 20000), rng.uniform(0.01, 5.0, 20000)
    c = vmax * vmax / amax

    def short_alone(dist):
        return np.where(dist >= c, dist / vmax + vmax / amax, 2.0 * np.sqrt(dist / amax))

    assert 10 < np.count_nonzero(short_alone(np.nextafter(c, 0.0)) > short_alone(c)) < 200
    below, at = np.nextafter(c, 0.0).tolist(), c.tolist()
    costs = [_trapezoid_kernel(np.array([d, e]), v, a).tolist() for d, e, v, a in
             zip(below, at, vmax.tolist(), amax.tolist())]
    assert not any(f_below > f_at for f_below, f_at in costs)


@pytest.mark.parametrize(
    "vmax,amax",
    [(1.0, 1.0), (2.816, 1.324), _NON_MONOTONE, (0.828, 2.082)],
    ids=["monotone", "monotone-branches-differ-at-c", "non-monotone", "non-monotone-2"],
)
def test_single_branch_kernel_matches_the_two_branch_formula_around_c(vmax, amax):
    # The kernel computes the long-move branch everywhere and revisits only
    # the moves strictly below c; np.where picks the same branch for every
    # entry. In three of these cases the branches differ at c itself, so a
    # kernel that took the short branch at c fails. In the two non-monotone
    # cases the short-move time alone drops across c; the reference does not.
    c = vmax * vmax / amax
    dist = np.array([0.0, math.nextafter(c, 0.0), c, math.nextafter(c, math.inf), 2.0 * c])
    two_branch = _two_branch(dist, vmax, amax)
    assert np.all(np.diff(two_branch) >= 0.0)
    assert _trapezoid_kernel(dist, vmax, amax).tobytes() == two_branch.tobytes()
    for d, expected in zip(dist, two_branch):  # the single-move path
        assert trapezoid_duration_1d(d, vmax, amax) == expected


@pytest.mark.parametrize(
    "vmax,amax",
    [(1e-200, 1.0), (1e-170, 1e-30), (1e200, 1.0), (1e200, 0.5), (1e160, 1e-30), (math.inf, 1.0),
     (1.0, math.inf)],
    ids=["c-underflows", "c-underflows-small-amax", "c-overflows", "c-overflows-prev-overflows",
         "c-overflows-small-amax", "vmax-inf", "amax-inf"],
)
def test_trapezoid_groups_at_c_zero_and_c_inf_raise_no_warning(vmax, amax):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = vmax * vmax / amax
        assert c in (0.0, math.inf)
        params = MetricParams(np.ones(3), [vmax] * 3, [amax] * 3)
        groups = _joint_groups(params.vel_max.tobytes(), params.acc_max.tobytes())
        assert groups == (((0, 1, 2), (vmax, amax)),)
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


@pytest.mark.parametrize("kind", list(MetricKind))
def test_pairwise_cost_checks_an_empty_stack_too(kind):
    params = MetricParams(weights=np.ones(3), vel_max=np.ones(3), acc_max=np.ones(3))
    with pytest.raises(ValueError, match="joint count mismatch"):
        pairwise_cost(kind, params, np.empty((0, 2)), np.ones((3, 2)))
    assert pairwise_cost(kind, params, np.empty((0, 3)), np.ones((3, 3))).shape == (0, 3)
    assert pairwise_cost(kind, params, np.empty((2, 0, 3)), np.ones((3, 3))).shape == (2, 0, 3)


# Wide runs of one block, (m_a, dof) x (m_b, dof), and stacked runs, (k, m_a, dof) x (k, m_b, dof).
_BANDED_SHAPES = [((7,), (5,)), ((1,), (9,)), ((13,), (1,)), ((21,), (21,)), ((3, 4), (3, 4)), ((2, 5), (2, 3))]


@pytest.mark.parametrize("tile", [1, 2, 6, 12, 20])
@pytest.mark.parametrize("kind", list(MetricKind))
def test_folded_bands_are_the_unfolded_pricing_byte_for_byte(kind, tile):
    rng = np.random.default_rng(tile)
    limits = rng.choice([0.5, 1.0, 2.0], (2, 4))  # joints that share their limits, and some that do not
    params = MetricParams(rng.uniform(0.25, 4.0, 4), *limits)
    for a_shape, b_shape in _BANDED_SHAPES:
        a, b = rng.uniform(-3.0, 3.0, (*a_shape, 4)), rng.uniform(-3.0, 3.0, (*b_shape, 4))
        bands = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "TILE_ENTRIES", tile)
            expected = pairwise_cost(kind, params, a, b)
            fold = lambda top, band: bands.append((top, band.copy()))
            assert pairwise_cost(kind, params, a, b, fold=fold) is None
            with pytest.raises(TypeError, match="positional"):  # keyword-only: tracers record the four positional arguments
                pairwise_cost(kind, params, a, b, fold)
            assert pairwise_cost(kind, params, a, b).tobytes() == expected.tobytes()  # unfolded again
        tops = [top for top, _ in bands]
        assert tops == [sum(band.shape[-2] for _, band in bands[:i]) for i in range(len(bands))]
        assert all(band.size <= max(tile, band[..., :1, :].size) for _, band in bands)  # a tile, or one row
        assert np.concatenate([band for _, band in bands], axis=-2).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", list(MetricKind))
def test_a_folded_call_checks_an_empty_stack_too(kind):
    params = MetricParams(weights=np.ones(3), vel_max=np.ones(3), acc_max=np.ones(3))
    bands = []
    fold = lambda top, band: bands.append((top, band.shape))
    with pytest.raises(ValueError, match="joint count mismatch"):
        pairwise_cost(kind, params, np.empty((0, 2)), np.ones((3, 2)), fold=fold)
    assert bands == []
    assert pairwise_cost(kind, params, np.empty((0, 3)), np.ones((3, 3)), fold=fold) is None
    assert bands == [(0, (0, 3))]


_NO_JOINTS = MetricParams(weights=[], vel_max=[], acc_max=[])
_ZERO_JOINT_PRICINGS = [
    *(pytest.param(functools.partial(pairwise_cost, kind, _NO_JOINTS, np.empty((2, 0)), np.empty((3, 0))),
                   id=kind.value) for kind in MetricKind),
    *(pytest.param(functools.partial(edge_cost, kind, _NO_JOINTS, [], []), id=f"edge_cost-{kind.value}")
      for kind in MetricKind),
    pytest.param(functools.partial(weighted_euclidean, [], [], []), id="scalar-weighted_euclidean"),
    pytest.param(functools.partial(max_joint_difference, [], [], []), id="scalar-max_joint_difference"),
    pytest.param(functools.partial(linear_interp_duration, [], [], [], []),
                 id="scalar-linear_interp_duration"),
]


@pytest.mark.parametrize("price", _ZERO_JOINT_PRICINGS)
def test_pairwise_cost_of_zero_joints_raises(price):
    # Every metric entry point refuses a move of no joints, the sum as well as the maxima.
    with pytest.raises(ValueError, match="cannot price a move of zero joints"):
        price()


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


@pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["weighted_euclidean", "edge_cost", "pairwise_cost"])
def test_bad_weights_raise_through_every_entry_point(entry, weight):
    # A negative weight gave sqrt(-1) = nan, a NaN weight nan, and inf * 0 nan.
    weights, a, b = [weight], np.zeros(1), np.zeros(1)
    kind, unit = MetricKind.WEIGHTED_EUCLIDEAN, np.ones(1)
    with pytest.raises(ValueError, match="weights must be finite and non-negative"):
        if entry == "weighted_euclidean":
            weighted_euclidean(a, b, weights)
        elif entry == "edge_cost":
            edge_cost(kind, MetricParams(weights, unit, unit), a, b)
        else:
            pairwise_cost(kind, MetricParams(weights, unit, unit), a[None], b[None])


def test_a_zero_weight_still_prices():
    assert weighted_euclidean([0.0, 0.0], [5.0, 1.0], [0.0, 1.0]) == 1.0


@pytest.mark.parametrize("vel_max", [[-1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
def test_max_joint_difference_rejects_non_positive_vel_max(vel_max):
    with pytest.raises(ValueError, match="must be positive"):
        max_joint_difference(np.zeros(3), np.ones(3), vel_max)


def test_params_from_planar_robot_uses_reach_weights():
    params = MetricParams.from_robot(planar_arm((1.0, 1.0, 1.0)))
    assert np.allclose(params.weights, [3.0, 2.0, 1.0])
