"""Numeric kernel tests: worked examples plus hypothesis properties, and the
stacked cosine kernel against the one-pair oracle. The routing softmax and
the KL summand are checked where the program computes them: `forward`'s
full routing softmax and `model.masked_kl` with every expert on the mask."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from helpers import NORM_SCALES, gate_softmax, grad_check, softmax
from fedalign.model import masked_kl
from fedalign.numeric import EPS, NORM_FLOOR, cosine_sim, norm, sigmoid

STAT_TOL = 1e-9

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestSoftmax:
    """`forward`'s full routing softmax, fed chosen gate scores."""

    def test_symmetry(self):
        np.testing.assert_allclose(gate_softmax(np.array([[0.0, 0.0]]))[0], [0.5, 0.5])

    def test_stability_under_shift(self):
        out = gate_softmax(np.array([[1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0], [0.5, 0.5])

    def test_closed_form(self):
        out = gate_softmax(np.array([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out[0], oracles.SOFTMAX_LN2_0, atol=STAT_TOL)

    @given(hnp.arrays(np.float64, st.integers(1, 8), elements=finite_floats))
    def test_sums_to_one(self, v):
        assert abs(gate_softmax(v[None]).sum() - 1.0) < 1e-12

    @given(
        hnp.arrays(np.float64, st.integers(1, 8), elements=finite_floats),
        finite_floats,
    )
    def test_shift_invariance(self, v, c):
        np.testing.assert_allclose(gate_softmax(v[None]), gate_softmax(v[None] + c), atol=1e-12)


def kl_pair(p, q, alpha):
    """`masked_kl` of the row [p, 1 - p] against [q, 1 - q] with k = S = 2,
    so the mask holds both experts and the value is alpha-weighted KL
    summands p*log(p/q)."""
    vals, _ = masked_kl(np.array([[p, 1.0 - p]]), np.array([q, 1.0 - q]), np.array(alpha), 2)
    return vals[0]


class TestKlTerm:
    """The KL summand inside `masked_kl`; alpha = [1, 0] isolates the first."""

    def test_identical(self):
        assert kl_pair(0.5, 0.5, [1.0, 1.0]) == 0.0

    def test_zero_mass_convention(self):
        assert kl_pair(0.0, 0.3, [1.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert abs(kl_pair(0.8, 0.2, [1.0, 0.0]) - oracles.KL_TERM_08_02) < STAT_TOL

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=EPS, max_value=1.0),
    )
    def test_masked_sum_nonnegative(self, p, q):
        # Over a common support {selected, rest} the summands form a full KL.
        assert kl_pair(p, q, [1.0, 1.0]) >= -1e-12

    @given(st.floats(min_value=EPS, max_value=1.0 - EPS))
    def test_zero_iff_equal(self, p):
        assert abs(kl_pair(p, p, [1.0, 1.0])) < 1e-12


class TestCosine:
    def test_identity(self):
        assert cosine_sim(np.array([1.0, 2, 3]), np.array([1.0, 2, 3])) == 1.0

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0]), np.array([0.0, 1])) == 0.0

    def test_antipodal(self):
        assert cosine_sim(np.array([1.0, 0]), np.array([-1.0, 0])) == -1.0

    def test_zero_vector(self):
        assert cosine_sim(np.zeros(3), np.array([1.0, 2, 3])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_sim(np.zeros(3), np.zeros(4))

    @given(
        hnp.arrays(np.float64, 4, elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, 4, elements=st.floats(-10, 10)),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_scale_invariance(self, a, b, k):
        # Scaling can carry a norm across NORM_FLOOR, where the cosine drops
        # to 0 by contract (test_zero_below_floor); the property holds where
        # every norm stays well clear of the floor.
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        assume(min(na, k * na, nb) >= 1e3 * NORM_FLOOR)
        assert abs(cosine_sim(k * a, b) - cosine_sim(a, b)) < 1e-12

    @pytest.mark.parametrize("scale, expected", [(0.5, 0.0), (1.0, 1.0), (2.0, 1.0)])
    def test_zero_below_floor(self, scale, expected):
        # A norm of 0.5 * NORM_FLOOR counts as zero; at or above the floor the
        # vector is normalized. Either argument can be the short one.
        tiny = np.array([scale * NORM_FLOOR, 0.0, 0.0, 0.0])
        unit = np.array([1.0, 0.0, 0.0, 0.0])
        assert cosine_sim(tiny, unit) == expected
        assert cosine_sim(unit, tiny) == expected

    def test_last_axis_mismatch(self):
        with pytest.raises(ValueError):
            cosine_sim(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_norm_matches_linalg(self):
        x = np.random.default_rng(0).normal(size=(5, 37))
        assert np.array_equal(norm(x), [np.linalg.norm(row) for row in x])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stacked_matches_scalar_oracle(self, data):
        x = data.draw(stacked_rows(), label="x")
        p = x.shape[1]
        y = data.draw(stacked_rows(p), label="y")
        # Every pair of rows, broadcast (N, 1, P) against (1, M, P).
        got = cosine_sim(x[:, None, :], y[None, :, :])
        want = [[oracles.cosine_sim_scalar(a, b) for b in y] for a in x]
        assert got.shape == (len(x), len(y))
        assert np.array_equal(got, want)
        # Row by row on equal leading shapes, and all pairs of x with itself.
        m = min(len(x), len(y))
        rowwise = cosine_sim(x[:m], y[:m])
        assert np.array_equal(rowwise, [oracles.cosine_sim_scalar(a, b) for a, b in zip(x, y)])
        square = cosine_sim(x[:, None, :], x[None, :, :])
        assert np.array_equal(square, square.T)
        assert np.array_equal(square, [[oracles.cosine_sim_scalar(a, b) for b in x] for a in x])


@st.composite
def stacked_rows(draw, p=None):
    """(N, P) rows drawn with per-row scales from NORM_SCALES and some rows
    duplicated, so exact ties and zero rows occur."""
    if p is None:
        p = draw(st.integers(1, 70))
    n = draw(st.integers(1, 6))
    x = draw(hnp.arrays(np.float64, (n, p), elements=st.floats(-10, 10)))
    scales = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(NORM_SCALES)))
    x = x * scales[:, None]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        x[i] = x[j]
    return x


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(50.0) - 1.0) < 1e-12
        assert abs(sigmoid(-50.0)) < 1e-12

    def test_closed_form(self):
        assert abs(sigmoid(-math.log(3.0)) - oracles.SIGMOID_NEG_LN3) < STAT_TOL

    def test_elementwise(self):
        np.testing.assert_allclose(sigmoid(np.array([0.0, 0.0])), [0.5, 0.5])


class TestGradCheck:
    def test_quadratic_exact(self):
        theta = np.array([3.0])
        disc = grad_check(lambda w: float(w[0] ** 2), theta, np.array([6.0]), eps=1e-4)
        assert disc < 1e-8

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=5)

        def loss(w):
            return float(-np.log(softmax(w)[2]))

        grad = softmax(logits).copy()
        grad[2] -= 1.0
        assert grad_check(loss, logits, grad, eps=1e-5) < 1e-6

    def test_rejects_bad_eps_and_shapes(self):
        with pytest.raises(ValueError):
            grad_check(lambda w: 0.0, np.zeros(2), np.zeros(2), eps=0.0)
        with pytest.raises(ValueError):
            grad_check(lambda w: 0.0, np.zeros(2), np.zeros(3))
