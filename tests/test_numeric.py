"""Numeric kernel tests: worked examples plus hypothesis properties, and the
Gram-form cosine kernel against the one-pair oracle in float64 and in
`np.longdouble`. The routing softmax and the KL summand are checked where
the program computes them: `forward`'s full routing softmax and
`model.masked_kl_values` with every expert on the mask."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedalign
import oracles
from helpers import (
    NORM_SCALES,
    cosine_error_bound,
    extended,
    gate_softmax,
    grad_check,
    softmax,
)
from fedalign.model import masked_kl_values
from fedalign.numeric import EPS, NORM_FLOOR, cosine_sim, sigmoid

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
    """`masked_kl_values` of the row [p, 1 - p] against [q, 1 - q] with both
    experts in the dispatch and reference sets, so the mask holds both and
    the value is alpha-weighted KL summands p*log(p/q)."""
    both = np.array([0, 1])
    vals = masked_kl_values(
        np.array([[p, 1.0 - p]]), both[None], both, np.array([q, 1.0 - q]), np.array(alpha)
    )
    return vals[0]


class TestKlTerm:
    """The KL summand inside `masked_kl_values`; alpha = [1, 0] isolates the first."""

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
    @example(p=1.0 - 3.7e-9, q=1.0)
    @example(p=1.0 - 1e-8, q=1.0)
    def test_masked_sum_nonnegative(self, p, q):
        # Over a common support {selected, rest} the summands form a KL
        # against the EPS-floored q, whose entries sum to Z <= 1 + EPS (at
        # q = 1 the second entry is raised from 0 to EPS). That sum is
        # KL(p || q / Z) - log Z >= -log(1 + EPS), so p just below 1 against
        # q = 1 reads about -EPS. The further 1e-12 is rounding allowance:
        # each summand is at most log(1 / EPS) ~ 18.4 in size, and a p within
        # 1e-8 of 1 carries its own representation error of ~1e-16 into log(p).
        assert kl_pair(p, q, [1.0, 1.0]) >= -math.log1p(EPS) - 1e-12

    @given(st.floats(min_value=EPS, max_value=1.0 - EPS))
    def test_zero_iff_equal(self, p):
        assert abs(kl_pair(p, p, [1.0, 1.0])) < 1e-12


def pair_cos(a, b):
    """`cosine_sim` of the two-row stack [a, b], both off-diagonal entries."""
    out = cosine_sim(np.stack([a, b]))
    return out[0, 1], out[1, 0]


class TestCosine:
    def test_identity(self):
        assert pair_cos(np.array([1.0, 2, 3]), np.array([1.0, 2, 3])) == (1.0, 1.0)

    def test_orthogonal(self):
        assert pair_cos(np.array([1.0, 0]), np.array([0.0, 1])) == (0.0, 0.0)

    def test_antipodal(self):
        assert pair_cos(np.array([1.0, 0]), np.array([-1.0, 0])) == (-1.0, -1.0)

    def test_zero_vector(self):
        assert pair_cos(np.zeros(3), np.array([1.0, 2, 3])) == (0.0, 0.0)

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            cosine_sim(np.zeros(3))

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            cosine_sim(np.zeros((2, 3, 4)))

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
        assert abs(pair_cos(k * a, b)[0] - pair_cos(a, b)[0]) < 1e-12

    @pytest.mark.parametrize("scale, expected", [(0.5, 0.0), (1.0, 1.0), (2.0, 1.0)])
    def test_zero_below_floor(self, scale, expected):
        # A norm of 0.5 * NORM_FLOOR counts as zero; at or above the floor the
        # vector is normalized. Either row can be the short one.
        tiny = np.array([scale * NORM_FLOOR, 0.0, 0.0, 0.0])
        unit = np.array([1.0, 0.0, 0.0, 0.0])
        assert pair_cos(tiny, unit) == (expected, expected)
        assert pair_cos(unit, tiny) == (expected, expected)

    def test_bits_independent_of_blas_threads(self):
        # Row counts on both sides of multiples of 8 and 16, at the width of
        # fedalign-wide's update rows, where OpenBLAS splits the Gram
        # product across threads.
        script = (
            "import hashlib, numpy as np\n"
            "from fedalign.numeric import cosine_sim\n"
            "rng = np.random.default_rng(0)\n"
            "h = hashlib.sha256()\n"
            "for n in range(96, 132):\n"
            "    h.update(cosine_sim(rng.normal(size=(n, 2112))).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(fedalign.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        digests = set()
        for n in sorted({1, min(os.cpu_count() or 1, 4)}):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(n)},
                capture_output=True, text=True, timeout=120, check=True,
            )
            digests.add(proc.stdout)
        assert len(digests) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stacked_matches_scalar_oracle(self, data):
        x = data.draw(stacked_rows(), label="x")
        x = np.concatenate([x, data.draw(stacked_rows(x.shape[1]), label="y")])
        got = cosine_sim(x)
        assert got.shape == (len(x), len(x))
        assert np.array_equal(got, got.T)
        # The Gram product sums in its own order, so against the one-pair
        # float64 oracle the entries agree to 1e-12, not bit for bit.
        want = [[oracles.cosine_sim_scalar(a, b) for b in x] for a in x]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        wide = extended(x)
        exact = [[oracles.cosine_sim_scalar(a, b) for b in wide] for a in wide]
        assert np.max(np.abs(got - np.array(exact))) <= cosine_error_bound(x.shape[1])


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

    @settings(max_examples=200, deadline=None)
    @example(x=np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 745.0, -745.0,
                         709.8, -709.8, 1e308, -1e308]))
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                        elements=st.floats(allow_nan=False)))
    def test_matches_scatter_oracle(self, x):
        # Finite values of every magnitude, subnormals and infinities.
        assert np.array_equal(sigmoid(x), oracles.sigmoid_scatter(x))


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
