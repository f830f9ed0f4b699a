import numpy as np
import pytest

from emoforge.autodiff import Tensor, log_softmax_rows
from emoforge.errors import DegenerateInputError, ShapeError
from emoforge.numeric import (
    cosine_similarity,
    rng_stream,
)


def _row_softmax(m):
    # the package's one row softmax lives on the tape (the contrastive loss)
    return log_softmax_rows(Tensor(np.asarray(m, dtype=np.float64))).exp().data


def test_softmax_symmetry():
    out = _row_softmax([[0.0, 0.0, 0.0]])
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_single_element():
    for x in (-7.0, 0.0, 123.0):
        assert _row_softmax([[x]])[0, 0] == 1.0


def test_softmax_hand_case():
    out = _row_softmax([[np.log(1.0), np.log(3.0)]])
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-14)


def test_softmax_rows_sum_to_one_for_wide_range():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.uniform(-50, 50, size=(5, 9))
        out = _row_softmax(m)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
        assert (out > 0).all() and (out <= 1).all()


def test_cosine_basics():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0)
    assert cosine_similarity(v, -v) == pytest.approx(-1.0)
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)
        k = rng.uniform(0.1, 10.0)
        assert cosine_similarity(k * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-12)


def test_cosine_errors():
    with pytest.raises(DegenerateInputError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ShapeError):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


def test_rng_stream_determinism_and_independence():
    a1 = rng_stream(42, "alpha").normal(size=10)
    a2 = rng_stream(42, "alpha").normal(size=10)
    b = rng_stream(42, "beta").normal(size=10)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, rng_stream(43, "alpha").normal(size=10))
