import warnings

import numpy as np
import pytest

from nvsense.errors import NumericalError, as_int, least_squares

X = np.linspace(0.0, 4.0, 9)
Y = 2.0 * np.exp(-0.7 * X)


def decay(x, a, k):
    return a * np.exp(-k * x)


def test_least_squares_recovers_parameters():
    popt, pcov = least_squares(decay, X, Y, (1.0, 1.0), ([0, 0], [10, 10]), "decay fit")
    np.testing.assert_allclose(popt, [2.0, 0.7], rtol=1e-8)
    assert np.all(np.isfinite(pcov))


@pytest.mark.parametrize(
    "x, p0, maxfev, message, cause",
    [
        (X, (1.0, 1.0), 1, "did not converge", RuntimeError),
        (X, (20.0, 1.0), 20000, "did not converge", ValueError),
        # one point cannot fix two parameters
        (X[:1], (1.0, 1.0), 20000, "covariance is not finite with 1 point", None),
    ],
    ids=["no-convergence", "start-outside-bounds", "singular-covariance"],
)
def test_least_squares_refusals_raise_without_warning(x, p0, maxfev, message, cause):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match=message) as refused:
            least_squares(
                decay, x, Y[: len(x)], p0, ([0, 0], [10, 10]), "decay fit",
                maxfev=maxfev,
            )
    assert type(refused.value.__cause__) is (cause or type(None))
    assert caught == []


@pytest.mark.parametrize("value", [4096, 4096.0])
def test_as_int_accepts_whole_numbers(value):
    n = as_int(value, "N")
    assert n == 4096 and type(n) is int


@pytest.mark.parametrize("value", [4096.9, "4096", True, None, float("inf")])
def test_as_int_refuses_other_values(value):
    with pytest.raises(ValueError, match="N must be an integer"):
        as_int(value, "N")
