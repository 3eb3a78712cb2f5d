import re
import warnings

import numpy as np
import pytest

from nvsense.errors import NumericalError, as_float, as_int, least_squares

X = np.linspace(0.0, 4.0, 9)
Y = 2.0 * np.exp(-0.7 * X)


def decay(x, a, k):
    return a * np.exp(-k * x)


def test_least_squares_recovers_parameters():
    popt, pcov = least_squares(decay, X, Y, (1.0, 1.0), ([0, 0], [10, 10]), "decay fit")
    np.testing.assert_allclose(popt, [2.0, 0.7], rtol=1e-8)
    assert np.all(np.isfinite(pcov))


def flat(x, a, k):  # k does not change the output, so the fit cannot fix it
    return np.full_like(x, a)


BOX = ([0, 0], [10, 10])


@pytest.mark.parametrize(
    "model, x, p0, bounds, maxfev, message, cause",
    [
        (decay, X, (1.0, 1.0), BOX, 1, "did not converge", RuntimeError),
        (decay, X, (20.0, 1.0), BOX, 20000, "did not converge", ValueError),
        # one point cannot fix two parameters
        (decay, X[:1], (1.0, 1.0), BOX, 20000, "covariance is not finite with 1 point", None),
        # an unbounded fit's covariance of a parameter the model ignores,
        # found after the fit
        (flat, X, (1.0, 1.0), (-np.inf, np.inf), 20000, r"not finite with 9 point\(s\)$", None),
        # bounded, curve_fit's pseudo-inverse gives that parameter a variance of 0
        (flat, X, (1.0, 1.0), BOX, 20000, "^flat fit cannot fix k: its variance is 0$", None),
    ],
    ids=[
        "no-convergence", "start-outside-bounds", "singular-covariance", "unfixed-parameter",
        "unfixed-parameter-in-bounds",
    ],
)
def test_least_squares_refusals_raise_without_warning(model, x, p0, bounds, maxfev, message, cause):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match=message) as refused:
            least_squares(
                model, x, Y[: len(x)], p0, bounds, f"{model.__name__} fit", maxfev=maxfev
            )
    assert type(refused.value.__cause__) is (cause or type(None))
    assert caught == []


@pytest.mark.parametrize(
    "bounds, message",
    [
        # the decay rate 0.7 lies below the lower bound 1
        (([0, 1], [10, 10]), "decay fit ends on a bound: k 1 (bound 1)"),
        # the amplitude 2 lies above the upper bound 1.5
        (([0, 0], [1.5, 10]), "decay fit ends on a bound: a 1.5 (bound 1.5)"),
    ],
    ids=["lower", "upper"],
)
def test_least_squares_refuses_a_fit_that_ends_on_a_bound(bounds, message):
    """The fit stops on the bound, which the message names with the
    parameter's name from the model's signature."""
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        least_squares(decay, X, Y, (1.0, 1.5), bounds, "decay fit")


@pytest.mark.parametrize(
    "bounds",
    [(-np.inf, np.inf), ([-np.inf, 0], [np.inf, np.inf]), ([0, -np.inf], [np.inf, 0.7 + 1e-5])],
    ids=["unbounded", "half-bounded", "near-but-off-a-bound"],
)
def test_least_squares_keeps_a_fit_off_its_bounds(bounds):
    """A parameter far from an infinite bound, or 1e-5 from a finite bound of
    order 1, is not on it: |p - inf| <= inf must not count as reaching it."""
    popt, _ = least_squares(decay, X, Y, (1.0, 0.5), bounds, "decay fit")
    np.testing.assert_allclose(popt, [2.0, 0.7], rtol=1e-8)


@pytest.mark.parametrize("n_points", [1, 2])
def test_least_squares_counts_points_before_fitting(n_points):
    """With no more points than parameters the fit is refused before the model
    is ever evaluated."""

    def model(x, a, k):
        raise AssertionError("the model was evaluated")

    x, y = X[:n_points], Y[:n_points]
    with pytest.raises(NumericalError, match=rf"with {n_points} point\(s\) for 2 param"):
        least_squares(model, x, y, (1.0, 1.0), ([0, 0], [10, 10]), "decay fit")


@pytest.mark.parametrize("value", [4096, 4096.0])
def test_as_int_accepts_whole_numbers(value):
    n = as_int(value, "N")
    assert n == 4096 and type(n) is int


@pytest.mark.parametrize("value", [4096.9, "4096", True, None, float("inf")])
def test_as_int_refuses_other_values(value):
    with pytest.raises(ValueError, match="N must be an integer"):
        as_int(value, "N")


@pytest.mark.parametrize("value", [3, 0.5, -2e-9])
def test_as_float_accepts_numbers(value):
    x = as_float(value, "b0_tesla")
    assert x == value and type(x) is float


@pytest.mark.parametrize(
    "value, message",
    [
        ("0.5", "must be a number, got '0.5'"),
        (True, "must be a number, got True"),
        (None, "must be a number, got None"),
        ([0.5], "must be a number"),
        (float("inf"), "is not a finite number"),
        (10**400, "is not a finite number"),
    ],
)
def test_as_float_refuses_other_values(value, message):
    with pytest.raises(ValueError, match=f"^b0_tesla {re.escape(message)}"):
        as_float(value, "b0_tesla")
