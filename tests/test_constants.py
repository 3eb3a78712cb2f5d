import scipy.constants

from nvsense import constants


def test_literals_match_scipy_codata_bit_for_bit():
    assert constants.HBAR == scipy.constants.hbar
    assert constants.MU_0 == scipy.constants.mu_0
