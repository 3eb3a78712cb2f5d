"""Physical constants used throughout the toolkit.

All angular frequencies are in rad/s internally; public constructors accept
Hz and convert at the boundary to avoid factor-of-2pi mistakes.
"""

import numpy as np
from scipy.constants import hbar, mu_0

TWO_PI = 2.0 * np.pi

# Electron gyromagnetic ratio of the NV spin, gamma_e / 2pi = 28.024 GHz/T.
GAMMA_E_HZ_PER_T = 28.024e9
GAMMA_E = TWO_PI * GAMMA_E_HZ_PER_T  # rad s^-1 T^-1

# 1H gyromagnetic ratio, gamma / 2pi = 42.577 MHz/T.
GAMMA_H_HZ_PER_T = 42.577e6
GAMMA_H = TWO_PI * GAMMA_H_HZ_PER_T  # rad s^-1 T^-1

# NV 15N hyperfine coupling (Hz).
A_PARALLEL_HZ = 3.03e6

HBAR = hbar
MU_0 = mu_0

