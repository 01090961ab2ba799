"""Thermal-state toolkit for suddenly quenched coupled harmonic oscillators.

Closed-form purity, entropies, mutual information, negativity and the
entanglement-vanishing temperature of one and two coupled oscillator modes
whose frequencies jump at t = 0, together with an independent quadrature
oracle and an adaptive scale-factor ODE solver for general schedules.
"""

from .core import (BETA_FLOOR, ModeQuench, ModeThermo, QuenchSpec, Temperature, Widths,
                   beta_star, mode_thermo, mode_widths, normal_modes, partition_single,
                   purity_single)
from .ermakov import (ErmakovSolution, FrequencySchedule, gamma_phase, solve_euclidean,
                      solve_real, sudden_phase_real, sudden_scale_real)
from .errors import (CausticError, DomainError, NonFactorizableError, NumericalFailureError)
from .kernels import (Alphas, QuadraticKernel, RealTimeKernelParams, partial_transpose,
                      realtime_kernel_single, reduce_substate, rotate_to_normal_modes,
                      thermal_rho_coupled, thermal_rho_single)
from .negativity import (ConstFreqPT, CriticalTemp, PTMoments, boundary_g, check_separable,
                         critical_temperature, critical_temperature_sqm, g_inverse,
                         negativity, negativity_for_quench, pt_moments, pt_spectrum_const,
                         sigma_for_quench)
from .observables import Ratios, ladder_ratios, observables
from .oracle import (MehlerCheck, NumericSpectrum, QuadratureGrid, kernel_matrix,
                     mehler_check, nystrom_spectrum, trace_power)
from .spectra import (BipartiteSpectralData, EntropyReport, SpectralData1D,
                      eigendecompose_1d, eigendecompose_bipartite, eigenfunction_eval,
                      entropies, mutual_information, normalization_constant, renyi_entropy,
                      substate_ratio, von_neumann_entropy)

__version__ = "0.1.0"
