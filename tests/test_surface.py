"""The package's public surface, pinned so that any addition or removal shows up as a diff."""

import inspect

import oscquench
import oscquench.cli  # noqa: F401  (binds ``oscquench.cli``, as any CLI run does)

PUBLIC_NAMES = [
    "Alphas", "BETA_FLOOR", "BipartiteSpectralData", "CausticError", "ConstFreqPT", "CriticalTemp",
    "DomainError", "ErmakovSolution", "FrequencySchedule", "MehlerCheck", "ModeQuench", "ModeThermo",
    "NumericSpectrum", "NumericalFailureError", "PTMoments", "QuadraticKernel", "QuadratureGrid",
    "QuenchSpec", "Ratios", "RealTimeKernelParams", "SpectralData1D", "Widths", "beta_star",
    "boundary_g", "check_separable", "cli", "core", "critical_temperature", "critical_temperature_sqm",
    "eigendecompose_1d", "eigendecompose_bipartite", "eigenfunction_eval", "ermakov", "errors",
    "g_inverse", "kernel_matrix", "kernels", "ladder_ratios", "mehler_check", "mode_thermo",
    "mode_widths", "mutual_information", "negativity", "negativity_for_quench", "normal_modes",
    "normalization_constant", "nystrom_spectrum", "observables", "oracle", "partial_transpose",
    "pt_moments", "pt_spectrum_const", "purity_single", "realtime_kernel_single", "reduce_substate",
    "renyi_entropy", "rotate_to_normal_modes", "sigma_for_quench", "solve_euclidean", "solve_real",
    "special", "spectra", "substate_ratio", "sudden_phase_euclidean", "sudden_phase_real",
    "sudden_scale_euclidean", "sudden_scale_real", "thermal_rho_coupled", "thermal_rho_single",
    "trace_power", "von_neumann_entropy",
]


def test_public_names():
    assert sorted(n for n in vars(oscquench) if not n.startswith("_")) == PUBLIC_NAMES


def test_signatures_of_the_cross_checks():
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(oscquench.nystrom_spectrum) == ["k", "grid", "top_k", "with_error"]
    assert params(oscquench.trace_power) == ["k", "p", "grid", "with_error"]
    assert params(oscquench.mutual_information) == ["rho"]
