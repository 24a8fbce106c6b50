"""oscinv: spectral forward, asymptotic, and inverse solvers for hyperbolic
equations driven by rapidly oscillating sources."""

from .basis import (EigenBasis, SeparableAmplitude, SpatialField,
                    build_dirichlet_interval_basis, build_rectangle_basis,
                    build_sturm_liouville_basis, check_boundary_traces)
from .asymptotics import (AsymptoticExpansion, build_expansion,
                          expansion_coefficients, residual_norm)
from .config import (ConfigError, ExperimentConfig, config_from_dict,
                     load_config, load_observation, make_basis, make_source)
from .forward import (SpaceTimeField, UnderResolvedError, make_time_grid,
                      solve_direct)
from .harness import (StudyReport, emit_report, fit_slope, run_order_study,
                      run_roundtrip)
from .inverse import (AdmissibilityError, AdmissibilityReport,
                      ObservationData, check_admissibility, ip1_recover,
                      ip2_recover, ip3_recover)
from .selftest import run_selftest
from .sources import FastProfile, OscillatorySource, rho0, split_source
from .traces import Grid, TimeTrace, uniform_grid
from .volterra import (VolterraKernel, build_kernel, solve_second_kind,
                       volterra_residual)

__version__ = "0.1.0"

__all__ = [
    "EigenBasis", "SeparableAmplitude", "SpatialField",
    "build_dirichlet_interval_basis", "build_rectangle_basis",
    "build_sturm_liouville_basis", "check_boundary_traces",
    "AsymptoticExpansion", "build_expansion", "expansion_coefficients",
    "residual_norm",
    "ConfigError", "ExperimentConfig", "config_from_dict", "load_config",
    "load_observation", "make_basis", "make_source",
    "SpaceTimeField", "UnderResolvedError", "make_time_grid", "solve_direct",
    "StudyReport", "emit_report", "fit_slope", "run_order_study",
    "run_roundtrip",
    "AdmissibilityError", "AdmissibilityReport", "ObservationData",
    "check_admissibility", "ip1_recover", "ip2_recover", "ip3_recover",
    "run_selftest",
    "FastProfile", "OscillatorySource", "rho0", "split_source",
    "Grid", "TimeTrace", "uniform_grid",
    "VolterraKernel", "build_kernel", "solve_second_kind",
    "volterra_residual",
]
