"""Mutual-coupling-aware transmit beamforming for continuous and discrete apertures."""

from .physics import (C0, Z0, MU0, COPPER_CONDUCTIVITY, Aperture, Direction,
                      FarFieldChannel, PhysicalConfig, exact_channel,
                      far_field_channel, fraunhofer_distance, kernel_nulls,
                      radiation_kernel, surface_resistance, wavenumber_kernel)
from .quadrature import (ApertureGrid, GaussLegendreRule, WavenumberDiskGrid,
                         aperture_grid, disk_wavenumber_grid, legendre_rule)
from .kernel_approx import (ClosedFormBeamformer, InverseOperatorData,
                            PlaneWaveExpansion, beamform_ka, build_expansion,
                            channel_moments, gram_matrix, inverse_operator)
from .cg_solver import (CgState, DiscretizedOperator, FredholmSolution,
                        apply_operator, beamform_cg, discretize_operator,
                        solve_fredholm, synthesize_beamformer)
from .analysis import (Beampattern, UncoupledBeamformer, beampattern,
                       coupling_ratio, directivity_factor, half_power_width,
                       infinite_aperture_gain, steered_gain_profile,
                       uncoupled_beamformer)
from .spda import (CouplingMatrix, DiscreteBeamformer, SpdaModel, coupling_matrix,
                   discrete_channel, element_layout, lattice_gains,
                   optimal_discrete_beamformer)
from .errors import ConfigError, ConvergenceError, DomainError, NumericError

__version__ = "0.1.0"
