"""Multi-static ISAC simulation and optimization toolkit.

Modules:
    scenario     geometry, physics constants, configuration
    channel      Rician sensing/communication channel synthesis
    metrics      closed-form FIM/CRB, rates, costs, numerical FIM oracle
    selection    minimax-linkage receiver selection (+ exhaustive oracle)
    beamforming  SCA transmit beamforming with a barrier inner solver
    estimation   signal synthesis, matched filter, localization inversion
    harness      experiment presets, sweeps, CSV output
"""

from .scenario import (Layout, ScenarioConfig, GeometrySummary, SPEED_OF_LIGHT,
                       geometry_summary, steering, true_delay, true_doppler,
                       cooperation_price)
from .channel import ChannelSet, build_channels, los_component, sample_rician
from .metrics import (CrbReport, FimConstants, PulseIntegrals, crb,
                      cooperation_cost, fim_constants, numerical_fim_oracle,
                      pulse_integrals, rate, upsilon)
from .selection import (LinkageTree, SelectionResult, build_linkage_tree,
                        exhaustive_select, minimax_radius, select_group)
from .beamforming import (BeamformerSet, RateSurrogate, ScaTrace, feasibility_init,
                          inner_convex_solve, recover_beamformers,
                          sca_linearize, sca_optimize)
from .estimation import (DelayDopplerEstimate, DelayDopplerGrid,
                         PositionEstimate, SampledBlock, estimate_position,
                         invert_distance, invert_doa, localize,
                         matched_filter, matched_filter_error, synthesize_block)
from .harness import ExperimentSpec, load_config, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
