"""Simulation of entanglement dynamics in open qubit chains.

Dense Lindblad and matrix-product (TEBD) solvers for quench-driven
entanglement generation and propagation under relaxation, thermal
excitation, dephasing, and static disorder, with logarithmic-negativity
measurement and correlation-based entanglement lower bounds.
"""

from .chain import (
    ChainSpec,
    DisorderSpec,
    MixingAngles,
    QuenchSpec,
    build_hamiltonian_eigen,
    build_hamiltonian_lab,
    charge_qubit_bias,
    frame_rotation,
    mixing_angles,
    sample_disorder,
)
from .lindblad import (
    NoiseSpec,
    RateSet,
    SteadyStateResult,
    Trajectory,
    evolve,
    lindblad_rhs,
    nbar_from_temperature,
    rates_from_angles,
    steady_state,
    temperature_from_nbar,
)
from .mps import (
    MixedTebdEngine,
    MpsMixedState,
    TrotterPlan,
    load_checkpoint,
    mps_from_product,
    mps_to_dense,
    mps_trace,
    reduced_pair_dm,
    reduced_sites_dm,
    save_checkpoint,
)
from .negativity import (
    ReducedState,
    block_log_negativity,
    log_negativity,
    pair_log_negativity,
    partial_transpose,
    reduce,
    reduce_statevector,
)
from .states import (
    GroundState,
    bell_head,
    density_from_pure,
    eigenbasis_bell_head,
    eigenbasis_product,
    fidelity,
    ground_state,
    plus_product,
    thermal_state,
)
from .witness import (
    CorrelationMatrix,
    OptimizedBound,
    bound_c1,
    bound_c2,
    bound_c2_optimized,
    correlation,
    correlation_matrix,
    frozen_axes_bound,
    load_correlations_csv,
)

__version__ = "0.1.0"
