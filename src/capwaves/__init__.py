"""Resonant triads, clustering and coupled three-wave dynamics of rotational
capillary water waves on a constant-vorticity shear current."""

from .analytic import (
    EllipticParams,
    TriadInvariants,
    closed_form_amplitudes,
    closed_form_phase,
    complete_elliptic_K,
    jacobi_elliptic,
    triad_elliptic_params,
)
from .clustering import (
    ClusterGraph,
    Connection,
    build_clusters,
    clusters_to_json,
    conservation_count,
    coupling_ratio_hints,
    export_nr_diagram,
    identification_count,
)
from .dispersion import (
    SIGMA_WATER_5C,
    SIGMA_WATER_25C,
    FluidParams,
    angular_frequency,
    branch_frequency,
    coupling_coefficient,
    min_resonant_vorticity,
    resonant_vorticity,
    tilde_frequency,
)
from .dynamics import (
    ClusterSystem,
    DenseSolution,
    Drift,
    IntegrationError,
    TriadTerm,
    build_system,
    characteristic_time,
    conserved_quadratics,
    drift_report,
    dynamical_phases,
    hamiltonian,
    integrate,
    measure_period,
    phase_lock_residual,
    refine_minimum,
    solve_dense,
    time_derivative,
)
from .resonance_search import (
    Triad,
    TriadTable,
    enumerate_triads,
    min_positive_width,
    resonance_width,
)

__version__ = "0.1.0"
