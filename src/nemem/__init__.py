"""Constitutive library for nematic elastomer membranes.

Closed-form relaxed energy, effective stress, explicit minimizing
laminates, and an independent lamination oracle that validates the
closed forms numerically.
"""

from .algebra import SingularData, adj2, diag_embed, rank_one_gap, singular_values, svd32
from .constitutive import (
    DET_TOL,
    MaterialParams,
    bulk_energy,
    entropic_energy,
    frank_energy,
    growth_constant,
    step_length_tensor,
)
from .membrane import (
    DomainError,
    MembraneEval,
    RankDeficientError,
    Region,
    StressState,
    classify,
    membrane_stress,
    minimize_thickness_vector,
    plane_energy,
    plane_energy_values,
    psi,
    relaxed_energy,
    relaxed_energy_grad_fd,
    relaxed_growth_constant,
)
from .microstructure import (
    DiscreteYoungMeasure,
    SupportReport,
    check_support_M,
    check_support_W,
    laminate_shear,
    laminate_wrinkle,
    measure_pairing,
    measure_to_json_dict,
    young_measure_for,
)
from .relaxation import OracleConfig, OracleResult, relax_along_line, relax_lamination
from .verification import (
    CheckReport,
    SuiteReport,
    run_suites,
    verify_energy_bounds,
    verify_envelope_chain,
    verify_frame_and_growth,
    verify_stress_identities,
)

__version__ = "0.1.0"
