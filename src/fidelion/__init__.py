"""Entanglement fidelity, quantum entropies, and channel certification
for small bipartite systems."""

from .channels import (
    KrausChannel,
    apply,
    apply_one_sided,
    apply_two_local,
    compose,
    convex_mix,
    depol_2local_fidelity,
    depol_fbc_fidelity,
    depolarizing,
    one_sided_depol_output,
    qutrit_witness_min,
    read_channel_file,
    two_local_depol_output,
    unitary_channel,
    write_channel_file,
)
from .classifiers import (
    ClassificationReport,
    ThresholdResult,
    certify,
    property_suite,
    threshold,
)
from .entropy import (
    EntropyReport,
    conditional_min_entropy,
    conditional_renyi,
    conditional_renyi2_closed_form,
    conditional_tsallis,
    conditional_tsallis2_closed_form,
    conditional_von_neumann,
    entropy_summary,
    min_entropy,
    relative_entropy,
    renyi,
    renyi2_closed_form,
    tsallis,
    tsallis2_closed_form,
    von_neumann,
)
from .errors import FidelionError
from .fidelity import (
    FidelityResult,
    WitnessOperator,
    fidelity_optimize,
    fidelity_upper_bound,
    phi_plus_ket,
    phi_plus_projector,
    r_quantity,
    teleportation_witness,
    witness_value,
)
from .states import (
    BlochFano,
    DensityMatrix,
    SchmidtPureState,
    decompose,
    gell_mann_basis,
    random_density_matrix,
    read_state_file,
    reconstruct,
    schmidt_state,
    weyl_spectrum,
    weyl_state,
    write_state_file,
)
from .theorems import TheoremCheck, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
