"""Liouvillian and effective-Hamiltonian spectra of small open quantum
systems: assembly, eigenanalysis, exceptional-point localization, time
propagation, and counting-trajectory unraveling."""

from .errors import (
    ConfigError,
    HermiticityError,
    JordanOrderError,
    LiouepsError,
    ModelBuildError,
    NoEPBracketedError,
    SpaceMismatchError,
    SpectralError,
)
from .ops_core import (
    HermitianDecomposition,
    HilbertSpace,
    Operator,
    build_boson_ops,
    build_qubit_ops,
    hermitian_spectral_decomposition,
    hs_inner,
    hs_norm,
    tensor,
)
from .superop import (
    LindbladModel,
    SuperOp,
    apply_liouvillian,
    assemble_liouvillian,
    assemble_liouvillian_no_jumps,
    devectorize,
    dissipator_superop,
    effective_hamiltonian,
    jump_superop,
    kraus_step,
    left_action,
    right_action,
    vectorize,
)
from .spectral import (
    LemmaReport,
    NhhSpectrum,
    Spectrum,
    analyze_liouvillian,
    analyze_nhh,
    check_lemmas,
    liouvillian_eigensystem,
    liouvillian_eigensystems,
    nhh_eigensystem,
    nhh_eigensystems,
    pm_decomposition,
    sym_antisym,
)
from .ep_detect import (
    EPReport,
    SpectrumFamily,
    SweepResult,
    jordan_chain,
    locate_ep,
    overlap_matrix,
    sweep,
)
from .models import (
    ModelFamily,
    dephasing,
    example1,
    example2,
    example3,
    family_names,
    get_family,
    sigma_z_expectations,
)
from .dynamics import (
    Propagation,
    TrajectoryEnsemble,
    ep_decay_fit,
    propagate_expm,
    propagate_modes,
    trajectories,
)

__version__ = "0.1.0"
