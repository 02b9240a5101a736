"""Liouvillian and effective-Hamiltonian spectra of small open quantum
systems: assembly, eigenanalysis, exceptional-point localization, time
propagation, and counting-trajectory unraveling."""

import importlib

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

# The compute modules load when one of their names is first read (PEP 562),
# so a CLI process loads only the modules its command runs.
_LAZY = {
    "spectral": (
        "Eigensystem",
        "LemmaReport",
        "NhhSpectrum",
        "Spectrum",
        "analyze_liouvillian",
        "analyze_nhh",
        "check_lemmas",
        "liouvillian_eigensystem",
        "liouvillian_eigensystems",
        "nhh_eigensystem",
        "nhh_eigensystems",
        "pm_decomposition",
        "sym_antisym",
    ),
    "ep_detect": (
        "EPReport",
        "SpectrumFamily",
        "SweepResult",
        "jordan_chain",
        "locate_ep",
        "overlap_matrix",
        "sweep",
    ),
    "dynamics": (
        "Propagation",
        "TrajectoryEnsemble",
        "ep_decay_fit",
        "propagate_expm",
        "propagate_modes",
        "trajectories",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, type(importlib))}
                 | set(_MODULE_OF))


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"
