"""bsskit: blind source separation of linear instantaneous and FIR mixtures.

Synthetic sources go through static, noisy or convolutive mixing; separators
recover them using second-order structure (whitening, lagged covariances),
adaptive criterion ascent, one-unit fixed-point iterations, or algebraic
decompositions of the fourth-order cumulant tensor.  A scenario-driven CLI
batches experiments and scores them with the permutation-invariant
separation index.
"""

from .adaptive import (
    AdaptConfig,
    StabilityReport,
    adaptive_update,
    batch_update_direction,
    bussgang_residual,
    run_separation,
    stability_check,
    universal_criterion,
)
from .algebraic import (
    DetCmResult,
    ParafacFactors,
    Rank1Init,
    UnimodalResult,
    deterministic_cm,
    hoevd,
    hopm,
    jacobi_diagonalize,
    jade,
    jade_rotation,
    joint_diagonalize,
    kruskal_check,
    parafac_als,
    rank1_init,
    unimodal_equalizer,
)
from .errors import (
    BssError,
    DegenerateChannel,
    DegenerateInput,
    DegenerateSpectra,
    DegenerateSpectrum,
    DimensionMismatch,
    Diverged,
    InvalidPath,
    InvalidSpec,
    LagTooLarge,
    NotConverged,
    RankDeficient,
    SingularG,
    SingularLS,
    ZeroContraction,
    ZeroUpdate,
)
from .fixedpoint import OneUnitState, cma, cma_step, deflate_extract, donoho_contrast, fastica_step, symmetric_extract
from .metrics import GlobalSystem, global_system, resolve_permutation_scale, separation_index
from .moments import (
    Cumulant4Tensor,
    LaggedCovariance,
    cumulant_matrix,
    edgeworth_pdf,
    estimate_cum4,
    hermite,
    kurtosis,
    psi4_contrast,
    sample_covariance,
    tensor_norm,
    tucker_transform,
    unfold,
)
from .scores import CubicScore, ScoreFunction, SignSwitchingScore, TanhScore, make_score
from .second_order import Separator, Whitener, amuse, fit_whitener, fix_signs, whiten
from .signals import (
    MixingModel,
    SignalMatrix,
    SourceSpec,
    convolve_mimo,
    generate_sources,
    lift_convolutive,
    mix,
    window_stack,
)

__version__ = "0.1.0"
