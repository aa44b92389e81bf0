"""Riemannian minimum-distance-to-mean classification for EEG covariance features.

One classifier for every BCI modality: build a structured SPD "covariance
matrix" per trial (plain spatial covariance for motor imagery, prototype
super-trial covariances for ERP/P300, block-diagonal band covariances for
SSVEP, stacked multi-user covariances), estimate one geometric mean per
class under the affine-invariant metric, and assign trials to the nearest
mean.  An adaptive mode fuses a transfer-learned generic model with an
individual model grown online.
"""

from .adaptive import FusedClassifier
from .errors import (
    ContractError,
    EigenSolverError,
    FileFormatError,
    MeanConvergenceError,
    NotPositiveDefiniteError,
    NumericError,
)
from .features import (
    FeatureRecipe,
    Prototype,
    build_prototypes,
    build_recipe,
    featurize,
    shrink,
    ssvep_block_cov,
    super_trial_cov,
)
from .mdm import (
    DistanceVector,
    MdmModel,
    MeanConfig,
    auc,
    cumulative_select,
    distances,
    fit,
    predict,
    soft_scores,
    target_contrast,
)
from .preprocessing import (
    BandSpec,
    Epoch,
    bandpass,
    decimate,
    demean,
    ssvep_filter_bank,
)
from .spd import (
    SpdMatrix,
    SymmetricMatrix,
    geodesic,
    geometric_mean,
    karcher_residual,
    matrix_fn,
    riemann_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BandSpec",
    "ContractError",
    "DistanceVector",
    "EigenSolverError",
    "Epoch",
    "FeatureRecipe",
    "FileFormatError",
    "FusedClassifier",
    "MdmModel",
    "MeanConfig",
    "MeanConvergenceError",
    "NotPositiveDefiniteError",
    "NumericError",
    "Prototype",
    "SpdMatrix",
    "SymmetricMatrix",
    "auc",
    "bandpass",
    "build_prototypes",
    "build_recipe",
    "cumulative_select",
    "decimate",
    "demean",
    "distances",
    "featurize",
    "fit",
    "geodesic",
    "geometric_mean",
    "karcher_residual",
    "matrix_fn",
    "predict",
    "riemann_distance",
    "shrink",
    "soft_scores",
    "ssvep_block_cov",
    "ssvep_filter_bank",
    "super_trial_cov",
    "target_contrast",
]
