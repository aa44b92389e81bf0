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
    NumericError,
)
from .features import (
    FeatureRecipe,
    build_recipe,
)
from .mdm import (
    DistanceVector,
    MdmModel,
    distances,
    fit,
    predict,
)
from .preprocessing import (
    Epoch,
    demean,
)
from .spd import (
    SpdMatrix,
    geometric_mean,
    riemann_distance,
)

__version__ = "0.1.0"

# The README sketch's names, the types they take and return, the paper's
# core pieces and the two exit-code exception bases; everything else is
# imported from its module.
__all__ = [
    "ContractError",
    "DistanceVector",
    "Epoch",
    "FeatureRecipe",
    "FusedClassifier",
    "MdmModel",
    "NumericError",
    "SpdMatrix",
    "build_recipe",
    "demean",
    "distances",
    "fit",
    "geometric_mean",
    "predict",
    "riemann_distance",
]
