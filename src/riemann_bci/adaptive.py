"""Two-classifier adaptive fusion: a generic model plus an online one.

A session starts from a generic (transfer-learned) MDM model.  As labeled
repetitions arrive, an individual model is grown online and the two are
blended: the individual classifier's weight follows the linear ramp
alpha = min(1, n_rep / ramp) (ramp defaults to 40 repetitions), so the
generic model carries a naive user at first and is phased out entirely
once enough personal data has been absorbed.  Every session starts this
way, from the generic model alone: no individual model is carried from
one session into the next.

Both classifiers share one feature recipe, so their outputs are fused by
a weighted sum of per-class distances, each vector first normalized by
its own class sum to make the two scales commensurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .features import featurize
from .mdm import DistanceVector, MdmModel
from .preprocessing import Epoch
from .spd import SpdMatrix, geodesic, riemann_distance
# Unused here, but perfbench/tracer.py wraps the adaptive.geometric_mean binding.
from .spd import geometric_mean  # noqa: F401

DEFAULT_RAMP = 40


def _normalized(values: np.ndarray) -> np.ndarray:
    total = values.sum()
    if total <= 0.0:
        return values
    return values / total


@dataclass
class FusedClassifier:
    """Generic + individual MDM pair with the linear weighting schedule.

    Mutated only by :meth:`absorb` (single-writer contract); reads must be
    serialized with writes or taken on a snapshot.  Each absorbed feature
    is folded into its class's running mean with one geodesic step, so
    memory stays bounded however long the session runs.
    """

    generic: MdmModel
    ramp: int = DEFAULT_RAMP
    n_rep: float = field(default=0.0, init=False)
    individual_means: dict[int, SpdMatrix] = field(default_factory=dict, init=False)
    individual_counts: dict[int, int] = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.ramp < 1:
            raise ContractError(f"ramp must be >= 1, got {self.ramp}")

    @property
    def alpha(self) -> float:
        """Individual-classifier weight min(1, n_rep / ramp)."""
        return min(1.0, self.n_rep / self.ramp)

    @property
    def individual(self) -> MdmModel | None:
        """Individual MDM model; None until every class has been observed."""
        if any(z not in self.individual_means for z in self.generic.class_ids):
            return None
        return MdmModel(
            class_ids=self.generic.class_ids,
            means=tuple(self.individual_means[z] for z in self.generic.class_ids),
            recipe=self.generic.recipe,
            counts=tuple(self.individual_counts[z] for z in self.generic.class_ids),
        )

    def fused_distances(self, e: Epoch) -> DistanceVector:
        """Per-class weighted sum of the two classifiers' distance profiles.

        Each classifier's vector is divided by its own sum across classes
        before mixing, so d = (1-alpha) g + alpha i compares shapes, not
        scales.  With alpha = 0 the generic profile is returned alone.
        """
        alpha = self.alpha
        feat = featurize(e, self.generic.recipe)
        generic_values = np.array(
            [riemann_distance(m, feat) for m in self.generic.means]
        )
        if alpha == 0.0:
            return DistanceVector(
                values=_normalized(generic_values), class_ids=self.generic.class_ids
            )
        individual = self.individual
        if individual is None:
            raise ContractError(
                "individual classifier has weight > 0 but has not observed "
                "every class yet"
            )
        individual_values = np.array(
            [riemann_distance(m, feat) for m in individual.means]
        )
        fused = (1.0 - alpha) * _normalized(generic_values) + alpha * _normalized(
            individual_values
        )
        return DistanceVector(values=fused, class_ids=self.generic.class_ids)

    def predict(self, e: Epoch) -> int:
        return self.fused_distances(e).argmin_class()

    def absorb(self, e: Epoch, true_label: int, rep_increment: float = 1.0) -> "FusedClassifier":
        """Fold one supervised epoch into the individual classifier.

        The first epoch of a class becomes that class's mean; afterwards
        the mean moves along the geodesic toward the new feature matrix by
        1/(count+1), the streaming analogue of the geometric mean of all
        the class's features.  ``n_rep`` advances by ``rep_increment`` so
        the caller controls what counts as one repetition (e.g. 1/n_items
        per item epoch in a P300 round).
        """
        if true_label not in self.generic.class_ids:
            raise ContractError(
                f"label {true_label} is not one of {self.generic.class_ids}"
            )
        feat = featurize(e, self.generic.recipe)
        count = self.individual_counts.get(true_label, 0)
        if count == 0:
            self.individual_means[true_label] = feat
        else:
            self.individual_means[true_label] = geodesic(
                self.individual_means[true_label], feat, 1.0 / (count + 1)
            )
        self.individual_counts[true_label] = count + 1
        self.n_rep += rep_increment
        return self
