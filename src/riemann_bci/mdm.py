"""Minimum-distance-to-mean classification on the SPD manifold.

Training estimates one geometric mean per class from the trials' feature
matrices; classification assigns a trial to the class whose mean is
nearest in the affine-invariant distance.  The same machinery works for
any feature recipe, which is what makes the classifier universal across
modalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ContractError, MeanConvergenceError
from .features import FeatureRecipe, featurize
from .preprocessing import Epoch
from .spd import DEFAULT_MEAN_MAX_ITER, SpdMatrix, geometric_mean, riemann_distance


@dataclass(frozen=True, eq=False)
class DistanceVector:
    """Per-class distances, ordered like the model's class ids."""

    values: np.ndarray
    class_ids: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.class_ids),):
            raise ContractError(
                f"{v.shape} distances for {len(self.class_ids)} classes"
            )
        _check_distances(v)
        object.__setattr__(self, "values", v)

    @classmethod
    def _rows(cls, table: np.ndarray, class_ids: tuple[int, ...]) -> list["DistanceVector"]:
        """One vector per row of a float64 (k, len(class_ids)) table, with
        the checks of one vector run once for the whole table.

        The table is made read-only in place and each vector's values are
        a view of its row, not a copy.
        """
        _check_distances(table)
        vectors = []
        for row in table:
            dv = object.__new__(cls)
            vars(dv).update(values=row, class_ids=class_ids)
            vectors.append(dv)
        return vectors

    def argmin_class(self) -> int:
        """Class id with the smallest distance; ties go to the lowest id."""
        return self.class_ids[int(np.argmin(self.values))]


def _check_distances(v: np.ndarray) -> None:
    """Refuse a negative or non-finite distance in ``v``, then set it read-only."""
    if not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise ContractError("distances must be finite and nonnegative")
    v.flags.writeable = False


@dataclass(frozen=True, eq=False)
class MdmModel:
    """Per-class geometric means plus the recipe that produced them."""

    class_ids: tuple[int, ...]
    means: tuple[SpdMatrix, ...]
    recipe: FeatureRecipe
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.class_ids) < 2:
            raise ContractError(
                f"MDM requires >= 2 classes (got {len(self.class_ids)})"
            )
        if len(self.means) != len(self.class_ids) or len(self.counts) != len(
            self.class_ids
        ):
            raise ContractError("class_ids, means and counts must align")
        if any(a >= b for a, b in zip(self.class_ids, self.class_ids[1:])):
            raise ContractError(
                f"class ids must be strictly ascending, got {list(self.class_ids)}"
            )
        strays = sorted(
            {p.class_id for p in self.recipe.prototypes} - set(self.class_ids)
        )
        if strays:
            raise ContractError(
                f"recipe prototypes for classes {strays} are not model class ids "
                f"{list(self.class_ids)}"
            )
        dim = self.means[0].dim
        for m in self.means:
            if m.dim != dim:
                raise ContractError("all class means must share one dimension")

    @property
    def dim(self) -> int:
        return self.means[0].dim


def fit(
    training: list[Epoch],
    recipe: FeatureRecipe,
    tol: float | None = None,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
) -> MdmModel:
    """Per-class geometric means of labeled epochs; tol, max_iter go to geometric_mean.

    The labeled epochs share one shape and sampling rate and are
    featurized as one stack, in class-id order.
    """
    by_class: dict[int, list[Epoch]] = {}
    for e in training:
        if e.label is None:
            continue
        by_class.setdefault(e.label, []).append(e)
    class_ids = sorted(by_class)
    if len(class_ids) < 2:
        raise ContractError(f"MDM requires >= 2 classes (got {len(class_ids)})")
    for z in class_ids:
        if len(by_class[z]) < 2:
            raise ContractError(
                f"class {z} has {len(by_class[z])} epochs, need >= 2"
            )
    counts = [len(by_class[z]) for z in class_ids]
    feats = featurize([e for z in class_ids for e in by_class[z]], recipe)
    edges = list(accumulate(counts, initial=0))
    means = []
    for z, start, end in zip(class_ids, edges, edges[1:]):
        try:
            means.append(geometric_mean(feats[start:end], tol=tol, max_iter=max_iter))
        except MeanConvergenceError as exc:
            raise MeanConvergenceError(
                exc.residual, exc.iterations, context=f"class {z}"
            ) from exc
    return MdmModel(
        class_ids=tuple(class_ids),
        means=tuple(means),
        recipe=recipe,
        counts=tuple(counts),
    )


def distances(model: MdmModel, e: Epoch) -> DistanceVector:
    """Affine-invariant distance from the epoch's feature matrix to each mean."""
    return stack_distances(model, [e])[0]


def stack_distances(model: MdmModel, epochs: list[Epoch]) -> list[DistanceVector]:
    """:func:`distances` of each epoch of a same-shape stack, featurized in one pass."""
    return feature_distances(model, featurize(epochs, model.recipe))


def feature_distances(model: MdmModel, feats: list[SpdMatrix]) -> list[DistanceVector]:
    """Affine-invariant distances from each feature of a stack to the class
    means, from one table of the stack against every mean."""
    return DistanceVector._rows(riemann_distance(model.means, feats), model.class_ids)


def predict(model: MdmModel, e: Epoch) -> int:
    """Nearest-mean class id; ties break toward the lowest id."""
    return distances(model, e).argmin_class()


def soft_scores(dv: DistanceVector) -> np.ndarray:
    """Self-normalizing pseudo-probabilities from a distance vector.

    p_z is proportional to exp(-d_z^2 / tau) with tau the mean squared
    distance, so the scores sum to one and argmax(p) always coincides with
    argmin(d).  Equal distances map to the uniform distribution.
    """
    sq = dv.values**2
    tau = float(np.mean(sq))
    if tau == 0.0:
        return np.full(len(sq), 1.0 / len(sq))
    logits = -(sq - sq.min()) / tau
    weights = np.exp(logits)
    return weights / weights.sum()


def target_contrast(dv: DistanceVector) -> float:
    """d(target mean) - d(non-target mean) of a two-class distance vector.

    The higher class id is the target, so negative contrasts are
    target-like.
    """
    if len(dv.class_ids) != 2:
        raise ContractError(
            f"target contrast needs a two-class model, got {len(dv.class_ids)} classes"
        )
    target = dv.class_ids.index(max(dv.class_ids))
    return float(dv.values[target] - dv.values[1 - target])


def add_repetition(totals: dict, repetition: dict[int, DistanceVector]) -> int:
    """Add each item's target contrast to ``totals`` and pick the lowest total.

    ``repetition`` maps item id -> that item's distance vector; the first
    one (``totals`` empty) fixes the item set, which every later one must
    cover.  Ties go to the lowest item id.
    """
    items = sorted(repetition)
    if not items:
        raise ContractError("a repetition must present at least one item")
    if not totals:
        totals.update(dict.fromkeys(items, 0.0))
    elif sorted(totals) != items:
        raise ContractError("every repetition must cover the same item set")
    for item in items:
        totals[item] += target_contrast(repetition[item])
    return min(totals, key=lambda item: (totals[item], item))


def cumulative_select(model: MdmModel, repetitions: list[dict]):
    """The item whose target contrast, summed over repetitions, is lowest."""
    if not repetitions:
        raise ContractError("need at least one repetition")
    totals: dict[int, float] = {}
    for rep in repetitions:
        scored = stack_distances(model, list(rep.values()))
        selected = add_repetition(totals, dict(zip(rep, scored)))
    return selected


def auc(scores: list[tuple[float, int]]) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic, ties at 0.5."""
    values = np.array([s for s, _ in scores], dtype=float)
    labels = np.array([int(bool(lab)) for _, lab in scores])
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ContractError("AUC needs both a positive and a negative example")
    u = _average_ranks(values)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, tied values sharing the mean of their ranks.

    A tie spanning sorted positions s..e-1 takes (s + 1 + e) / 2, a
    half-integer, so the ranks equal ``scipy.stats.rankdata`` bit for bit.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks
