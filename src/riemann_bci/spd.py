"""Affine-invariant geometry on symmetric positive-definite matrices.

Provides the manifold primitives used everywhere else in the package:
eigendecomposition, matrix functions of eigenvalues, the affine-invariant
(geodesic) distance, geodesic interpolation, and the iterative geometric
mean with a safeguarded step.

All public values are immutable after construction and every operation is
a pure function, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ContractError,
    EigenSolverError,
    MeanConvergenceError,
    NotPositiveDefiniteError,
    NumericError,
)

# Relative floor for the positive-definiteness check: lambda_min must exceed
# dim * lambda_max * SPD_EIGENVALUE_RTOL, so the check is scale invariant.
SPD_EIGENVALUE_RTOL = 1e-12

DEFAULT_MEAN_TOL_PER_DIM = 1e-8
# The fixed-point iteration converges linearly, at a rate set by the spread
# of the input set: typical covariance sets finish in 15-80 iterations, but
# small, widely spread super-trial sets have been observed near rate 0.99,
# needing on the order of a thousand.  Iterations are cheap at these sizes,
# so the cap is generous.
DEFAULT_MEAN_MAX_ITER = 1500


class Evd(NamedTuple):
    """Eigendecomposition U diag(w) U^T, eigenvalues sorted descending."""

    vectors: np.ndarray
    eigenvalues: np.ndarray


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvectors of a symmetric array."""
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(a.shape[0]) from exc
    return w[::-1].copy(), u[:, ::-1].copy()


def _rebuild(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U diag(w) U^T, symmetrized against rounding."""
    return _symmetrize((u * w) @ u.T)


class SymmetricMatrix:
    """Dense real symmetric matrix; the input is symmetrized on construction."""

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        a = np.asarray(values, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ContractError("matrix dimension must be >= 1")
        if not np.all(np.isfinite(a)):
            raise ContractError("matrix entries must be finite")
        sym = _symmetrize(a)
        sym.flags.writeable = False
        self.values = sym

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class SpdMatrix(SymmetricMatrix):
    """Symmetric positive-definite matrix with its eigendecomposition cached.

    The decomposition is computed eagerly at construction (it is needed for
    the positive-definiteness check anyway), which also keeps instances
    safely shareable across threads.
    """

    __slots__ = ("eig", "_sqrt", "_inv_sqrt")

    def __init__(self, values) -> None:
        super().__init__(values)
        w, u = _eigh_descending(self.values)
        if w[-1] <= self.dim * w[0] * SPD_EIGENVALUE_RTOL:
            raise NotPositiveDefiniteError(
                "matrix is not positive definite: eigenvalues in "
                f"[{w[-1]:.6e}, {w[0]:.6e}] for dim {self.dim}"
            )
        self.eig = Evd(vectors=u, eigenvalues=w)
        self._sqrt = None
        self._inv_sqrt = None

    def _sqrt_array(self) -> np.ndarray:
        if self._sqrt is None:
            u, w = self.eig.vectors, self.eig.eigenvalues
            self._sqrt = _rebuild(u, np.sqrt(w))
        return self._sqrt

    def _inv_sqrt_array(self) -> np.ndarray:
        if self._inv_sqrt is None:
            u, w = self.eig.vectors, self.eig.eigenvalues
            self._inv_sqrt = _rebuild(u, 1.0 / np.sqrt(w))
        return self._inv_sqrt


_SPD_EIGENVALUE_MAPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "inverse": lambda w: 1.0 / w,
    "sqrt": np.sqrt,
    "inv_sqrt": lambda w: 1.0 / np.sqrt(w),
    "log": np.log,
}


def matrix_fn(c: SymmetricMatrix, fn: str) -> SymmetricMatrix:
    """Apply a scalar function to the eigenvalues, keeping the eigenvectors.

    ``fn`` is one of ``inverse``, ``sqrt``, ``inv_sqrt``, ``log`` (all of
    which require a positive-definite input) or ``exp`` (defined for any
    symmetric matrix, always returns an SPD matrix).
    """
    if fn == "exp":
        w, u = (c.eig.eigenvalues, c.eig.vectors) if isinstance(c, SpdMatrix) \
            else _eigh_descending(c.values)
        return SpdMatrix(_rebuild(u, np.exp(w)))
    try:
        eigmap = _SPD_EIGENVALUE_MAPS[fn]
    except KeyError:
        raise ContractError(f"unknown matrix function {fn!r}") from None
    spd = c if isinstance(c, SpdMatrix) else SpdMatrix(c.values)
    u, w = spd.eig.vectors, spd.eig.eigenvalues
    if fn == "log":
        return SymmetricMatrix(_rebuild(u, np.log(w)))
    return SpdMatrix(_rebuild(u, eigmap(w)))


def riemann_distance(c1: SpdMatrix, c2: SpdMatrix) -> float:
    """Affine-invariant distance sqrt(sum_n ln^2 w_n).

    The w_n are the eigenvalues of C1^-1 C2, computed stably as the
    eigenvalues of the symmetric congruence C1^-1/2 C2 C1^-1/2.
    """
    if c1.dim != c2.dim:
        raise ContractError(f"dimension mismatch: {c1.dim} vs {c2.dim}")
    isq = c1._inv_sqrt_array()
    w = np.linalg.eigvalsh(_symmetrize(isq @ c2.values @ isq))
    if w[0] <= 0.0:
        raise NumericError(
            "whitened matrix lost positive definiteness "
            f"(min eigenvalue {w[0]:.3e}); inputs are too ill-conditioned"
        )
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def geodesic(c1: SpdMatrix, c2: SpdMatrix, t: float) -> SpdMatrix:
    """Point at parameter t on the geodesic from c1 (t=0) to c2 (t=1).

    Computed as C1^1/2 (C1^-1/2 C2 C1^-1/2)^t C1^1/2; the endpoints are
    returned exactly.
    """
    if c1.dim != c2.dim:
        raise ContractError(f"dimension mismatch: {c1.dim} vs {c2.dim}")
    if not 0.0 <= t <= 1.0:
        raise ContractError(f"geodesic parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return c1
    if t == 1.0:
        return c2
    isq = c1._inv_sqrt_array()
    sq = c1._sqrt_array()
    w, u = _eigh_descending(_symmetrize(isq @ c2.values @ isq))
    if w[-1] <= 0.0:
        raise NumericError("whitened matrix lost positive definiteness")
    inner = _rebuild(u, w**t)
    return SpdMatrix(sq @ inner @ sq)


def geometric_mean(
    mats: Sequence[SpdMatrix],
    tol: float | None = None,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
) -> SpdMatrix:
    """Geometric (Karcher) mean by fixed-point iteration.

    Iterates M <- M^1/2 exp(s * mean_k ln(M^-1/2 C_k M^-1/2)) M^1/2,
    starting from the arithmetic mean, until the Frobenius norm of the
    mean log map falls below ``tol`` (default 1e-8 * dim).

    The step s is capped at 2 / (1 + H), where H = mean_k d_k coth(d_k)
    bounds the Hessian of the mean squared-distance cost along the
    iterate's log maps (d_k their norms).  For tight sets H is 1 and the
    plain unit-step update is recovered; for widely spread sets unit steps
    are only marginally stable and crawl, while the capped step contracts
    geometrically.  As a further safeguard the step is halved whenever the
    residual fails to decrease and recovers gradually afterwards.

    Raises MeanConvergenceError when ``max_iter`` is exhausted, carrying the
    last residual norm.
    """
    k = len(mats)
    if k == 0:
        raise ContractError("geometric mean of an empty set")
    dim = _check_equal_dims(mats)
    if tol is None:
        tol = DEFAULT_MEAN_TOL_PER_DIM * dim
    if k == 1:
        return mats[0]

    values = [m.values for m in mats]
    wt = 1.0 / k
    current = np.mean(values, axis=0)
    damping = 1.0
    prev_residual = np.inf
    residual = np.inf
    best_residual = np.inf
    best = current
    # push well past tol so the returned point meets the criterion with margin
    target = 0.25 * tol
    for _ in range(max_iter):
        w, u = _eigh_descending(current)
        if w[-1] <= 0.0:
            raise NumericError("mean iterate lost positive definiteness")
        sqrt_w = np.sqrt(w)
        isq = _rebuild(u, 1.0 / sqrt_w)
        sq = _rebuild(u, sqrt_w)
        log_sum = np.zeros_like(current)
        hessian_bound = 0.0
        for value in values:
            ww, uu = _eigh_descending(_symmetrize(isq @ value @ isq))
            if ww[-1] <= 0.0:
                raise NumericError("whitened matrix lost positive definiteness")
            log_w = np.log(ww)
            log_sum += wt * _rebuild(uu, log_w)
            d = float(np.linalg.norm(log_w))
            hessian_bound += wt * (d / np.tanh(d) if d > 1e-12 else 1.0)
        log_sum = _symmetrize(log_sum)
        residual = float(np.linalg.norm(log_sum, "fro"))
        if residual < best_residual:
            best_residual = residual
            best = current
        if residual < target:
            return SpdMatrix(current)
        # Safeguard on top of the Hessian-bounded step: halve whenever the
        # residual grows, recover gradually while it shrinks.
        if residual >= prev_residual:
            damping *= 0.5
        else:
            damping = min(1.0, 1.5 * damping)
        step = damping * min(1.0, 2.0 / (1.0 + hessian_bound))
        ew, eu = _eigh_descending(step * log_sum)
        current = _symmetrize(sq @ _rebuild(eu, np.exp(ew)) @ sq)
        prev_residual = residual
    if best_residual < tol:
        return SpdMatrix(best)
    raise MeanConvergenceError(residual=best_residual, iterations=max_iter)


def karcher_residual(mean: SpdMatrix, mats: Sequence[SpdMatrix]) -> float:
    """Frobenius norm of the mean log map at ``mean``.

    Zero exactly at the geometric mean; the convergence criterion of
    ``geometric_mean`` bounds this quantity by its tolerance.
    """
    k = len(mats)
    if k == 0:
        raise ContractError("residual over an empty set")
    wt = 1.0 / k
    isq = mean._inv_sqrt_array()
    log_sum = np.zeros((mean.dim, mean.dim))
    for m in mats:
        ww, uu = _eigh_descending(_symmetrize(isq @ m.values @ isq))
        log_sum += wt * _rebuild(uu, np.log(ww))
    return float(np.linalg.norm(_symmetrize(log_sum), "fro"))


def _check_equal_dims(mats: Sequence[SpdMatrix]) -> int:
    dim = mats[0].dim
    for m in mats[1:]:
        if m.dim != dim:
            raise ContractError(f"dimension mismatch in set: {m.dim} vs {dim}")
    return dim
