"""Affine-invariant geometry on symmetric positive-definite matrices.

Provides the manifold primitives used everywhere else in the package: one
matrix type, ``SpdMatrix``, that symmetrizes its input and caches its
eigendecomposition; its inverse and square roots from that decomposition;
the affine-invariant (geodesic) distance, geodesic interpolation, and the
geometric mean by Riemannian conjugate gradient.  The array helpers take
one matrix or a (k, dim, dim) stack, bit-identical to one matrix at a time.

All public values are immutable after construction and every operation is
a pure function, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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
# Conjugate gradient takes 5-30 iterations on typical class sets and about 40
# gradient evaluations on small sets spread to condition 1e6; the cap is generous.
DEFAULT_MEAN_MAX_ITER = 1500


class Evd(NamedTuple):
    """Eigendecomposition U diag(w) U^T, eigenvalues sorted descending."""

    vectors: np.ndarray
    eigenvalues: np.ndarray


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvectors of a symmetric array."""
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(a.shape[-1]) from exc
    return w[..., ::-1].copy(), u[..., ::-1].copy()


def _rebuild(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U diag(w) U^T, symmetrized against rounding."""
    return _symmetrize((u * w[..., None, :]) @ u.swapaxes(-1, -2))


def decompose(a: np.ndarray) -> tuple[np.ndarray, Evd, np.ndarray]:
    """Symmetrized ``a``, its eigendecomposition and the SPD check per matrix."""
    sym = _symmetrize(a)
    if not np.isfinite(sym).all():
        raise ContractError("matrix entries must be finite")
    sym.flags.writeable = False
    w, u = _eigh_descending(sym)
    return sym, Evd(u, w), w[..., -1] > sym.shape[-1] * w[..., 0] * SPD_EIGENVALUE_RTOL


def not_positive_definite(w: np.ndarray) -> NotPositiveDefiniteError:
    """The error for a matrix whose descending eigenvalues ``w`` fail the check."""
    message = "matrix is not positive definite: eigenvalues in"
    return NotPositiveDefiniteError(f"{message} [{w[-1]:.6e}, {w[0]:.6e}] for dim {len(w)}")


class SpdMatrix:
    """Symmetric positive-definite matrix with its eigendecomposition cached.

    The input is symmetrized on construction.  The decomposition is computed
    eagerly (it is needed for the positive-definiteness check anyway), which
    also keeps instances safely shareable across threads.
    """

    __slots__ = ("values", "eig", "_sqrt", "_inv_sqrt")

    def __init__(self, values) -> None:
        a = np.asarray(values, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ContractError("matrix dimension must be >= 1")
        sym, eig, ok = decompose(a)
        if not ok:
            raise not_positive_definite(eig.eigenvalues)
        self.values, self.eig, self._sqrt, self._inv_sqrt = sym, eig, None, None

    @classmethod
    def _checked(cls, values: np.ndarray, eig: Evd) -> "SpdMatrix":
        """One matrix of a stacked :func:`decompose` that passed the check."""
        m = cls.__new__(cls)
        m.values, m.eig, m._sqrt, m._inv_sqrt = values, eig, None, None
        return m

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"

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


def matrix_fn(c: SpdMatrix, fn: str) -> SpdMatrix:
    """``inverse``, ``sqrt`` or ``inv_sqrt`` of an SPD matrix, from its
    cached eigendecomposition."""
    if fn == "sqrt":
        return SpdMatrix(c._sqrt_array())
    if fn == "inv_sqrt":
        return SpdMatrix(c._inv_sqrt_array())
    if fn == "inverse":
        return SpdMatrix(_rebuild(c.eig.vectors, 1.0 / c.eig.eigenvalues))
    raise ContractError(f"unknown matrix function {fn!r}")


def riemann_distance(c1: SpdMatrix, c2: SpdMatrix) -> float:
    """Affine-invariant distance sqrt(sum_n ln^2 w_n).

    The w_n are the eigenvalues of C1^-1 C2, computed stably as the
    eigenvalues of the symmetric congruence C1^-1/2 C2 C1^-1/2.
    """
    if c1.dim != c2.dim:
        raise ContractError(f"dimension mismatch: {c1.dim} vs {c2.dim}")
    isq = c1._inv_sqrt_array()
    try:
        w = np.linalg.eigvalsh(_symmetrize(isq @ c2.values @ isq))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(c1.dim) from exc
    if not w[0] > 0.0:
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
    if not w[-1] > 0.0:
        raise NumericError("whitened matrix lost positive definiteness")
    inner = _rebuild(u, w**t)
    return SpdMatrix(sq @ inner @ sq)


def geometric_mean(
    mats: Sequence[SpdMatrix],
    tol: float | None = None,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
) -> SpdMatrix:
    """Geometric (Karcher) mean by Riemannian conjugate gradient.

    Starts from the arithmetic mean and stops once the Frobenius norm of the
    mean log map falls below ``tol`` (default 1e-8 * dim); raises
    MeanConvergenceError, with the lowest norm reached, after ``max_iter``
    iterations.  The iterate is a factor L of M = L L^T.  In its frame
    G = mean_k ln(L^-1 C_k L^-T) is the negative gradient, the step
    L <- L exp(a D / 2) follows the geodesic along D, and parallel transport
    is the identity, so the Polak-Ribiere+ directions D <- G + beta D need
    no transport; a D with <G, D> <= 0 restarts as G.  The step a is the
    secant root of <G, D> between 0 and a trial step (the last a), evaluated
    only when over 10% from the trial step and kept unless its residual
    exceeds both the trial point's and the current one.  See Absil, Mahony &
    Sepulchre, Optimization Algorithms on Matrix Manifolds (2008), ch. 8,
    and Jeuris, Vandebril & Vandereycken, ETNA 39 (2012).
    """
    k = len(mats)
    if k == 0:
        raise ContractError("geometric mean of an empty set")
    dim = _check_equal_dims(mats)
    tol = DEFAULT_MEAN_TOL_PER_DIM * dim if tol is None else tol
    if not (np.isfinite(tol) and tol > 0.0):
        raise ContractError(f"tolerance: tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ContractError(f"mean max_iter must be >= 1, got {max_iter}")
    if k == 1:
        return mats[0]

    values = np.stack([m.values for m in mats])
    start = np.mean(values, axis=0)
    w, u = _eigh_descending(start)
    if not w[-1] > 0.0:
        raise NumericError("mean iterate lost positive definiteness")
    frame = (u * np.sqrt(w), (u / np.sqrt(w)).T)  # L and L^-1
    g, residual = _mean_log(frame[1], values)
    best, best_residual = start, residual
    # push well past tol so the returned point meets the criterion with margin
    target = 0.25 * tol
    d, step = g, 1.0
    for _ in range(max_iter):
        if residual < target:
            break
        slope = float(np.vdot(g, d))
        if slope <= 0.0:
            d, slope = g, residual * residual
        point = _step(frame, d, step, values)
        trial_slope = float(np.vdot(point[1], d))
        if trial_slope < slope:
            secant = step * slope / (slope - trial_slope)
            if abs(secant - step) > 0.1 * step:
                other = _step(frame, d, secant, values)
                if other[2] <= max(point[2], residual):
                    point, step = other, secant
        beta = max(0.0, float(np.vdot(point[1], point[1] - g)) / (residual * residual))
        frame, g, residual = point
        d = g + beta * d
        if residual < best_residual:
            best_residual, best = residual, _symmetrize(frame[0] @ frame[0].T)
    if best_residual < tol:
        return SpdMatrix(best)
    raise MeanConvergenceError(residual=best_residual, iterations=max_iter)


def _step(frame, d: np.ndarray, alpha: float, values):
    """Frame (L, L^-1) at L exp(alpha D / 2), its mean log map and residual."""
    w, u = _eigh_descending(0.5 * alpha * d)
    new = (frame[0] @ _rebuild(u, np.exp(w)), _rebuild(u, np.exp(-w)) @ frame[1])
    return (new, *_mean_log(new[1], values))


def _mean_log(whiten: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, float]:
    """G = mean_k ln(W C_k W^T) over the stack ``values``, the mean log map at
    (W^T W)^-1 in the frame W^-1, and its Frobenius norm (the residual)."""
    w, u = _eigh_descending(_symmetrize(whiten @ values @ whiten.T))
    if not np.all(w[:, -1] > 0.0):
        raise NumericError("whitened matrix lost positive definiteness")
    total = np.zeros_like(whiten)
    for log in _rebuild(u, np.log(w)):  # summed in the order of the one-matrix loop
        total += log
    g = total / len(values)
    return g, float(np.linalg.norm(g))


def karcher_residual(mean: SpdMatrix, mats: Sequence[SpdMatrix]) -> float:
    """Frobenius norm of the mean log map at ``mean``.

    Zero exactly at the geometric mean; the convergence criterion of
    ``geometric_mean`` bounds this quantity by its tolerance.
    """
    if len(mats) == 0:
        raise ContractError("residual over an empty set")
    return _mean_log(mean._inv_sqrt_array(), np.stack([m.values for m in mats]))[1]


def _check_equal_dims(mats: Sequence[SpdMatrix]) -> int:
    dim = mats[0].dim
    for m in mats[1:]:
        if m.dim != dim:
            raise ContractError(f"dimension mismatch in set: {m.dim} vs {dim}")
    return dim
