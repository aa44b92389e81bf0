"""Affine-invariant geometry on symmetric positive-definite matrices.

Provides the manifold primitives used everywhere else in the package: one
matrix type, ``SpdMatrix``, that symmetrizes its input and caches its
eigendecomposition; its inverse and square roots from that decomposition;
the affine-invariant (geodesic) distance, geodesic interpolation, and the
geometric mean by a safeguarded Riemannian Newton method whose Hessian
comes from the eigendecompositions its gradient already makes.  The SPD
check takes one matrix or a stack, and the distance a stack on either
side, bit-identical to one matrix or one pair at a time.

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
# Newton takes 2-3 trial steps on the class sets of the benchmark workloads
# and at most 5 on small sets spread to condition 1e6; the cap is generous.
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


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _whitened(refs: Sequence[SpdMatrix], mats: Sequence[SpdMatrix]) -> np.ndarray:
    """The symmetrized congruence R^-1/2 C R^-1/2 of each C in ``mats`` by
    each R in ``refs``, a (len(mats), len(refs), dim, dim) stack."""
    _check_equal_dims([*refs, *mats])
    isq = _stacked([r._inv_sqrt_array() for r in refs])
    return _symmetrize(isq @ _stacked([m.values for m in mats])[:, None] @ isq)


def riemann_distance(
    c1: SpdMatrix | Sequence[SpdMatrix], c2: SpdMatrix | Sequence[SpdMatrix]
) -> float | np.ndarray:
    """Affine-invariant distance sqrt(sum_n ln^2 w_n) from ``c1`` to ``c2``.

    The w_n are the eigenvalues of C1^-1 C2, computed stably as the
    eigenvalues of the symmetric congruence C1^-1/2 C2 C1^-1/2.  Two
    matrices give a float.  A stack in either place gives an array with
    one entry per matrix of the stack, and stacks in both places give the
    (len(c2), len(c1)) table: row i holds the distances from each matrix
    of ``c1`` to ``c2[i]``.  Every entry equals the distance of its pair
    alone, bit for bit.
    """
    refs = [c1] if isinstance(c1, SpdMatrix) else c1
    mats = [c2] if isinstance(c2, SpdMatrix) else c2
    if len(refs) == 0 or len(mats) == 0:
        d = np.zeros((len(mats), len(refs)))
    else:
        try:
            w = np.linalg.eigvalsh(_whitened(refs, mats))
        except np.linalg.LinAlgError as exc:
            raise EigenSolverError(refs[0].dim) from exc
        if not w[..., 0].min() > 0.0:
            raise NumericError(
                "whitened matrix lost positive definiteness "
                f"(min eigenvalue {w[..., 0].min():.3e}); inputs are too ill-conditioned"
            )
        d = np.sqrt(np.sum(np.log(w) ** 2, axis=-1))
    if isinstance(c1, SpdMatrix):
        d = d[:, 0]
    if isinstance(c2, SpdMatrix):
        d = d[0]
    return d if isinstance(d, np.ndarray) else float(d)


def geodesic(c1: SpdMatrix, c2: SpdMatrix, t: float) -> SpdMatrix:
    """Point at parameter t on the geodesic from c1 (t=0) to c2 (t=1).

    Computed as C1^1/2 (C1^-1/2 C2 C1^-1/2)^t C1^1/2; the endpoints are
    returned exactly.
    """
    if not 0.0 <= t <= 1.0:
        raise ContractError(f"geodesic parameter must lie in [0, 1], got {t}")
    whitened = _whitened([c1], [c2])[0, 0]
    if t == 0.0:
        return c1
    if t == 1.0:
        return c2
    w, u = _eigh_descending(whitened)
    if not w[-1] > 0.0:
        raise NumericError("whitened matrix lost positive definiteness")
    sq = c1._sqrt_array()
    return SpdMatrix(sq @ _rebuild(u, w**t) @ sq)


def geometric_mean(
    mats: Sequence[SpdMatrix],
    tol: float | None = None,
    max_iter: int = DEFAULT_MEAN_MAX_ITER,
) -> SpdMatrix:
    """Geometric (Karcher) mean by a safeguarded Riemannian Newton method.

    Minimizes f(M) = 1/2 mean_k d^2(M, C_k) from the arithmetic mean and
    stops once the Frobenius norm of the mean log map falls below ``tol``
    (default 1e-8 * dim); raises MeanConvergenceError, with the lowest norm
    reached, after ``max_iter`` trial steps.  The iterate is a factor L of
    M = L L^T.  One stacked eigendecomposition of the whitened inputs
    A_k = L^-1 C_k L^-T = U_k diag(exp l_k) U_k^T gives, in L's frame, the
    negative gradient G = mean_k U_k diag(l_k) U_k^T and the Hessian

        H[X] = mean_k U_k (Phi_k o (U_k^T X U_k)) U_k^T,
        Phi_k[i, j] = g(l_ki - l_kj),  g(x) = (x/2) coth(x/2),  g(0) = 1.

    Since g >= 1, H >= I: the Newton direction X = H^-1 G, solved by
    conjugate gradient with matrix products alone, is a descent direction.
    The step L <- L exp(t X / 2) follows the geodesic along X.  It starts
    at t = 1 and is accepted if the residual falls or f meets the Armijo
    condition; otherwise t halves.  (Near the solution f's decrease is
    below rounding, and only the residual still tells progress.)  See
    Ferreira, Xavier, Costeira & Barroso, ICASSP 2006, and Jeuris,
    Vandebril & Vandereycken, ETNA 39 (2012).
    """
    k = len(mats)
    if k == 0:
        raise ContractError("geometric mean of an empty set")
    dim = _check_equal_dims(mats)
    tol = DEFAULT_MEAN_TOL_PER_DIM * dim if tol is None else tol
    if not (np.isfinite(tol) and tol > 0.0):
        raise ContractError(f"tolerance: tol must be finite and positive, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ContractError(f"mean max_iter must be an integer >= 1, got {max_iter!r}")
    if k == 1:
        return mats[0]

    values = np.stack([m.values for m in mats])
    start = np.mean(values, axis=0)
    w, u = _eigh_descending(start)
    if not w[-1] > 0.0:
        raise NumericError("mean iterate lost positive definiteness")
    frame = (u * np.sqrt(w), (u / np.sqrt(w)).T)  # L and L^-1
    point = _mean_log(frame[1], values)
    best, best_residual = start, point.residual
    # push well past tol so the returned point meets the criterion with margin
    target = 0.25 * tol
    half_step = None  # eigendecomposition of X / 2 once a direction X is chosen
    for _ in range(max_iter):
        if point.residual < target:
            break
        if half_step is None:
            x = _newton_direction(point)
            half_step, slope, t = _eigh_descending(0.5 * x), float(np.vdot(point.gradient, x)), 1.0
        w, u = half_step
        trial = (frame[0] @ _rebuild(u, np.exp(t * w)), _rebuild(u, np.exp(-t * w)) @ frame[1])
        reached = _mean_log(trial[1], values)
        if _accepts(point, reached, t * slope):
            frame, point, half_step = trial, reached, None
            if point.residual < best_residual:
                best_residual, best = point.residual, _symmetrize(frame[0] @ frame[0].T)
        else:
            t *= 0.5
    if best_residual < tol:
        return SpdMatrix(best)
    raise MeanConvergenceError(residual=best_residual, iterations=max_iter)


def _accepts(point: _Evaluation, reached: _Evaluation, decrease: float) -> bool:
    """Step acceptance: the residual falls, or f falls by the Armijo fraction
    1e-4 of the first-order ``decrease`` t <G, X> predicts."""
    return reached.residual < point.residual or reached.cost <= point.cost - 1e-4 * decrease


def _newton_direction(point: _Evaluation) -> np.ndarray:
    """X with H[X] = G at ``point``, by conjugate gradient from X = 0.

    H >= I, so the solve is well conditioned; it stops once the residual
    of the linear system is below 1e-3 * |G| * min(1, |G|)."""
    u, logs, g = point.vectors, point.logs, point.gradient
    ut = u.swapaxes(-1, -2)
    h = 0.5 * (logs[:, :, None] - logs[:, None, :])
    phi = np.divide(h, np.tanh(h), out=np.ones_like(h), where=h != 0.0)
    x, r = np.zeros_like(g), g.copy()
    p, rr = r.copy(), point.residual**2
    stop = (1e-3 * point.residual * min(1.0, point.residual)) ** 2
    for _ in range(g.size):
        if rr < stop:
            break
        hp = np.mean(u @ (phi * (ut @ p @ u)) @ ut, axis=0)
        a = rr / float(np.vdot(p, hp))
        x += a * p
        r -= a * hp
        rr, rr_old = float(np.vdot(r, r)), rr
        p = r + (rr / rr_old) * p
    return _symmetrize(x)


class _Evaluation(NamedTuple):
    """The mean log map at one iterate, from one stacked eigendecomposition."""

    gradient: np.ndarray  # G = mean_k ln(A_k), the negative gradient of f
    residual: float  # |G|_F
    cost: float  # f = 1/2 mean_k |l_k|^2
    vectors: np.ndarray  # U_k, stacked
    logs: np.ndarray  # l_k = ln(eigenvalues of A_k), stacked


def _mean_log(whiten: np.ndarray, values: np.ndarray) -> _Evaluation:
    """The mean log map at (W^T W)^-1 over the stack ``values``, in the frame
    W^-1: one eigendecomposition of the whitened stack W C_k W^T."""
    w, u = _eigh_descending(_symmetrize(whiten @ values @ whiten.T))
    if not np.all(w[:, -1] > 0.0):
        raise NumericError("whitened matrix lost positive definiteness")
    logs = np.log(w)
    total = np.zeros_like(whiten)
    for log in _rebuild(u, logs):  # summed in the order of the one-matrix loop
        total += log
    g = total / len(values)
    cost = 0.5 * float(np.mean(np.sum(logs * logs, axis=-1)))
    return _Evaluation(g, float(np.linalg.norm(g)), cost, u, logs)


def karcher_residual(mean: SpdMatrix, mats: Sequence[SpdMatrix]) -> float:
    """Frobenius norm of the mean log map at ``mean``.

    Zero exactly at the geometric mean; the convergence criterion of
    ``geometric_mean`` bounds this quantity by its tolerance.
    """
    if len(mats) == 0:
        raise ContractError("residual over an empty set")
    _check_equal_dims([mean, *mats])
    return _mean_log(mean._inv_sqrt_array(), np.stack([m.values for m in mats])).residual


def _check_equal_dims(mats: Sequence[SpdMatrix]) -> int:
    dim = mats[0].dim
    for m in mats[1:]:
        if m.dim != dim:
            raise ContractError(f"dimension mismatch in set: {m.dim} vs {dim}")
    return dim
