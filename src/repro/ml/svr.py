"""Epsilon-SVR trained by SMO — a from-scratch LIBSVM-class solver.

The paper predicts the switching point with Support Vector Machine
regression trained in LIBSVM [10].  Neither LIBSVM nor scikit-learn is
available offline, so this module implements the same model: the
ε-insensitive support vector regression dual, solved by Sequential
Minimal Optimization with maximal-violating-pair working-set selection
(Fan, Chen & Lin's WSS1 — what LIBSVM itself ships).

Dual formulation (Smola & Schölkopf).  With doubled variables
``t ∈ {0..2n-1}``, sign ``s_t = +1`` for the first ``n`` (the α block)
and ``-1`` for the rest (the α* block)::

    min_α  0.5 αᵀ Q α + pᵀ α
    s.t.   Σ_t s_t α_t = 0,   0 ≤ α_t ≤ C

where ``Q_tu = s_t s_u K(x_{t mod n}, x_{u mod n})`` and
``p_t = ε - s_t y_{t mod n}``.  The regression coefficients are
``β = α[:n] - α[n:]`` and ``f(x) = Σ β_i K(x_i, x) + b``.

The Gram matrix is materialized once (n ≤ a few thousand in every use
here — the paper trains on 140 samples) and Q is addressed implicitly
through the sign vector, so memory stays ``O(n²)`` not ``O(4n²)``.  An
SMO step moves two variables, so each iteration updates the gradient
by two kernel columns (read from a contiguous copy) and refreshes the
working-set masks at those two positions only.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.errors import ConvergenceWarning, ModelError, NotFittedError
from repro.ml.kernels import Kernel, make_kernel

__all__ = ["SVR"]


class SVR:
    """ε-insensitive support vector regression.

    Parameters
    ----------
    c:
        Box constraint (regularization inverse); larger fits harder.
    epsilon:
        Half-width of the insensitive tube; residuals inside it cost 0.
    kernel:
        Kernel name (``'rbf'``, ``'linear'``, ``'poly'``) or a callable
        ``(X, Z) -> Gram``.
    gamma:
        RBF width; ``'scale'`` uses ``1 / (d · var(X))`` like LIBSVM.
    tol:
        KKT violation tolerance for the stopping rule.
    max_iter:
        SMO iteration budget; hitting it emits
        :class:`~repro.errors.ConvergenceWarning`.
    """

    def __init__(
        self,
        c: float = 10.0,
        epsilon: float = 0.1,
        kernel: str | Kernel = "rbf",
        gamma: float | str = "scale",
        tol: float = 1e-4,
        max_iter: int = 200_000,
    ) -> None:
        if c <= 0:
            raise ModelError(f"c must be positive, got {c}")
        if epsilon < 0:
            raise ModelError(f"epsilon must be non-negative, got {epsilon}")
        if tol <= 0:
            raise ModelError(f"tol must be positive, got {tol}")
        if max_iter < 1:
            raise ModelError(f"max_iter must be >= 1, got {max_iter}")
        self.c = float(c)
        self.epsilon = float(epsilon)
        self.kernel = kernel
        self.gamma = gamma
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        # Fitted state
        self.support_x_: np.ndarray | None = None
        self.beta_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self._kernel_fn: Kernel | None = None

    # -- kernel resolution ---------------------------------------------------

    def _resolve_kernel(self, X: np.ndarray) -> Kernel:
        if callable(self.kernel):
            return self.kernel
        if self.kernel == "rbf":
            if self.gamma == "scale":
                var = float(X.var())
                gamma = 1.0 / (X.shape[1] * var) if var > 0 else 1.0
            else:
                gamma = float(self.gamma)  # type: ignore[arg-type]
            return make_kernel("rbf", gamma=gamma)
        if self.kernel in ("linear", "poly"):
            return make_kernel(self.kernel)
        raise ModelError(f"unknown kernel {self.kernel!r}")

    # -- training ---------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVR":
        """Solve the dual by SMO on ``(X, y)``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        n = X.shape[0]
        if y.shape[0] != n:
            raise ModelError(f"{n} samples but {y.shape[0]} targets")
        if n < 2:
            raise ModelError("SVR needs at least 2 samples")
        kernel_fn = self._resolve_kernel(X)
        K = kernel_fn(X, X)

        c, eps, tol = self.c, self.epsilon, self.tol
        m2 = 2 * n
        s = np.ones(m2)
        s[n:] = -1.0
        p = np.empty(m2)
        p[:n] = eps - y
        p[n:] = eps + y
        alpha = np.zeros(m2)
        # f = -s*grad, kept directly (Qα = 0 at start, so grad = p).
        # Negation commutes with rounding, so updating f by -s*Δgrad
        # gives the values -s*grad would, up to the sign of an exact
        # zero, which no comparison below can see.
        f = -s * p
        idx = np.arange(m2) % n  # map doubled index -> sample
        # Row r holds K[idx, r]: the doubled kernel column of sample r,
        # contiguous.  K is read as stored, never assumed symmetric.
        cols = np.ascontiguousarray(np.hstack([K.T, K.T]))

        # Bound slack: alphas within eps of a bound are treated as *at*
        # the bound (and snapped there), so float drift cannot leave a
        # variable in a working set with no room to move — without this
        # the solver can cycle forever on rank-deficient (e.g. linear)
        # kernels.
        eps = 1e-12 * max(c, 1.0)
        # Working-set masks; a step moves only alpha_i and alpha_j, so
        # only their entries are ever refreshed.
        up_mask = ((s > 0) & (alpha < c - eps)) | ((s < 0) & (alpha > eps))
        low_mask = ((s > 0) & (alpha > eps)) | ((s < 0) & (alpha < c - eps))
        it = 0
        for it in range(1, self.max_iter + 1):
            # WSS1: maximal violating pair over -s*grad.
            fi = np.where(up_mask, f, -np.inf)
            fj = np.where(low_mask, f, np.inf)
            i = int(np.argmax(fi))
            j = int(np.argmin(fj))
            # An empty mask leaves argmax/argmin on a position outside it.
            if not (up_mask[i] and low_mask[j]):
                break
            if fi[i] - fj[j] < tol:
                break
            # Analytic 2-variable step along the equality constraint.
            # The feasible direction is u = s_i e_i - s_j e_j; its
            # curvature u'Qu = K_ii + K_jj - 2 K_ij for every sign
            # combination (the s factors square away).
            quad = (
                K[idx[i], idx[i]]
                + K[idx[j], idx[j]]
                - 2.0 * K[idx[i], idx[j]]
            )
            quad = max(quad, 1e-12)
            # Move: alpha_i += s_i * d, alpha_j -= s_j * d.
            d = (fi[i] - fj[j]) / quad
            # Clip d to the box for both coordinates.
            d = min(d, (c - alpha[i]) if s[i] > 0 else alpha[i])
            d = min(d, (c - alpha[j]) if s[j] < 0 else alpha[j])
            if d <= 0:
                break
            for t, dt in ((i, s[i] * d), (j, -s[j] * d)):
                a = min(max(alpha[t] + dt, 0.0), c)
                if a < eps:
                    a = 0.0
                if a > c - eps:
                    a = c
                alpha[t] = a
                up_mask[t] = a < c - eps if s[t] > 0 else a > eps
                low_mask[t] = a > eps if s[t] > 0 else a < c - eps
            # grad += Q_i*(s_i d) - Q_j*(s_j d), with Q_t = s*s_t*K[idx,
            # idx[t]]; times -s the signs cancel to the kernel columns.
            f -= cols[idx[i]] * d - cols[idx[j]] * d
        else:
            it = self.max_iter
        if it >= self.max_iter:
            warnings.warn(
                f"SVR SMO stopped at max_iter={self.max_iter}",
                ConvergenceWarning,
                stacklevel=2,
            )

        beta = alpha[:n] - alpha[n:]
        # Intercept from the KKT band of the final gradient.
        up_mask = ((s > 0) & (alpha < c)) | ((s < 0) & (alpha > 0))
        low_mask = ((s > 0) & (alpha > 0)) | ((s < 0) & (alpha < c))
        hi = f[up_mask].max() if up_mask.any() else 0.0
        lo = f[low_mask].min() if low_mask.any() else 0.0
        self.intercept_ = float((hi + lo) / 2.0)

        keep = np.abs(beta) > 1e-12
        self.support_x_ = X[keep].copy()
        self.beta_ = beta[keep].copy()
        self._kernel_fn = kernel_fn
        self.n_iter_ = it
        return self

    # -- inference ----------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluate ``f(x) = Σ β_i k(x_i, x) + b``."""
        if self.beta_ is None or self.support_x_ is None or self._kernel_fn is None:
            raise NotFittedError("SVR.predict before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.beta_.size == 0:
            return np.full(X.shape[0], self.intercept_)
        K = self._kernel_fn(X, self.support_x_)
        return K @ self.beta_ + self.intercept_

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R² on ``(X, y)``."""
        y = np.asarray(y, dtype=np.float64).ravel()
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    @property
    def n_support_(self) -> int:
        """Number of support vectors retained after training."""
        if self.beta_ is None:
            raise NotFittedError("SVR.n_support_ before fit")
        return int(self.beta_.size)
