"""Differential oracle for :meth:`repro.ml.svr.SVR.fit`.

``_SeedSVR.fit`` is the SMO solver as it stood when every iteration
rebuilt ``-s*grad``, both working-set masks and two fancy-indexed
kernel columns, copied verbatim (only the names changed).  The current
solver must reach the same model bit for bit: the same coefficients,
support set, intercept and iteration count.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import _shared as shared
from repro.bench.runner import BenchConfig
from repro.errors import ConvergenceWarning, ModelError
from repro.ml.scaler import StandardScaler
from repro.ml.svr import SVR
from repro.tuning import training


class _SeedSVR(SVR):
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
        grad = p.copy()  # Qα = 0 at start
        idx = np.arange(m2) % n  # map doubled index -> sample

        # Bound slack: alphas within eps of a bound are treated as *at*
        # the bound (and snapped there), so float drift cannot leave a
        # variable in a working set with no room to move — without this
        # the solver can cycle forever on rank-deficient (e.g. linear)
        # kernels.
        eps = 1e-12 * max(c, 1.0)
        it = 0
        for it in range(1, self.max_iter + 1):
            # WSS1: maximal violating pair over -s*grad.
            f = -s * grad
            up_mask = ((s > 0) & (alpha < c - eps)) | ((s < 0) & (alpha > eps))
            low_mask = ((s > 0) & (alpha > eps)) | ((s < 0) & (alpha < c - eps))
            if not up_mask.any() or not low_mask.any():
                break
            fi = np.where(up_mask, f, -np.inf)
            fj = np.where(low_mask, f, np.inf)
            i = int(np.argmax(fi))
            j = int(np.argmin(fj))
            if fi[i] - fj[j] < tol:
                break
            # Analytic 2-variable step along the equality constraint.
            # The feasible direction is u = s_i e_i - s_j e_j; its
            # curvature u'Qu = K_ii + K_jj - 2 K_ij for every sign
            # combination (the s factors square away).
            Ki = s * s[i] * K[idx, idx[i]]
            Kj = s * s[j] * K[idx, idx[j]]
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
            dai = s[i] * d
            daj = -s[j] * d
            alpha[i] += dai
            alpha[j] += daj
            np.clip(alpha, 0.0, c, out=alpha)
            alpha[alpha < eps] = 0.0
            alpha[alpha > c - eps] = c
            grad += Ki * dai + Kj * daj
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
        f = -s * grad
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


def _fit_both(X, y, **params):
    """Fit the seed and the current solver; return both, with the
    convergence warnings each raised."""
    fitted = []
    for cls in (_SeedSVR, SVR):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = cls(**params).fit(X, y)
        warned = [w for w in caught if w.category is ConvergenceWarning]
        fitted.append((model, [str(w.message) for w in warned]))
    return fitted


def assert_matches_seed(X, y, **params):
    (want, want_warn), (got, got_warn) = _fit_both(X, y, **params)
    assert got.n_iter_ == want.n_iter_
    assert got.intercept_ == want.intercept_
    assert np.array_equal(got.beta_, want.beta_)
    assert np.array_equal(got.support_x_, want.support_x_)
    assert got_warn == want_warn
    assert np.array_equal(got.predict(X), want.predict(X))
    return got


@st.composite
def regression_problem(draw):
    """A small noisy linear problem and the solver settings to fit it."""
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    X = rng.uniform(-1, 1, size=(n, d))
    y = X @ rng.normal(size=d) + rng.normal(0, 0.05, n)
    params = dict(
        c=draw(st.floats(min_value=0.5, max_value=50.0)),
        epsilon=draw(st.sampled_from([0.0, 0.05, 0.5])),
        kernel=draw(st.sampled_from(["rbf", "linear", "poly"])),
        gamma=1.0,
        max_iter=2_000,
    )
    return X, y, params


class TestSeedOracle:
    @settings(max_examples=30, deadline=None)
    @given(regression_problem())
    def test_random_problems(self, problem):
        X, y, params = problem
        assert_matches_seed(X, y, **params)

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernels(self, kernel, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = np.sin(X @ np.array([1.0, -2.0, 0.5])) + rng.normal(0, 0.05, 40)
        model = assert_matches_seed(X, y, c=1.0, epsilon=0.05, kernel=kernel)
        assert model.n_iter_ > 1

    @pytest.mark.parametrize("max_iter", [1, 5, 37])
    def test_max_iter_stop(self, max_iter):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        model = assert_matches_seed(
            X, y, c=100.0, epsilon=0.0, max_iter=max_iter
        )
        assert model.n_iter_ == max_iter

    def test_rank_deficient_linear(self):
        """Duplicate samples make the linear Gram singular: the bound
        snapping is what keeps SMO from cycling here."""
        rng = np.random.default_rng(5)
        X = np.repeat(rng.uniform(-1, 1, size=(20, 2)), 3, axis=0)
        y = X @ np.array([0.5, -1.0])
        assert_matches_seed(X, y, c=5.0, epsilon=0.01, kernel="linear")

    def test_callable_asymmetric_kernel(self):
        """A Gram that is not bitwise symmetric is read as stored."""
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(40, 2))
        y = X[:, 0] ** 2 - X[:, 1]

        def kernel(A, B):
            d = A[:, None, :] - B[None, :, :]
            return np.exp(-(d * d).sum(-1)) + 1e-3 * (A[:, :1] - B[:, 0])

        assert_matches_seed(X, y, c=20.0, epsilon=0.02, kernel=kernel)

    def test_constant_target(self):
        X = np.arange(10, dtype=float)[:, None]
        assert_matches_seed(X, np.full(10, 3.0), c=10.0, epsilon=0.01)

    def test_scale12_corpus(self):
        """The switching-point corpus at base scale 12, seed 0, as the
        Algorithm 3 predictor sees it: both targets, its
        hyper-parameters."""
        corpus = training.build_training_set(
            shared.corpus_graphs(BenchConfig(base_scale=12, seeds=(0,))),
            shared.corpus_arch_pairs(),
            seed=0,
        )
        X, log_m, log_n = corpus.as_arrays()
        Xs = StandardScaler().fit_transform(X)
        for y in (log_m, log_n):
            model = assert_matches_seed(Xs, y, c=30.0, epsilon=0.05)
            assert model.n_iter_ > 1000
