"""Dense matrix primitives: the four norms, the composite theta-norm, and
the proximal operators of the nuclear and entrywise l1 norms. The
spectral norm, and the certificate's singular values in the solver, come
from the eigenvalues of the short-side Gram matrix
(`_gram_singular_values`), not from an SVD."""

import math

import numpy as np

NORM_KINDS = ("nuclear", "spectral", "l1", "linf")


def as_matrix(a):
    """Validate and return a 2-D float64 array.

    Raises ValueError on wrong dimensionality, empty axes, or non-finite
    entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix axes must be positive, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def norm(a, kind):
    """Matrix norm of `a`: one of 'nuclear', 'spectral', 'l1', 'linf'.

    l1 and linf are entrywise (applied to the vectorized matrix). spectral
    is `_gram_singular_values` of a / 2^e (`_scale_exponent`), scaled back
    by 2^e: the scaling is exact, and the Gram matrix neither overflows nor
    underflows for any finite scale of a. A norm beyond the float range
    reads inf.
    """
    m = as_matrix(a)
    if kind == "nuclear":
        return float(np.sum(_support_svd(m, compute_uv=False)))
    if kind == "spectral":
        e = _scale_exponent(m)
        s = float(_gram_singular_values(np.ldexp(m, -e))[0])
        try:
            return math.ldexp(s, e)
        except OverflowError:
            return math.inf
    if kind == "l1":
        return float(np.abs(m).sum())
    if kind == "linf":
        return float(np.abs(m).max())
    raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")


def _check_theta(theta):
    """Raise ValueError unless theta is finite and nonnegative."""
    # written so that NaN fails too
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")


def theta_norm(a, theta):
    """Composite norm: nuclear norm plus theta times the entrywise l1 norm."""
    _check_theta(theta)
    m = as_matrix(a)
    return norm(m, "nuclear") + theta * norm(m, "l1")


def svt(a, tau):
    """Singular value thresholding: shrink each singular value by tau.

    This is the proximal map of the nuclear norm, i.e. the unique minimizer
    of tau*||X||_* + 0.5*||X - a||_F^2.
    """
    if not tau >= 0.0:  # NaN fails too; tau = inf gives the zero matrix
        raise ValueError(f"tau must be nonnegative, got {tau}")
    u, s, vt = np.linalg.svd(as_matrix(a), full_matrices=False)
    left, right = _factors(u, s, vt, tau)
    return left @ right


def soft_threshold(a, tau):
    """Entrywise soft thresholding sgn(x)*max(|x|-tau, 0).

    Proximal map of the entrywise l1 norm. A thresholded entry reads +0.0
    whatever its sign.
    """
    if not tau >= 0.0:  # NaN fails too; tau = inf gives the zero matrix
        raise ValueError(f"tau must be nonnegative, got {tau}")
    m = as_matrix(a)
    return _l1_prox(m, tau, out=np.empty_like(m))


# Unchecked kernels for callers that validated their input once: `m` is a
# finite 2-D float array and tau >= 0.

def _svt(m, tau):
    """svt as factors (see _factors), from the eigendecomposition of the
    short-side Gram matrix g: m^T m (eigenvectors V) for tall or square
    m, m m^T (eigenvectors U) for wide m. The kept eigenvalues
    lambda = s^2 > tau^2 give L = (m V_r)(1 - tau/s_r), R = V_r^T, or
    L = U_r (s_r - tau), R = U_r^T m / s_r.

    Rounding in g moves each lambda by about eps * sigma_1^2, so a kept s
    near tau moves by about eps * sigma_1^2 / (2 tau), and the output is
    within O(eps * sigma_1^2 / tau) of svt (the full SVD's is O(eps *
    sigma_1)). As svt is a Lipschitz function of g, clustered singular
    values cost no accuracy. In solves at solver._PENALTY (1.5) sigma_1 /
    tau stayed below 7, and each call matched the SVD's output to 1e-14
    relative (1.2e-11 with solver._PENALTY patched to 1e6, where
    sigma_1 / tau nears 9e5).
    """
    wide = m.shape[0] < m.shape[1]
    lam, w = np.linalg.eigh(m @ m.T if wide else m.T @ m)
    # lam ascends: the kept ones are its top slice, reversed
    k = int(lam.searchsorted(tau * tau, "right"))
    s = np.sqrt(lam[k:][::-1])
    vt = w.T[k:][::-1].copy()  # C-ordered rows: U_r^T or V_r^T
    if wide:
        return vt.T * (s - tau), (vt @ m) / s[:, None]
    left = m @ vt.T
    left *= 1.0 - tau / s
    return left, vt


def _scale_exponent(m):
    """e with ||m / 2^e||_inf in [0.5, 1) (0 for a zero m): an exact scaling
    after which sums of squares neither overflow nor underflow."""
    return int(np.frexp(np.abs(m).max())[1])


def _gram_singular_values(m):
    """The singular values of `m`, nonincreasing, from the eigenvalues of
    the short-side Gram matrix (m m^T for wide m, m^T m otherwise): about
    half the cost of a square SVD's values and far less for a wide or tall
    m. sigma_1 comes to a few ulps; sigma_i to about eps sigma_1^2 /
    sigma_i, so to a few ulps of sigma_1 near a tie (sigma_i ~ sigma_1).
    The Gram matrix squares the entries: the caller keeps them in a range
    where that neither overflows nor underflows."""
    g = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    return np.sqrt(np.maximum(np.linalg.eigvalsh(g), 0.0))[::-1]


def _factors(u, s, vt, tau):
    """svt from the thin SVD (u, s, vt) with s nonincreasing, as factors
    (L, R) = (u_r diag(s_r - tau), vt_r) of L @ R, where r = count(s > tau)
    may be 0; R is C-ordered."""
    r = int(np.count_nonzero(s > tau))
    return u[:, :r] * (s[:r] - tau), np.ascontiguousarray(vt[:r])


def _support_svd(m, compute_uv=True):
    """np.linalg.svd(m, full_matrices=False) taken on the nonzero rows and
    columns of `m` only: a sparse candidate costs the SVD of its support.

    Returns the k = min(support rows, support cols) singular values (the
    others are zero), with compute_uv the vectors too, zero off the
    support: u is m x k and vt is k x n.
    """
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    if rows.size == m.shape[0] and cols.size == m.shape[1]:
        return np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    if rows.size == 0:
        s = np.zeros(0)
        return (np.zeros((m.shape[0], 0)), s, np.zeros((0, m.shape[1]))) \
            if compute_uv else s
    sub = m[np.ix_(rows, cols)]
    if not compute_uv:
        return np.linalg.svd(sub, compute_uv=False)
    u_sub, s, vt_sub = np.linalg.svd(sub, full_matrices=False)
    u = np.zeros((m.shape[0], s.size))
    u[rows] = u_sub
    vt = np.zeros((s.size, m.shape[1]))
    vt[:, cols] = vt_sub
    return u, s, vt


def _l1_prox(m, tau, out):
    """The soft threshold sgn(m) * max(|m| - tau, 0) of `m` written into
    `out` (not `m`) as m - min(max(m, -tau), tau): three ufuncs against
    five, without the slow np.sign (or np.clip's Python wrapper). A
    thresholded entry reads +0.0 whatever its sign. `m` is left intact."""
    np.maximum(m, -tau, out=out)
    np.minimum(out, tau, out=out)
    return np.subtract(m, out, out=out)


# Below this min(m, n) the Gram kernel _svt costs less than the subspace
# iteration of _WarmSvt, and _nuclear_prox uses it. Measured on planted
# biclique solves (8 seeds each, one BLAS thread, same iterations): at
# 60 x 60 _svt was 1.2x faster per solve, at 80 x 80 the subspace
# iteration was 1.3x faster.
_PARTIAL_SVT_MIN_DIM = 80
# Block columns beyond the previous rank. Extra columns speed convergence
# only when the spectrum decays past the block, and the thin products cost
# far more at 5-7 columns than at 1-4 (OpenBLAS 0.3.31, one thread, Xeon:
# 480 x 480 @ 480 x k took 34/40/71/59 us at k = 1-4, 178/185/233 us at
# k = 5-7). Two keep one probe column beyond the next Ritz value.
_OVERSAMPLE = 2
_SWEEPS = 12           # subspace sweeps per call before the LAPACK fallback
# Kept triplets: ||m v - s u|| <= ULPS (sqrt(m) + sqrt(n) + k) eps sigma_1
# for an m x n input and a block of k columns. A length-p product rounds
# to about sqrt(p) eps times the norms of its factors (the probabilistic
# bound of Higham-Mary 2019), so each term is one product's floor: m v has
# n-long products, q^T m m-long ones (their error moves the Ritz vectors),
# and u = q w with the QR of the block about k each. On an exactly
# rank-one iterate the block m V is numerically rank one and the floor
# nears these terms (OpenBLAS 0.3.31, one thread, planted iterates at
# c3 = 0): at 480 x 480 it read up to 17 eps sigma_1 (the terms sum to 47),
# at 2400 x 80 up to 67 (61). A bound of 4 k ulps sat below it there, so
# the sweeps ran out and fell back to LAPACK.
_RESIDUAL_ULPS = 2


def _nuclear_prox(shape):
    """The nuclear prox for a sequence of nearby matrices of one shape:
    `_svt` below the crossover dimension, else a fresh `_WarmSvt`."""
    if min(shape) < _PARTIAL_SVT_MIN_DIM:
        return _svt
    return _WarmSvt(shape)


class _WarmSvt:
    """svt for a sequence of nearby matrices, by warm-started block
    subspace iteration (Halko-Martinsson-Tropp 2011) that finds only the
    singular triplets above tau, returned as factors (see _factors).

    Each call starts from a block of k = previous rank + _OVERSAMPLE
    columns, C-ordered so that every thin product m @ v takes BLAS's fast
    path: the previous call's leading right Ritz vectors and, as its last
    column, a fresh random one. The acceptance test below bounds only the
    Ritz pairs inside the block, so without the fresh column a call whose
    rank held steady could not see a new direction orthogonal to the
    block on both sides. A sweep orthonormalizes
    Q = orth(m V), takes the Ritz triplets from the SVD of the small tall
    n x k matrix m^T Q (about twice as fast as that of the wide Q^T m), and
    measures each residual ||m v - s u|| (m^T u = s v holds by
    construction). The call returns when every kept triplet
    (s > tau) has a residual within a small multiple of the rounding
    floor of the sweep's products (_RESIDUAL_ULPS) and the next Ritz value
    plus its residual is at most tau. Ritz values bound the singular
    values from below, so if every Ritz value exceeds tau the block is too
    narrow to hold the output. Such a call, one whose
    block would reach min(m, n)/4, and one that runs out of sweeps use the
    full SVD, and the next call starts warm at the new rank. Random
    columns come from a generator seeded per instance, so a solve is
    reproducible.
    """

    def __init__(self, shape):
        self.n = shape[1]
        self.cap = min(shape) / 4
        self.floor = math.sqrt(shape[0]) + math.sqrt(shape[1])
        self.rng = np.random.default_rng(0)
        self.basis = np.empty((self.n, 0))  # previous right Ritz vectors
        self.rank = 0                       # previous output rank

    def __call__(self, m, tau):
        k = self.rank + _OVERSAMPLE
        if k < self.cap:
            fresh = self.rng.standard_normal((self.n, k - self.basis.shape[1]))
            y = m @ np.hstack([self.basis, fresh])
            tol = _RESIDUAL_ULPS * (self.floor + k) * np.finfo(float).eps
            for _ in range(_SWEEPS):
                q = np.linalg.qr(y)[0]
                # m^T q as the transpose of the faster product q^T m
                v, s, wt = np.linalg.svd((q.T @ m).T, full_matrices=False)
                u = q @ wt.T
                y = m @ v
                res = np.linalg.norm(y - u * s, axis=0)
                r = int(np.count_nonzero(s > tau))
                if r == k:
                    break
                if (res[:r].max(initial=0.0) <= tol * s[0]
                        and s[r] + res[r] <= tau):
                    self._keep(v.T, r)
                    return _factors(u, s, v.T, tau)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        out = _factors(u, s, vt, tau)
        self._keep(vt, out[0].shape[1])
        return out

    def _keep(self, vt, rank):
        """Keep the rank and, as the next call's block less its fresh
        column, the leading rank + _OVERSAMPLE - 1 right vectors (rows of
        vt), C-ordered."""
        self.rank = rank
        self.basis = np.ascontiguousarray(vt[:rank + _OVERSAMPLE - 1].T)
