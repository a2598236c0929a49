"""Dense matrix primitives: SVD with a fixed sign convention, the four norms,
the composite theta-norm, proximal operators, and canonical subgradients."""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SvdFactors:
    """Full singular value decomposition with a deterministic sign convention.

    singular_values are nonincreasing; left_vectors and right_vectors have
    orthonormal columns; in each left vector the component of largest
    magnitude (first such index on ties) is nonnegative.
    """

    singular_values: np.ndarray  # (k,), k = min(m, n)
    left_vectors: np.ndarray     # (m, k)
    right_vectors: np.ndarray    # (n, k)

    def reconstruct(self):
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


def svd(a):
    """Compute the full thin SVD of `a` as SvdFactors.

    The sign of each singular pair is fixed so the largest-magnitude
    component of the left vector is nonnegative, making output reproducible
    across backends.
    """
    u, s, vt = np.linalg.svd(as_matrix(a), full_matrices=False)
    u, vt = _signed_pairs(u, vt)
    return SvdFactors(singular_values=s, left_vectors=u, right_vectors=vt.T)


def _signed_pairs(u, vt):
    """Copies of the pairs (columns of u, rows of vt), each negated where
    the largest-magnitude component of its left vector (the first such
    index on ties) is negative."""
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    sign = np.where(top < 0, -1.0, 1.0)
    return u * sign, vt * sign[:, None]


def norm(a, kind):
    """Matrix norm of `a`: one of 'nuclear', 'spectral', 'l1', 'linf'.

    l1 and linf are entrywise (applied to the vectorized matrix).
    """
    m = as_matrix(a)
    if kind == "nuclear":
        return float(np.sum(_support_svd(m, compute_uv=False)))
    if kind == "spectral":
        return float(np.linalg.svd(m, compute_uv=False)[0])
    if kind == "l1":
        return float(np.abs(m).sum())
    if kind == "linf":
        return float(np.abs(m).max())
    raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")


def theta_norm(a, theta):
    """Composite norm: nuclear norm plus theta times the entrywise l1 norm."""
    # written so that NaN fails too
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    m = as_matrix(a)
    return norm(m, "nuclear") + theta * norm(m, "l1")


def svt(a, tau):
    """Singular value thresholding: shrink each singular value by tau.

    This is the proximal map of the nuclear norm, i.e. the unique minimizer
    of tau*||X||_* + 0.5*||X - a||_F^2.
    """
    if not tau >= 0.0:  # NaN fails too; tau = inf gives the zero matrix
        raise ValueError(f"tau must be nonnegative, got {tau}")
    left, right = _svt(as_matrix(a), tau)
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
    """svt by a full LAPACK SVD, as factors (see _factors)."""
    return _factors(*np.linalg.svd(m, full_matrices=False), tau)


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


# Below this min(m, n) a full SVD costs no more than the subspace iteration
# of _WarmSvt, and _nuclear_prox keeps the full SVD. Measured on planted
# biclique solves (one BLAS thread): at 60 x 60 the full SVD was 1.1x
# faster, at 80 x 80 the subspace iteration was 1.6x faster.
_PARTIAL_SVT_MIN_DIM = 80
# Block columns beyond the previous rank. Extra columns speed convergence
# only when the spectrum decays past the block, and the thin products cost
# far more at 5-7 columns than at 1-4 (OpenBLAS 0.3.31, one thread, Xeon:
# 480 x 480 @ 480 x k took 34/40/71/59 us at k = 1-4, 178/185/233 us at
# k = 5-7). Two keep one probe column beyond the next Ritz value.
_OVERSAMPLE = 2
_RANK_STEP = 5         # block growth: the rank increment of Cai-Candes-Shen
_SWEEPS = 12           # subspace sweeps per call before the LAPACK fallback
_RESIDUAL_ULPS = 4     # kept triplets: ||m v - s u|| <= ULPS*k*eps*sigma_1


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
    (s > tau) has a residual of a few ulps of sigma_1 per block column
    (rounding in the k-column products sets a floor that grows with k) and
    the next Ritz value plus its residual is at most tau. If every Ritz
    value exceeds tau, the block grows by _RANK_STEP random columns
    (Cai-Candes-Shen 2010): the oversampling keeps the common call, whose
    rank has not moved, on narrow products, and the growth lets a rising
    rank be caught within the sweep budget. A call whose block reaches
    min(m, n)/4, or that runs out of sweeps, uses the full SVD. Random
    columns come from a generator seeded per instance, so a solve is
    reproducible.
    """

    def __init__(self, shape):
        self.n = shape[1]
        self.cap = min(shape) / 4
        self.rng = np.random.default_rng(0)
        self.basis = np.empty((self.n, 0))  # previous right Ritz vectors
        self.rank = 0                       # previous output rank

    def _columns(self, count):
        return self.rng.standard_normal((self.n, count))

    def __call__(self, m, tau):
        k = self.rank + _OVERSAMPLE
        v = np.hstack([self.basis, self._columns(k - self.basis.shape[1])])
        y = m @ v
        eps = np.finfo(float).eps
        for _ in range(_SWEEPS):
            if k >= self.cap:
                break
            q = np.linalg.qr(y)[0]
            # m^T q as the transpose of the faster product q^T m
            v, s, wt = np.linalg.svd((q.T @ m).T, full_matrices=False)
            u = q @ wt.T
            y = m @ v
            res = np.linalg.norm(y - u * s, axis=0)
            r = int(np.count_nonzero(s > tau))
            if r == k:
                y = np.hstack([y, m @ self._columns(_RANK_STEP)])
                k += _RANK_STEP
                continue
            if res[:r].max(initial=0.0) <= _RESIDUAL_ULPS * k * eps * s[0] \
                    and s[r] + res[r] <= tau:
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


def project_halfspace(x, a, level):
    """Project `x` onto the halfspace {X : <a, X> >= level}.

    Closed form: x itself if feasible, else x + ((level - <a,x>)/||a||_F^2)*a.
    """
    xm = as_matrix(x)
    am = as_matrix(a)
    if xm.shape != am.shape:
        raise ValueError(f"shape mismatch {xm.shape} vs {am.shape}")
    nf2 = float(np.vdot(am, am))
    if nf2 == 0.0:
        raise ValueError("degenerate constraint: a must be nonzero")
    g = float(np.vdot(am, xm))
    if g >= level:
        return xm.copy()
    return xm + ((level - g) / nf2) * am


def spectral_subgrad(a):
    """A canonical element of the spectral norm subdifferential at `a`.

    Returns u1 v1^T from the leading singular pair (sign convention applied);
    satisfies <a, result> = sigma_1(a) and has unit spectral norm.
    """
    m = as_matrix(a)
    if not m.any():
        raise ValueError("spectral subgradient undefined at the zero matrix")
    f = svd(m)
    return np.outer(f.left_vectors[:, 0], f.right_vectors[:, 0])


def linf_subgrad(a):
    """A canonical element of the entrywise linf norm subdifferential at `a`.

    Returns (sgn(a_ij) * E_ij, i, j) at the lexicographically smallest
    argmax of |a|; indices are 0-based.
    """
    m = as_matrix(a)
    if not m.any():
        raise ValueError("linf subgradient undefined at the zero matrix")
    flat = int(np.argmax(np.abs(m)))  # row-major argmax = lexicographic tie-break
    i, j = divmod(flat, m.shape[1])
    g = np.zeros_like(m)
    g[i, j] = 1.0 if m[i, j] >= 0 else -1.0
    return g, i, j
