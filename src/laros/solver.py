"""Convex solver for the rank-one submatrix relaxation.

Minimizes ||X||_* + theta*||X||_1 subject to <A, X> >= 1 by relaxed
Douglas-Rachford splitting of two operators: the nuclear norm, whose
proximal map is singular value thresholding, and the l1 term together
with the halfspace, whose proximal map is a soft threshold shifted along A
by a multiplier found as the root of a piecewise-linear function. The l1
multiplier yields an optimality certificate (a decomposition A = Y + Z
balancing the spectral and scaled-linf norms) that is checked at stopping
time and exposed to callers.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (_l1_prox, _nuclear_prox, _signed_pairs, _support_svd,
                     as_matrix, norm)


# Entries per row block of the solver's passes. A pass touches at most six
# block-sized arrays, 0.8 MB at 2^14 doubles: within a 2 MB per-core L2
# cache. The nuclear prox output adds only its factors.
_BLOCK_ENTRIES = 2 ** 14
# The root find of prox_g stops at |h - 1| <= _ROOT_TOL, at a repeated mu,
# or after _ROOT_PASSES passes.
_ROOT_TOL = 4 * np.finfo(float).eps
_ROOT_PASSES = 64
# Relaxation of the Douglas-Rachford step, z += _RELAX (x2 - x1), in
# (0, 2) (Eckstein-Bertsekas 1992). Without it (1.0) the step leaves a
# singular value of z that was above 1/rho exactly at 1/rho, so the dual
# certificate Y ends with sigma_2 tied to sigma_1 and the uniqueness
# diagnostic reads non-unique on problems whose optimal dual set has
# untied points; the overshoot of 1.3 lands strictly below the threshold.
_RELAX = 1.3
# The stopping test is read, and its sums are taken, at every multiple of
# _CHECK_EVERY and at max_iters. The certificate is checked there where the
# primal and dual residuals pass (a failing one could not stop the solve),
# and always at max_iters.
_CHECK_EVERY = 25
# rho = _PENALTY ||A||_F; the nuclear prox thresholds at 1/rho. 1.5 rather
# than 1.0: on held-out biclique draws 1.0 lost certificates that 1.5 keeps
# (README).
_PENALTY = 1.5
# The support of a solution keeps the rows and columns whose largest entry
# magnitude exceeds _SUPPORT_TOL ||X||_inf.
_SUPPORT_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested tolerances."""


class CertificateUnavailableError(RuntimeError):
    """Dual certificate requested from a non-converged solver state."""


@dataclass(frozen=True)
class SolverConfig:
    theta: float
    max_iters: int = 50000
    tol_primal: float = 1e-8      # ||x1 - x2|| / ||x2||
    tol_dual: float = 1e-8        # drift of x2 per iteration, relative
    tol_gap: float = 1e-8         # certificate residual, relative

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(
                f"theta must be finite and nonnegative, got {self.theta}")
        v = self.max_iters
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {v!r}")
        for name in ("tol_primal", "tol_dual", "tol_gap"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class DualCertificate:
    """Decomposition A = Y + Z certifying (near-)optimality.

    dual_norm is the certificate's own dual value max{||Y||, ||Z||_inf/theta};
    at optimality it equals the dual norm of A. The diagnostics spectral_gap
    (sigma_1 - sigma_2 of Y) and linf_argmax_count (multiplicity of the
    entrywise max of |Z|) indicate, without proving, whether the primal
    optimizer is unique; they default to 0, as in a certificate file
    written without them.

    These fields are the certificate file's schema (`laros.mmio`).
    """

    y: np.ndarray
    z: np.ndarray
    alpha: float
    beta: float
    dual_norm: float
    lambda_star: float
    spectral_gap: float = 0.0
    linf_argmax_count: int = 0


@dataclass
class SolverState:
    """Stopping residuals of a solve and the dual certificate built at its
    last check (the final iterate)."""

    a: np.ndarray
    theta: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    cert_residual: float
    certificate: DualCertificate
    # one dict per stopping test, in order: iteration, primal_residual,
    # dual_residual and step, ||z+ - z|| in the units of a, which relaxed
    # Douglas-Rachford keeps nonincreasing; where the test checked the
    # certificate, also cert_residual and weak_duality_slack
    history: list


@dataclass(frozen=True)
class OptimalityReport:
    """Residuals of the optimality system for a scaled candidate X.

    balance, nuclear_alignment, l1_alignment and gap are relative to the
    certificate's dual value; scalar_sum, normalization and decomposition
    are dimensionless. All small (<= tol) certifies optimality.
    """

    balance: float            # | ||Y|| - ||Z||_inf/theta |
    nuclear_alignment: float  # | <X,Y> - ||X||_* ||Y|| |
    l1_alignment: float       # | <X,Z> - ||X||_1 ||Z||_inf |
    scalar_sum: float         # | alpha + theta*beta - 1 |
    normalization: float      # | ||X||_theta - 1 |
    decomposition: float      # ||Y + Z - A||_F / ||A||_F
    gap: float                # weak-duality slack, >= 0

    @property
    def max_residual(self):
        """The largest residual; NaN if any residual is NaN."""
        residuals = (self.balance, self.nuclear_alignment, self.l1_alignment,
                     self.scalar_sum, self.normalization, self.decomposition,
                     self.gap)
        # Python's max skips a NaN that is not its first argument
        if any(map(math.isnan, residuals)):
            return math.nan
        return max(residuals)

    def passed(self, tol):
        return self.max_residual <= tol


@dataclass(frozen=True)
class RankOneParts:
    """Leading singular triple and support index sets of a matrix."""

    sigma: float
    u: np.ndarray
    v: np.ndarray
    rows: np.ndarray          # 0-based, sorted
    cols: np.ndarray
    is_rank_one: bool


@dataclass
class Solution:
    """Optimizer of the constrained problem, <A, X> = 1 normalization.

    `scaled()` returns the unit-theta-norm variant X / objective.
    """

    x: np.ndarray
    sigma: float
    u: np.ndarray
    v: np.ndarray
    support_rows: np.ndarray
    support_cols: np.ndarray
    objective: float          # ||X||_theta at the optimum
    gap: float                # certified relative duality gap
    iterations: int
    converged: bool
    non_unique: bool
    state: SolverState

    def scaled(self):
        return self.x / self.objective


def extract_rank_one(x):
    """Leading singular triple of `x` plus row/column support sets.

    Support keeps indices whose largest entry magnitude exceeds
    _SUPPORT_TOL * ||x||_inf. A zero matrix yields sigma 0 and empty sets.
    """
    xm = as_matrix(x)
    if not xm.any():
        return RankOneParts(0.0, np.zeros(xm.shape[0]), np.zeros(xm.shape[1]),
                            np.array([], dtype=int), np.array([], dtype=int),
                            False)
    return _rank_one_parts(xm, _support_svd(xm))


def _rank_one_parts(xm, factors):
    """RankOneParts of a nonzero `xm` from its thin SVD (u, s, vt) or
    `_support_svd`, with the leading pair's sign fixed so that the
    largest-magnitude component of u (the first such index on ties) is
    nonnegative."""
    u, s, vt = factors
    u0, v0 = _signed_pairs(u[:, :1], vt[:1])
    # + 0.0: the zeros off the support read 0.0 whichever sign a pair took
    u0, v0 = u0[:, 0] + 0.0, v0[0] + 0.0
    mag = np.abs(xm)
    cutoff = _SUPPORT_TOL * mag.max()
    rows = np.flatnonzero(mag.max(axis=1) > cutoff)
    cols = np.flatnonzero(mag.max(axis=0) > cutoff)
    rank_one = bool(s[0] > 0 and (s.size == 1 or s[1] <= 1e-6 * s[0]))
    return RankOneParts(float(s[0]), u0, v0, rows, cols, rank_one)


class _Check(NamedTuple):
    """Certificate pieces at one iterate, from one certificate check."""

    x_rep: np.ndarray         # candidate normalized to <A, x_rep> = 1
    fx: tuple                 # _support_svd (u, s, vt) of x_rep
    lam: float                # ||x_rep||_theta
    y: np.ndarray
    z: np.ndarray
    sy: np.ndarray            # singular values of y, nonincreasing
    dual: float               # max{||Y||, ||Z||_inf/theta}
    residual: float           # max(balance, alignment), relative

    @property
    def gap(self):
        """Relative weak-duality gap (dual - 1/lam) * lam, clipped at 0."""
        return max(0.0, self.dual - 1.0 / self.lam) * self.lam

    @property
    def spectral_gap(self):
        """sigma_1 - sigma_2 of y (sigma_1 if y has one singular value)."""
        sy = self.sy
        return float(sy[0] - sy[1]) if sy.size > 1 else float(sy[0])


def _check(a, theta, x2, g2):
    """Certificate A = Y + Z at the current iterate and its residual.

    x2 = prox_g(w) is the soft threshold of w + mu A, so <A, x2> = 1 up to
    rounding (or more, where mu = 0; solve raises instead of checking where
    the root find stopped short, at <A, x2> <= 0), and g2 =
    rho*(w + mu A - x2) is its l1 multiplier, an exact subgradient of
    theta*||.||_1 at x2. So Z = g2/objective, formed in the memory of g2,
    satisfies its norm bound
    and alignment exactly; all convergence error lands in Y. The SVD of the
    candidate, with vectors and taken on its support, also serves the
    certificate's alpha and the solution's rank-one parts.
    """
    x_rep = x2 / float(np.vdot(a, x2))
    fx = _support_svd(x_rep)
    nuc_rep = float(np.sum(fx[1]))
    lam = nuc_rep + theta * float(np.abs(x_rep).sum())  # ||x_rep||_theta
    z = np.divide(g2, lam, out=g2)
    y = a - z

    # sigma(Y) from the eigenvalues of the short-side Gram matrix, at about
    # half the cost of a square SVD and far less for a wide or tall Y. Only
    # sigma_1 and sigma_2 are read. sigma_1 comes to a few ulps; sigma_2 to
    # about eps sigma_1^2 / sigma_2, so to a few ulps of sigma_1 near a tie
    # (sigma_2 ~ sigma_1), the one place where the uniqueness test on the
    # gap sigma_1 - sigma_2 reads it closely.
    sy = np.sqrt(np.maximum(np.linalg.eigvalsh(
        y @ y.T if y.shape[0] <= y.shape[1] else y.T @ y), 0.0))[::-1]
    ny = float(sy[0])
    nz = float(np.abs(z).max())
    d_z = nz / theta if theta > 0 else ny
    scale = max(ny, d_z, 1.0 / lam)
    xs = x_rep / lam
    balance = abs(ny - nz / theta) / scale if theta > 0 else nz / scale
    align = abs(float(np.vdot(xs, y)) - nuc_rep / lam * ny) / scale
    return _Check(x_rep, fx, lam, y, z, sy, max(ny, d_z),
                  max(balance, align))


def _dual_certificate(chk, e):
    """The DualCertificate of a check run on A / 2^e, in the units of A:
    Y, Z and the dual norm scale by 2^e, in place for the check's arrays.
    alpha and beta are the nuclear and l1 norms of the scaled solution
    x_rep / lam, so alpha + theta*beta = 1 up to rounding."""
    # before |Z| is formed, so that at most two m x n temporaries coexist
    beta = float(np.abs(chk.x_rep / chk.lam).sum())
    zabs = np.abs(chk.z)
    zmax = float(zabs.max())
    ties = int(np.sum(zabs >= zmax * (1.0 - 1e-8))) if zmax > 0 else 0
    return DualCertificate(
        y=np.ldexp(chk.y, e, out=chk.y), z=np.ldexp(chk.z, e, out=chk.z),
        alpha=float(np.sum(chk.fx[1])) / chk.lam, beta=beta,
        dual_norm=math.ldexp(chk.dual, e),
        lambda_star=math.ldexp(1.0 / chk.dual, -e),
        spectral_gap=math.ldexp(chk.spectral_gap, e),
        linf_argmax_count=ties)


class _GProx:
    """prox_g for g(X) = theta*||X||_1 + indicator{<A, X> >= 1} at penalty
    rho, over row blocks of A that stay in cache.

    prox_g(w) = soft(w + mu A, t) with t = theta/rho, where mu >= 0 is the
    root of h(mu) = <A, soft(w + mu A, t)> = 1, and mu = 0 when
    h(0) >= 1. h is nondecreasing and piecewise linear in mu, with slope
    the sum of A_ij^2 over the entries above the threshold, so a Newton
    step with the slope of the current piece is exact unless an entry
    crosses its threshold. The slope is not summed: each root find starts
    from the previous iteration's mu and the secant slope of its last two
    passes, which is exact while the active set holds; later steps take
    the secant of their own last two passes and bisect where a step
    leaves the bracket. A pass writes soft(w + mu A, t) into x2 and adds
    _RELAX times it to the state, and the next pass takes that back out,
    so a pass that misses the root costs only its own time.
    """

    def __init__(self, a, t):
        m, n = a.shape
        rows = min(m, max(1, _BLOCK_ENTRIES // n))
        self.a, self.t = a, t
        self.blocks = []               # (rows, scratch, scratch)
        buf = np.empty((2, rows, n))
        for i in range(0, m, rows):
            end = min(i + rows, m)
            self.blocks.append((slice(i, end), buf[0, :end - i],
                                buf[1, :end - i]))
        self.mu = 0.0
        # the largest slope h can have, so the first step stays below
        # the root
        self.slope = float(np.vdot(a, a))

    def h(self, b, w, mu, s, out):
        """soft(w + mu A, t) of row block b into out, and its share of
        h(mu); s is scratch."""
        ab = self.a[b]
        if mu:
            w = np.add(w, np.multiply(ab, mu, out=s), out=s)
        _l1_prox(w, self.t, out=out)
        return float(np.vdot(ab, out))

    def _pass(self, w, x2, z, mu, undo):
        """x2 = soft(w + mu A, t), with _RELAX x2 added to z after taking
        out that of the previous pass (with undo); returns h(mu)."""
        h = 0.0
        for b, s, _ in self.blocks:
            xb, zb = x2[b], z[b]
            if undo:
                np.subtract(zb, np.multiply(xb, _RELAX, out=s), out=zb)
            h += self.h(b, w[b], mu, s, xb)
            np.add(zb, np.multiply(xb, _RELAX, out=s), out=zb)
        return h

    def __call__(self, w, x2, z, h):
        """Writes prox_g(w) into x2 and adds _RELAX times it to z, given
        h(self.mu), and moves self.mu to the root; returns h there."""
        mu, slope = self.mu, self.slope
        lo, hi = 0.0, math.inf         # h(lo) < 1 <= h(hi) once evaluated
        at_lo = written = False
        for _ in range(_ROOT_PASSES):
            if h < 1.0:
                lo, at_lo = mu, True
            else:
                hi = mu
            if abs(h - 1.0) <= _ROOT_TOL or (mu == 0.0 and h >= 1.0):
                nxt = mu
            else:
                nxt = max(mu + (1.0 - h) / slope, 0.0)
                if nxt != mu and not (lo < nxt < hi
                                      or (nxt == 0.0 and not at_lo)):
                    # the step left the bracket, so hi is finite: bisect,
                    # unless no float lies between the ends
                    nxt = 0.5 * (lo + hi)
                    if nxt in (lo, hi):
                        nxt = mu
            if nxt == mu and written:
                break
            h_next = self._pass(w, x2, z, nxt, written)
            written = True
            if nxt != mu:
                step = (h_next - h) / (nxt - mu)
                # on a flat piece, double the next step
                slope = step if step > 0.0 else 0.5 * slope
            mu, h = nxt, h_next
        self.mu, self.slope = mu, slope
        return h


def solve(a, config):
    """Minimize ||X||_* + theta*||X||_1 subject to <a, X> >= 1.

    Relaxed Douglas-Rachford splitting of two operators, f = ||X||_* and
    g = theta*||X||_1 + indicator{<a, X> >= 1}, on one state z:
    x1 = prox_f(z) by singular value thresholding, w = 2 x1 - z,
    x2 = prox_g(w) by a soft threshold whose halfspace multiplier is found
    by a one-dimensional root find (_GProx), and z += _RELAX (x2 - x1).
    Stops when ||x1 - x2||, the drift of x2, the certificate residual and
    the certified gap all fall below the configured tolerances. On
    non-convergence the final iterate is returned with converged=False.
    Either way the dual certificate is the one checked at the final
    iterate. Every stopping test is recorded in state.history.

    The problem is homogeneous in a: the splitting runs on a / 2^e, with e
    chosen so that ||a / 2^e||_inf lies in [0.5, 1), where ||a||_F^2 and
    the iterates neither overflow nor underflow for any scale of a. The
    scaling is exact, so X, the objective and the certificate are mapped
    back exactly on exit.
    """
    am = as_matrix(a)
    if not am.any():
        raise ValueError("input matrix must be nonzero")
    theta = config.theta
    e = int(np.frexp(np.abs(am).max())[1])
    # every work array is C-ordered whatever the layout of the input, so
    # the results are too
    a = np.ascontiguousarray(np.ldexp(am, -e))
    nf = float(np.linalg.norm(a))
    rho = _PENALTY * nf
    nuclear_prox = _nuclear_prox(a.shape)
    prox_g = _GProx(a, theta / rho)
    blocks = prox_g.blocks

    # the state z and, for the drift of x2, the last two x2
    z = a / (nf * nf)
    w = np.empty_like(a)
    x2, x2_prev = np.zeros_like(a), np.zeros_like(a)

    history = []
    converged = False
    # the loop always checks at k == max_iters and stops only right after
    # a passing check, so the last check is always of the final iterate
    for k in range(1, config.max_iters + 1):
        left, right = nuclear_prox(z, 1.0 / rho)
        x2, x2_prev = x2_prev, x2
        # per row block: x1 = left @ right, w = 2 x1 - z, z -= _RELAX x1,
        # and h at the previous root, the first value of the root find
        h = 0.0
        for b, s, x1 in blocks:
            zb, wb = z[b], w[b]
            np.dot(left[b], right, out=x1)
            np.subtract(zb, x1, out=zb)
            np.subtract(x1, zb, out=wb)
            np.subtract(zb, np.multiply(x1, _RELAX - 1.0, out=x1), out=zb)
            h += prox_g.h(b, wb, prox_g.mu, s, x1)
        if not math.isfinite(h):
            # the kernels do not validate; a non-finite entry of x1 reaches
            # h through w, also where A is zero (0 * NaN and 0 * inf are
            # NaN)
            raise ValueError(f"solver iterate is not finite at iteration {k}")
        h = prox_g(w, x2, z, h)
        if k % _CHECK_EVERY and k != config.max_iters:
            continue
        # x1 formed again as in the first pass, so that x2 - x1 is not
        # read off z, where it would cancel against z's larger entries
        rr = ss = nn = 0.0
        for b, s, x1 in blocks:
            xb = x2[b]
            np.subtract(xb, np.dot(left[b], right, out=x1), out=s)
            rr += float(np.vdot(s, s))
            np.subtract(xb, x2_prev[b], out=s)
            ss += float(np.vdot(s, s))
            nn += float(np.vdot(xb, xb))
        r = math.sqrt(rr)
        scale = max(math.sqrt(nn), 1e-300)
        r_rel = r / scale
        s_rel = math.sqrt(ss) / scale
        # the step ||z+ - z|| = _RELAX ||x2 - x1|| in the units of am: X
        # scales by 2^-e
        entry = {"iteration": k, "primal_residual": r_rel,
                 "dual_residual": s_rel, "step": math.ldexp(_RELAX * r, -e)}
        history.append(entry)
        can_stop = r_rel <= config.tol_primal and s_rel <= config.tol_dual
        if not (can_stop or k == config.max_iters):
            continue
        if h <= 0.0:
            # the root find stopped on the flat piece h = 0 below the first
            # breakpoint (out of passes, or at a step below one ulp of mu):
            # at a large theta that breakpoint lies beyond its reach
            raise ValueError(
                f"theta={theta} is too large for this matrix: at iteration "
                f"{k} the halfspace multiplier search ended at <A, X> = {h}")
        # the l1 multiplier rho (w + mu A - x2) of the loop's own x2
        g2 = np.multiply(a, prox_g.mu)
        g2 += w
        g2 -= x2
        chk = _check(a, theta, x2, np.multiply(g2, rho, out=g2))
        # dual - 1/lam in the units of am: the dual scales by 2^e
        entry.update(cert_residual=chk.residual,
                     weak_duality_slack=math.ldexp(chk.dual - 1.0 / chk.lam,
                                                   e))
        if can_stop and max(chk.residual, chk.gap) <= config.tol_gap:
            converged = True
            break

    cert = _dual_certificate(chk, e)
    lam = chk.lam
    parts = _rank_one_parts(chk.x_rep, chk.fx)
    unique_spectral = chk.spectral_gap > 1e-8 * max(float(chk.sy[0]), 1e-300)
    unique_linf = theta > 0 and cert.linf_argmax_count == 1
    state = SolverState(a=am, theta=theta, iterations=k,
                        converged=converged, primal_residual=r_rel,
                        dual_residual=s_rel, cert_residual=chk.residual,
                        certificate=cert, history=history)
    return Solution(x=np.ldexp(chk.x_rep, -e, out=chk.x_rep),
                    sigma=math.ldexp(parts.sigma, -e), u=parts.u, v=parts.v,
                    support_rows=parts.rows, support_cols=parts.cols,
                    objective=math.ldexp(lam, -e), gap=chk.gap, iterations=k,
                    converged=converged,
                    non_unique=not (unique_spectral or unique_linf),
                    state=state)


def recover_dual(a, theta, state):
    """Dual certificate (Y, Z, alpha, beta) of a converged solve.

    Returns the certificate built at the solve's last check, without new
    computation. Y + Z = a holds exactly by construction; alpha and beta
    are the nuclear and l1 norms of the scaled solution, so
    alpha + theta*beta = 1.
    """
    am = as_matrix(a)
    if not state.converged:
        raise CertificateUnavailableError(
            "certificate requires a converged solve "
            f"(stopped after {state.iterations} iterations)")
    if am.shape != state.a.shape or theta != state.theta:
        raise ValueError("state does not match the given problem")
    return state.certificate


def check_optimality(a, theta, x, cert):
    """Residual report for a scaled candidate `x` (theta-norm 1) and its
    certificate. Report-only: never raises on violated conditions.

    Conditions: (balance) the certificate's two norms agree; (alignment)
    x lies in the scaled subdifferentials of ||Y|| and ||Z||_inf; (scalars)
    alpha + theta*beta = 1; (normalization) ||x||_theta = 1. At theta = 0
    the balance residual degenerates to ||Z||_inf, which must vanish.
    Raises ValueError when x, cert.y or cert.z is not of a's shape.
    """
    am = as_matrix(a)
    xm = as_matrix(x)
    y, z = as_matrix(cert.y), as_matrix(cert.z)
    for name, value in (("x", xm), ("cert.y", y), ("cert.z", z)):
        if value.shape != am.shape:
            raise ValueError(f"{name} has shape {value.shape}, expected "
                             f"{am.shape} (the shape of a)")
    ny = norm(y, "spectral")
    nz = norm(z, "linf")
    d_z = nz / theta if theta > 0 else ny
    scale = max(ny, d_z, 1e-300)
    balance = abs(ny - nz / theta) / scale if theta > 0 else nz / scale
    nuc_x = norm(xm, "nuclear")
    l1_x = norm(xm, "l1")
    nuclear_alignment = abs(float(np.vdot(xm, y)) - nuc_x * ny) / scale
    l1_alignment = abs(float(np.vdot(xm, z)) - l1_x * nz) / scale
    scalar_sum = abs(cert.alpha + theta * cert.beta - 1.0)
    normalization = abs(nuc_x + theta * l1_x - 1.0)
    decomposition = float(np.linalg.norm(y + z - am)) / max(
        float(np.linalg.norm(am)), 1e-300)
    gap = max(0.0, max(ny, d_z) - float(np.vdot(am, xm))) / scale
    return OptimalityReport(balance=balance,
                            nuclear_alignment=nuclear_alignment,
                            l1_alignment=l1_alignment,
                            scalar_sum=scalar_sum,
                            normalization=normalization,
                            decomposition=decomposition,
                            gap=gap)


def dual_theta_norm(a, theta):
    """Dual of the theta-norm at `a`: the reciprocal of the optimal value
    of the constrained problem, computed by running the solver at the
    default SolverConfig.

    Equals min over Y+Z=a of max{||Y||, ||Z||_inf/theta} (for theta > 0).
    """
    am = as_matrix(a)
    if not am.any():
        raise ValueError("dual norm undefined at the zero matrix")
    sol = solve(am, SolverConfig(theta=theta))
    if not sol.converged:
        raise ConvergenceError(
            f"dual norm solve did not converge in {sol.iterations} iterations")
    return 1.0 / sol.objective
