"""Reference values for the benchmark's output checks, computed without gexr.

Every function takes plain numbers read from a preset's configuration
(grids, thresholds, correlation parameters) and returns what the estimator
should find, using numpy and scipy only.  The derivations are summarised in
bench/README.md; bench/test_refs.py checks each one against a second method.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, sparse, special

SQRT2 = math.sqrt(2.0)


def reflection_sup_exp(S: float) -> float:
    """E sup_{t in [0, S]} exp(sqrt2 B(t) - t) for a standard Brownian motion B.

    For Y(t) = sqrt2 B(t) - t the reflection principle of drifted Brownian
    motion gives P(sup Y > m) = Psi((m + S)/r) + e^{-m} Psi((m - S)/r) with
    r = sqrt(2 S).  Integrating E e^{sup Y} = 1 + int_0^inf e^m P(sup Y > m) dm
    in closed form: (S + 2) Phi(x) + r phi(x) with x = sqrt(S / 2).
    """
    x = math.sqrt(S / 2.0)
    phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float((S + 2.0) * special.ndtr(x) + math.sqrt(2.0 * S) * phi)


def random_walk_sup_exp(n: int, step: float) -> float:
    """E max_{0 <= k <= n} exp(sqrt2 B(k step) - k step), exactly.

    The grid values form a random walk S_k with N(-step, 2 step) steps.
    Spitzer's identity for M_n = max(0, S_1, ..., S_n) reads
    sum_n t^n E e^{M_n} = exp(sum_k t^k / k E e^{S_k^+}), and here
    E e^{S_k^+} = P(S_k <= 0) + E[e^{S_k}; S_k > 0] = 2 Phi(sqrt(k step / 2)).
    Matching coefficients: n b_n = sum_{k=1}^n a_k b_{n-k}, b_0 = 1.
    """
    a = 2.0 * special.ndtr(np.sqrt(np.arange(1, n + 1) * step / 2.0))
    b = np.empty(n + 1)
    b[0] = 1.0
    for m in range(1, n + 1):
        b[m] = a[:m] @ b[m - 1 :: -1] / m
    return float(b[n])


def markov_exceedance(
    rhos, barriers, cells_per_sd: float = 8.0, depth: float | None = None
) -> float:
    """P(Z_i > b_i for some i) for a unit-variance Gauss-Markov chain.

    Z_0 ~ N(0, 1) and Z_{i+1} = rho_i Z_i + sqrt(1 - rho_i^2) eps_i, so
    ``rhos`` has one entry fewer than ``barriers``.  The sub-probability law
    of Z_i on {Z_0 <= b_0, ..., Z_i <= b_i} is carried on cells of depth
    y = b_i - Z_i: ``depth / h`` cells of width h aligned with the barrier
    (h = smallest step deviation / ``cells_per_sd``) and one open cell below
    them.  The default depth reaches from the highest barrier to two units
    below zero, so the open cell, whose mass sits near its top, is too far
    down to cross.  Each cell's mass sits at its midpoint; the mass crossing the
    barrier in a step, and the mass each cell receives, are exact Gaussian
    integrals from those point masses.  The error is O(h^2).
    """
    rhos = np.asarray(rhos, dtype=float)
    b = np.asarray(barriers, dtype=float)
    if len(rhos) != len(b) - 1:
        raise ValueError("need one correlation per step between barriers")
    if np.any(rhos < 0) or np.any(rhos >= 1):
        raise ValueError("step correlations must lie in [0, 1)")
    sds = np.sqrt(1.0 - rhos**2)
    if depth is None:
        depth = max(5.0, float(b.max()) + 2.0)
    h = float(sds.min()) / cells_per_sd if len(sds) else depth
    n = int(math.ceil(depth / h))
    edges = np.append(np.arange(n) * h, np.inf)
    mid = (np.arange(n) + 0.5) * h
    mass = special.ndtr(b[0] - edges[:-1]) - special.ndtr(b[0] - edges[1:])
    p = float(special.ndtr(-b[0]))
    last = step = None
    for i, rho in enumerate(rhos):
        s = float(sds[i])
        c = (b[i + 1] - rho * b[i]) + rho * mid  # mean depth after the step
        p += float(mass @ special.ndtr(-c / s))
        key = (rho, b[i + 1] - rho * b[i])
        if key != last:
            cells, prob = _transition(c, s, h, n)
            step = None
            last = key
        elif step is None:  # the same step again: worth a sparse matrix
            width = cells.shape[1]
            rows = sparse.csr_matrix(
                (prob.ravel(), cells.ravel(), np.arange(0, n * width + 1, width)),
                shape=(n, n),
            )
            step = rows.T.tocsr()
        if step is None:
            mass = np.bincount(cells.ravel(), (prob * mass[:, None]).ravel(), n)
        else:
            mass = step @ mass
    return p


def markov_exceedance_extrapolated(rhos, barriers, cells_per_sd: float = 4.0) -> float:
    """Richardson extrapolation of :func:`markov_exceedance` in h^2."""
    coarse = markov_exceedance(rhos, barriers, cells_per_sd)
    fine = markov_exceedance(rhos, barriers, 2.0 * cells_per_sd)
    return fine + (fine - coarse) / 3.0


def _transition(c: np.ndarray, s: float, h: float, n: int):
    """Band of target cells and probabilities for mass leaving each cell.

    Row j lists the cells within nine step deviations of the mean depth c_j
    and the probability of landing in each; the last cell is open below, so
    it also takes every tail beyond it.
    """
    half = int(math.ceil(9.0 * s / h)) + 1
    k = np.floor(c / h).astype(int)[:, None] + np.arange(-half, half + 2)[None, :]
    edge = np.where(k >= n, np.inf, k * h)
    above = special.ndtr((c[:, None] - edge) / s)  # P(next depth >= edge)
    prob = above[:, :-1] - above[:, 1:]
    cells = k[:, :-1]
    prob[(cells < 0) | (cells >= n)] = 0.0
    return np.clip(cells, 0, n - 1), prob


def quadratic_field_grid_constant(t, drift_coeff: float) -> float:
    """E exp(max_k sqrt2 X(t_k) - t_k^2 - c t_k^2) for Var X(t) = t^2.

    The field with Var X(t) = t^2 and stationary increments is X(t) = t N,
    N ~ N(0, 1), so the maximum is the upper envelope of the lines
    n -> sqrt2 t_k n - (1 + c) t_k^2.  With increasing slopes and concave
    intercepts every line owns one interval of n, and the 1-D integral
    against the normal density is exact piece by piece:
    int_lo^hi phi(n) e^{a n + b} dn = e^{b + a^2/2} (Phi(hi - a) - Phi(lo - a)).
    """
    t = np.sort(np.asarray(t, dtype=float))
    slope = SQRT2 * t
    icpt = -(1.0 + drift_coeff) * t**2
    brk = (icpt[:-1] - icpt[1:]) / (slope[1:] - slope[:-1])
    if np.any(np.diff(brk) <= 0):
        raise ValueError("every line must own an interval of the envelope")
    lo = np.concatenate([[-np.inf], brk]) - slope
    hi = np.concatenate([brk, [np.inf]]) - slope
    # Phi(hi) - Phi(lo), taken on the side of the tail that keeps precision
    piece = np.where(lo > 0, special.ndtr(-lo) - special.ndtr(-hi), special.ndtr(hi) - special.ndtr(lo))
    return float(np.sum(np.exp(icpt + 0.5 * slope**2) * piece))


def flat_double_maxima(rho: float, m: float, pts_a, pts_b) -> float:
    """P(max_A Z > m, max_B Z > m) when distinct points have correlation rho.

    One-factor form: Z_i = sqrt(rho) V + sqrt(1 - rho) e_i, with coinciding
    points sharing e_i.  Given V = v each point stays below m with
    probability q, and inclusion-exclusion gives
    P(A and B | v) = (1 - q^a)(1 - q^b) + q^(a + b - k) (1 - q^k),
    k the number of points the two boxes share.
    """
    pts_a = np.asarray(pts_a, dtype=float)
    pts_b = np.asarray(pts_b, dtype=float)
    shared = int(np.sum(np.abs(pts_a[:, None] - pts_b[None, :]) < 1e-12))
    na, nb = len(pts_a), len(pts_b)

    def integrand(v):
        log_q = special.log_ndtr((m - math.sqrt(rho) * v) / math.sqrt(1.0 - rho))
        both = math.expm1(na * log_q) * math.expm1(nb * log_q)
        if shared:
            both -= math.exp((na + nb - shared) * log_q) * math.expm1(shared * log_q)
        return math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) * both

    val, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-10, limit=200)
    return val


def pair_exceedance(m: float, r) -> np.ndarray:
    """P(X > m, Y > m) for standard bivariate normals with correlation r.

    Owen's T form: Psi(m) - 2 T(m, sqrt((1 - r) / (1 + r))).
    """
    r = np.asarray(r, dtype=float)
    return special.ndtr(-m) - 2.0 * special.owens_t(m, np.sqrt((1.0 - r) / (1.0 + r)))


def gaussian_double_maxima_bounds(m: float, pts_a, pts_b) -> tuple[float, float]:
    """Bounds on P(max_A Z > m, max_B Z > m) for correlation exp(-d^2).

    Lower: the most likely single pair (i in A, j in B) exceeding together.
    Upper: the union bound over all such pairs, or over the points of the
    smaller box, whichever is smaller.
    """
    pts_a = np.asarray(pts_a, dtype=float)
    pts_b = np.asarray(pts_b, dtype=float)
    r = np.exp(-((pts_a[:, None] - pts_b[None, :]) ** 2))
    pairs = pair_exceedance(m, r)
    single = float(special.ndtr(-m))
    upper = min(float(pairs.sum()), min(len(pts_a), len(pts_b)) * single)
    return float(pairs.max()), upper
