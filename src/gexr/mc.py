"""Monte Carlo bookkeeping: batches, estimates, extrapolation, cell maps.

``cell_map`` is the one parallel map, and ``batch_map`` is the one batch
loop, a ``cell_map`` over batches: batch b draws from substream b and
writes only its own rows, so which thread runs it changes no result.
``one_blas_thread`` holds every loaded OpenBLAS at one thread while a pool
(or a whole CLI run) works, so BLAS threads neither compete with the pool
nor change a result's bits.
``Estimate`` is the universal return type of the estimators: a point value
with a batch-means or binomial standard error, replication count and 95%
confidence interval.  ``PathPairs`` is the bookkeeping of paths drawn in
antithetic pairs.  ``ExtrapolationSchedule`` drives the domain-growth /
grid-refinement limits; a plateau is declared when consecutive level
estimates agree within max(relative stop rule, twice the combined stderr).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .covmodels import ModelError
from .rng import RngStream

__all__ = [
    "Estimate",
    "ExtrapolationSchedule",
    "PathPairs",
    "batch_map",
    "batches",
    "cell_map",
    "combine_stderr",
    "one_blas_thread",
    "plateau_status",
]

MIN_BATCHES = 30


# set on cell_map's pool threads: the thread's slot (0 or 1), and no nested pool
_POOL = threading.local()


def _in_pool(errstate: dict, slots: Iterator[int]) -> None:
    np.seterr(**errstate)
    _POOL.slot = next(slots)


def batches(rng: RngStream, n_reps: int, batch_size: int) -> Iterator[tuple]:
    """Yield (generator, lo, hi) for replications [lo, hi) in batches.

    Batch b draws from ``rng.substream(b)``, so the batch size fixes which
    draws each replication sees.
    """
    for b in range(-(-n_reps // batch_size)):
        lo = b * batch_size
        yield rng.substream(b).generator(), lo, min(lo + batch_size, n_reps)


def batch_map(body: Callable, rng: RngStream, n_reps: int, batch_size: int) -> None:
    """``body(gen, lo, hi, slot)`` for every batch of :func:`batches`, by :func:`cell_map`.

    ``slot`` is the index (0 or 1) of the pool thread that runs the batch,
    0 inline, so a body may keep one workspace per slot.
    """
    def run(b):
        lo = b * batch_size
        body(rng.substream(b).generator(), lo, min(lo + batch_size, n_reps),
             getattr(_POOL, "slot", 0))

    cell_map(run, range(-(-n_reps // batch_size)))


@functools.cache
def _openblas_threads() -> tuple:
    """The (set, get) thread-count functions of every OpenBLAS loaded in this
    process, found once from ``/proc/self/maps``; none without that file."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:  # a library already loaded: RTLD_NOLOAD loads nothing new
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            names = [f"{prefix}openblas_{op}_num_threads{suffix}" for op in ("set", "get")]
            if all(hasattr(lib, name) for name in names):
                found.append(tuple(getattr(lib, name) for name in names))
                break
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS on one thread inside the block; each library's
    own thread count comes back afterwards, whatever the block raises.
    Without an OpenBLAS found, nothing changes."""
    blas = _openblas_threads()
    counts = [get() for _, get in blas]
    try:
        for set_threads, _ in blas:
            set_threads(1)
        yield
    finally:
        for (set_threads, _), n in zip(blas, counts):
            set_threads(n)


def cell_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, on a pool of two threads from two items on.

    The pool threads run under the caller's numpy error state while the
    caller waits; a map inside a pool thread runs inline, so at most two
    threads work.  While the pool runs, every loaded OpenBLAS works on one
    thread (:func:`one_blas_thread`), so that the pool threads' BLAS calls
    start no threads of their own on the same CPUs.
    Results keep the order of ``items``: the serial loop's, if items draw
    only from their own substreams.  The first failing item's exception is
    raised, and the items not yet started are cancelled.
    """
    if len(items) < 2 or hasattr(_POOL, "slot"):
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    init = (np.geterr(), itertools.count())
    with one_blas_thread(), ThreadPoolExecutor(2, initializer=_in_pool, initargs=init) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n_reps: int
    meta: dict = field(default_factory=dict)

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.value - 1.96 * self.stderr, self.value + 1.96 * self.stderr)

    @staticmethod
    def from_samples(samples: np.ndarray, meta: dict | None = None) -> "Estimate":
        """Point estimate with a batch-means standard error (>= 30 batches)."""
        x = np.asarray(samples, dtype=float).reshape(-1)
        n = len(x)
        finite = np.isfinite(x)
        n_bad = int(n - finite.sum())
        x = np.where(finite, x, 0.0)
        mean = float(x.mean()) if n else math.nan
        n_batches = min(max(MIN_BATCHES, int(math.sqrt(n))), max(n, 1))
        if n_batches > 1:  # every n >= 2: then 2 <= n_batches <= n
            trimmed = x[: (n // n_batches) * n_batches]
            bm = trimmed.reshape(n_batches, -1).mean(axis=1)
            stderr = float(bm.std(ddof=1) / math.sqrt(n_batches))
        else:
            stderr = math.nan
        meta = dict(meta or {})
        if n_bad:
            meta["overflow_count"] = n_bad
        return Estimate(mean, stderr, n, meta)

    @staticmethod
    def binomial(hits: int, n: int, meta: dict | None = None) -> "Estimate":
        """Proportion hits / n with its binomial standard error.

        meta gains the hit count and the exact 95% Clopper-Pearson interval
        ``ci_exact`` (lo = 0 at no hits, hi = 1 when every trial hits).
        """
        from scipy import special

        p = hits / n
        stderr = math.sqrt(max(p * (1 - p), 0.0) / n)
        lo = 0.0 if hits == 0 else float(special.betaincinv(hits, n - hits + 1, 0.025))
        hi = 1.0 if hits == n else float(special.betaincinv(hits + 1, n - hits, 0.975))
        meta = {"hits": hits, "ci_exact": (lo, hi), **(meta or {})}
        return Estimate(p, stderr, n, meta)


class PathPairs:
    """Paths drawn in antithetic pairs: paths 2k and 2k+1 share one draw.

    An odd path count rounds up to whole pairs, and ``n_reps`` is the number
    of paths to draw.  ``estimate`` averages each pair and takes the pair
    mean as the unit of the batch-means standard error, so that no batch
    splits a pair; the returned ``n_reps`` counts paths, and a non-finite
    pair mean counts once in ``meta["overflow_count"]``.  With
    ``paired=False`` the paths are independent: the count is kept and
    ``estimate`` is :meth:`Estimate.from_samples`.
    """

    def __init__(self, n_reps: int, paired: bool = True):
        self.paired = paired
        self.n_reps = n_reps + n_reps % 2 if paired else n_reps

    def estimate(self, samples: np.ndarray, meta: dict | None = None) -> Estimate:
        if not self.paired:
            return Estimate.from_samples(samples, meta=meta)
        pairs = np.asarray(samples, dtype=float).reshape(-1, 2).mean(axis=1)
        return replace(Estimate.from_samples(pairs, meta=meta), n_reps=self.n_reps)


def combine_stderr(*estimates: Estimate) -> float:
    """Standard error of a sum/difference of independent estimates."""
    return math.sqrt(sum(e.stderr**2 for e in estimates))


@dataclass(frozen=True)
class ExtrapolationSchedule:
    """Growth/refinement schedule for limits in domain size and grid step.

    The schedule is the level grid: its steps are the only source of a
    level trace's grid step.  Only the Pickands constant takes (2h, h),
    extrapolating from the coarse level at exactly twice the finest step;
    the drifted constants take one step h and read it through ``step``
    (generalized-piterbarg from ``tSchedule.gridSteps``).  Domain sizes
    increase strictly from 0 or above (a drifted constant's domain may be
    one point), and every domain size, window and horizon must be a whole
    number of steps.
    """

    domain_sizes: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)
    grid_steps: tuple[float, ...] = (1 / 32, 1 / 64)
    stop_rule: float = 0.01

    def __post_init__(self):
        sizes = self.domain_sizes
        if len(sizes) < 3:
            raise ModelError("schedule needs >= 3 domain sizes")
        if not all(0 <= a < b for a, b in zip(sizes, sizes[1:])):  # NaN fails too
            raise ModelError("schedule domain sizes must be increasing and nonnegative")
        steps = self.grid_steps
        if not (len(steps) == 1 or len(steps) == 2 and steps[0] == 2 * steps[1]):
            raise ModelError(f"grid steps must be (h,) or (2h, h), got {steps}")
        if not steps[-1] > 0:  # NaN fails too
            raise ModelError(f"grid steps must be positive, got {steps}")

    @property
    def finest_step(self) -> float:
        return self.grid_steps[-1]

    @property
    def step(self) -> float:
        """The one step of a schedule that does not extrapolate in step."""
        if len(self.grid_steps) != 1:
            raise ModelError(
                f"only the Pickands constant takes two grid steps, got {self.grid_steps}"
            )
        return self.grid_steps[0]


def plateau_status(levels: Sequence[Estimate], stop_rule: float) -> str:
    """Classify a level trace: "plateau", "diverging" or "no-plateau".

    Plateau: the last two levels agree within max(stop_rule * |value|,
    2 * combined stderr).  Diverging: monotone growth with the last jump
    exceeding the tolerance.
    """
    if len(levels) < 2:
        return "no-plateau"
    a, b = levels[-2], levels[-1]
    tol = max(stop_rule * abs(b.value), 2.0 * combine_stderr(a, b))
    if abs(b.value - a.value) <= tol:
        return "plateau"
    vals = [e.value for e in levels]
    if all(y > x for x, y in zip(vals, vals[1:])):
        return "diverging"
    return "no-plateau"
