"""Spans and work counts around calls into gexr, for the traced run only.

``install(recorder)`` replaces entry points of gexr's modules with wrappers
that open a span (name, start, end, parent) around the original call and
add work counts computed from array sizes; it returns a function that puts
the originals back.  No gexr file changes: the wrappers live here and are
installed in the benchmark's worker process after the untraced rounds.

A layer's time is its self time: the span's duration minus the time its
child spans cover.  The root span of each CLI call is ``cli.main``; its self
time is the part of the call that no layer span covers.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

import numpy as np


class Recorder:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return dict(out)


class _CountingGenerator:
    """Stands in for a numpy Generator; times and counts the normal draws."""

    def __init__(self, gen, rec: Recorder):
        self._gen = gen
        self._rec = rec

    def standard_normal(self, *args, **kwargs):
        idx = self._rec.open("rng.normal")
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            self._rec.close(idx)
        self._rec.count("rng.normals", np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def install(rec: Recorder):
    """Wrap gexr's entry points; returns a function that restores them."""
    from gexr import cli, constants, doublesum, functionals, mc, rng, simkit, tailprob

    undo = []

    def wrap(owner, attr, name, after=None, static=False):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = orig.__func__ if static else orig

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = func(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        undo.append((owner, attr, orig))

    def flops(amount):
        rec.count("simkit.cholesky.gflop", amount / 1e9)

    # configuration parsing and output files of the runner
    for attr in ("preset_config", "family_from_config", "grid_from_config",
                 "eta_from_config", "schedule_from_config", "drift_from_config",
                 "functional_from_config", "variance_function_from_json"):
        wrap(cli, attr, "cli.config")
    wrap(cli, "_write_csv", "cli.io")
    wrap(cli, "_write_plot", "cli.io")
    # results.json is written with json.dump: give the runner its own json
    json_proxy = types.SimpleNamespace(
        **{k: getattr(cli.json, k) for k in dir(cli.json) if not k.startswith("_")})
    wrap(json_proxy, "dump", "cli.io")
    undo.append((cli, "json", cli.json))
    cli.json = json_proxy

    # random streams: one Generator per substream, normal draws counted
    orig_generator = rng.RngStream.generator

    def generator(self):
        idx = rec.open("rng.generator")
        try:
            gen = orig_generator(self)
        finally:
            rec.close(idx)
        rec.count("rng.generators")
        return _CountingGenerator(gen, rec)

    rng.RngStream.generator = generator
    undo.append((rng.RngStream, "generator", orig_generator))

    # generators: circulant embedding and Cholesky
    wrap(simkit.FbmSampler, "__init__", "simkit.circulant.setup")
    wrap(simkit.FbmSampler, "sample", "simkit.circulant.sample")
    chol_size = lambda L: 0 if L is None else L.shape[0]
    wrap(simkit.StatIncrSampler, "__init__", "simkit.cholesky.setup",
         lambda a, k, out: flops(chol_size(a[0]._L) ** 3 / 3))
    wrap(simkit.ResidualSampler, "__init__", "simkit.cholesky.setup",
         lambda a, k, out: flops(chol_size(a[0]._L) ** 3 / 3))
    for module in (tailprob, doublesum):  # direct factorizations
        wrap(module, "_chol_psd", "simkit.cholesky.setup",
             lambda a, k, out: flops(out.shape[0] ** 3 / 3))
    sample_flops = lambda a, k, out: flops(2.0 * a[2] * chol_size(a[0]._L) ** 2)
    wrap(simkit.StatIncrSampler, "sample", "simkit.cholesky.sample", sample_flops)
    wrap(simkit.ResidualSampler, "sample", "simkit.cholesky.sample", sample_flops)

    # functionals, estimators and their bookkeeping
    for module in (functionals, constants, tailprob):
        wrap(module, "apply_functional", "functionals.apply",
             lambda a, k, out: rec.count("functionals.calls"))
    wrap(constants, "window_sup_levels", "constants.window")
    wrap(constants, "estimate_generalized_constant", "constants.generalized")
    for attr in ("estimate_pickands", "estimate_piterbarg", "estimate_generalized_piterbarg"):
        wrap(constants, attr, "constants.estimate")
    wrap(tailprob.ConditionalSampler, "__post_init__", "tailprob.sampler_setup")
    wrap(tailprob, "conditional_tail", "tailprob.conditional",
         lambda a, k, out: rec.count("tailprob.cells"))

    def double_flops(a, k, out):
        cfg, points_per_axis, n_reps = a[0], a[2], a[3]
        n = 2 * points_per_axis ** cfg.dim  # the stacked grid of both boxes
        flops(2.0 * n_reps * n * n)

    wrap(doublesum, "estimate_double_maxima", "doublesum.estimate", double_flops)
    wrap(mc.Estimate, "from_samples", "mc.estimate",
         lambda a, k, out: rec.count("mc.estimates"), static=True)

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in line.split(":", 1)[1].split("|"))
        if cumulative.isdigit():
            out[name] = int(cumulative) / 1e6
    return out

