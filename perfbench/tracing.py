"""Per-layer tracing of chaoslab from outside the program.

``Tracer.install`` replaces each public function listed in ``TIMED`` with a
span-recording wrapper, in every loaded chaoslab module that holds it, and
replaces ``ModelSpec.potential`` / ``ModelSpec.grad_potential`` with
point-counting versions.  ``Tracer.uninstall`` puts the originals back, so
untraced passes run the unmodified program.  A listed function the program
no longer has is recorded in ``Tracer.absent`` and its metrics read 0.

A span is ``[id, parent_id, trace_id, name, start, end, nested]``; the
trace id names the op (one config run) the span belongs to, and ``nested``
marks a call made while the same function was already on the stack (such as
``log_integrate_exp`` inside the ``log_integrate_exp`` of ``jw_log_mgf``),
which is left out of the inclusive time so it is not counted twice.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Public functions timed per layer: each yields <layer>.<function>.calls,
# .s (inclusive, outermost calls only) and .self_s.
TIMED = {
    "numerics": ["log_integrate_exp", "integrate", "convolve", "find_root"],
    "meanfield": ["tilted_measure", "moment", "magnetization", "critical_coupling"],
    "marginals": ["build_mixture", "relative_entropy_levels", "wasserstein2_marginal",
                  "marginal_grid_density", "marginal_log_density_batch"],
    "metrics": ["quantile_from_density", "wasserstein_1d", "fisher_information_1d"],
    "bounds": ["curie_weiss_constants"],
    "verify": ["nonlinear_lsi_scan", "linear_lsi_scan", "phi_positivity_scan",
               "psi_positivity_scan", "marginal_t1_ratio_scan", "jw_log_mgf"],
    "sampler": ["run_chain", "save_batch"],
}

# Functions wrapped only to read a count off their result.
COUNTED = {"meanfield": ["solve_fixed_point"]}

ROOT = "cli.run"
SAMPLER_SIZES = (32, 512)

# (name, unit, better) of every per-layer metric, in report order.
COUNT_METRICS = [
    ("model.potential.calls", "count", "lower"),
    ("model.potential.points", "count", "lower"),
    ("model.grad_potential.points", "count", "lower"),
    ("meanfield.solve_fixed_point.iterations", "count", "lower"),
    ("marginals.mixture_nodes", "count", "lower"),
    ("sampler.bytes_written", "bytes", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
]
SAMPLER_METRICS = (
    [(f"sampler.us_per_step.n{n}", "us", "lower") for n in SAMPLER_SIZES]
    + [(f"sampler.acceptance_rate.n{n}", "ratio", "higher") for n in SAMPLER_SIZES]
    + [("sampler.ess_per_s.n32", "1/s", "higher")]
)


def layer_metrics():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, names in TIMED.items():
        for fname in names:
            base = f"{layer}.{fname}"
            out += [(f"{base}.calls", "count", "lower"), (f"{base}.s", "s", "lower"),
                    (f"{base}.self_s", "s", "lower")]
    out += COUNT_METRICS + SAMPLER_METRICS
    out += [("cli.self_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind_partial(*args, **kwargs).arguments.get(name)


def _describe_build_mixture(fn, args, kwargs, result):
    return {"nodes": len(result.z_nodes)}


def _describe_run_chain(fn, args, kwargs, result):
    cfg = _argument(fn, args, kwargs, "cfg")
    return {"n_particles": cfg.n_particles, "n_steps": cfg.n_steps,
            "acceptance_rate": result.acceptance_rate}


def _describe_save_batch(fn, args, kwargs, result):
    path = os.fspath(_argument(fn, args, kwargs, "path"))
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


def _describe_fixed_point(fn, args, kwargs, result):
    return {"iterations": result.iterations}


DESCRIBE = {
    "marginals.build_mixture": _describe_build_mixture,
    "sampler.run_chain": _describe_run_chain,
    "sampler.save_batch": _describe_save_batch,
    "meanfield.solve_fixed_point": _describe_fixed_point,
}


class Tracer:
    """Spans and counts recorded at chaoslab's public function boundaries."""

    def __init__(self):
        self.spans = []
        self.attrs = {}
        self.counts = Counter()
        self.absent = set()
        self.trace_id = None
        self._stack = []
        self._active = Counter()
        self._patches = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.trace_id, name, time.perf_counter(),
                           None, self._active[name] > 0])
        self._stack.append(sid)
        self._active[name] += 1
        return sid

    def _exit(self, sid):
        span = self.spans[sid]
        span[5] = time.perf_counter()
        self._stack.pop()
        self._active[span[3]] -= 1

    @contextmanager
    def root(self, trace_id):
        """Root span of one op; every span inside it carries ``trace_id``."""
        self.trace_id = trace_id
        sid = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(sid)
            self.trace_id = None

    def _wrap(self, name, fn):
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid)
            if describe is not None:
                try:
                    self.attrs[sid] = describe(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    pass  # a changed signature or result leaves the extras at 0
            return result

        return wrapper

    def _counting(self, name, method):
        counts = self.counts
        calls, points = f"{name}.calls", f"{name}.points"

        @functools.wraps(method)
        def counted(spec, x, *args, **kwargs):
            counts[calls] += 1
            counts[points] += int(getattr(x, "size", 1))
            return method(spec, x, *args, **kwargs)

        return counted

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "chaoslab" or n.startswith("chaoslab.")]
        for table in (TIMED, COUNTED):
            for layer, names in table.items():
                try:
                    mod = importlib.import_module(f"chaoslab.{layer}")
                except ImportError:
                    self.absent.update(f"{layer}.{fname}" for fname in names)
                    continue
                for fname in names:
                    orig = getattr(mod, fname, None)
                    if not callable(orig):
                        self.absent.add(f"{layer}.{fname}")
                        continue
                    wrapper = self._wrap(f"{layer}.{fname}", orig)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                self._patch(m, attr, wrapper)
        spec = getattr(sys.modules.get("chaoslab.model"), "ModelSpec", None)
        for method in ("potential", "grad_potential"):
            orig = getattr(spec, method, None)
            if orig is None:
                self.absent.add(f"model.{method}")
                continue
            self._patch(spec, method, self._counting(f"model.{method}", orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ---------------------------------------------------
    def mark(self):
        """Start a pass: clear the counts and return the first span index."""
        self.counts.clear()
        return len(self.spans)

    def pass_metrics(self, first_span):
        """Layer metrics over spans[first_span:] and the current counts.

        Returns every metric ``layer_metrics`` names; ``sampler.ess_per_s.n32``,
        ``cli.output_bytes`` and ``trace.overhead_s`` read 0 here, because
        they need the pass's files or its untraced twin, and the caller
        fills them in.
        """
        spans = self.spans[first_span:]
        child_time = Counter()
        for sid, parent, _, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = Counter()
        for sid, _, _, name, start, end, nested in spans:
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_time[sid]
            if not nested:
                out[f"{name}.s"] += duration
            attrs = self.attrs.get(sid, {})
            if name == "marginals.build_mixture":
                out["marginals.mixture_nodes"] += attrs.get("nodes", 0)
            elif name == "meanfield.solve_fixed_point":
                out["meanfield.solve_fixed_point.iterations"] += attrs.get("iterations", 0)
            elif name == "sampler.save_batch":
                out["sampler.bytes_written"] += attrs.get("bytes", 0)
            elif (name == "sampler.run_chain"
                  and attrs.get("n_particles") in SAMPLER_SIZES):
                n = attrs["n_particles"]
                out[f"sampler.us_per_step.n{n}"] = 1e6 * duration / attrs["n_steps"]
                out[f"sampler.acceptance_rate.n{n}"] = attrs["acceptance_rate"]
        out.update(self.counts)
        metrics = {name: float(out[name]) for name, _, _ in layer_metrics()}
        metrics["cli.self_s"] = float(out[f"{ROOT}.self_s"])
        return metrics

    def run_chain_seconds(self, first_span, n_particles):
        """Duration of the pass's run_chain call for ``n_particles``."""
        for sid, _, _, name, start, end, _ in self.spans[first_span:]:
            if (name == "sampler.run_chain"
                    and self.attrs.get(sid, {}).get("n_particles") == n_particles):
                return end - start
        return None

    def span_records(self):
        return [{"id": s[0], "parent": s[1], "trace": s[2], "name": s[3],
                 "start": s[4], "end": s[5]} for s in self.spans]
