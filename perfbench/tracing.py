"""Layer tracing from outside the program.

Each layer's public functions are wrapped at the names their callers look
up (for example `incomefit.models.reg_upper_incomplete_gamma`, which is the
name `models` binds the kernel to), so no file under src/ changes. Every
call becomes a span (name, start, end, parent span, op id, count, flag)
kept in memory; per-layer metrics are derived from the spans when the run
ends, and the spans are then written out. A name that no longer exists
raises instead of silently reporting zero calls.
"""

import functools
import gzip
import json
import os
import time

import numpy as np

# span tuple fields
NAME, START, END, PARENT, OP, COUNT, FLAG = range(7)


class MissingHook(RuntimeError):
    """A wrapped name vanished: the traced layer map is out of date."""


# summarizers: (args, kwargs, result) -> (count, flag) for a finished call


def _elements(args, kwargs, result):
    return int(np.size(args[0])), False


def _elements_ax(args, kwargs, result):
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size), False


def _points(args, kwargs, result):
    return int(np.size(args[1])), not bool(np.all(np.isfinite(result)))


def _fit_result(args, kwargs, result):
    return int(result.iterations), not result.converged


def _refit_result(args, kwargs, result):
    # the fallback returns the degenerate embedding: a second component of
    # exactly zero amplitude, which an exp-parameterized fit reaches only by
    # underflow
    comps = (result.model.params.component1, result.model.params.component2)
    return int(result.iterations), any(c.amplitude == 0.0 for c in comps)


def _bytes_read(args, kwargs, result):
    src = args[0]
    return (os.path.getsize(src) if isinstance(src, (str, os.PathLike)) else 0), False


def _bytes_written(args, kwargs, result):
    target = args[1]
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target), False
    return len(target.getvalue().encode("utf-8")), False


def _exit_code(args, kwargs, result):
    return int(result), result != 0


def _none(args, kwargs, result):
    return 0, False


class Tracer:
    """Wraps layer entry points, records spans, restores the names on close."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self.active = True
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, span_name, summarize=_none):
        if not hasattr(owner, attr):
            raise MissingHook(f"{owner.__name__}.{attr} no longer exists; update perfbench/tracing.py")
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[idx] = (span_name, start, clock(), parent, self.op_id, 0, True)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            count, flag = summarize(args, kwargs, result)
            spans[idx] = (span_name, start, end, parent, self.op_id, count, flag)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tracer, incomefit):
    """Wrap every layer boundary the per-layer metrics are defined on."""
    cli, fitter, models = incomefit.cli, incomefit.fitter, incomefit.models
    # special, at the names models binds the kernels to
    tracer.wrap(models, "log_gamma", "special.log_gamma", _elements)
    tracer.wrap(models, "reg_lower_incomplete_gamma", "special.incgamma", _elements_ax)
    tracer.wrap(models, "reg_upper_incomplete_gamma", "special.incgamma", _elements_ax)
    tracer.wrap(models, "std_normal_cdf", "special.normal_cdf", _elements)
    # models, as looked up through the module by fitter, cli and the benchmark
    for name in ("pdf", "cdf", "ccdf"):
        tracer.wrap(models, name, "models." + name, _points)
    tracer.wrap(models, "param_unpack", "models.param_unpack")
    # fitter: fit as bound in cli and in fitter (refit_nested calls it there)
    tracer.wrap(cli, "fit", "fitter.fit", _fit_result)
    tracer.wrap(fitter, "fit", "fitter.fit", _fit_result)
    tracer.wrap(fitter, "refit_nested", "fitter.refit_nested", _refit_result)
    tracer.wrap(fitter, "initialize", "fitter.initialize")
    # empirical, at the names cli binds
    tracer.wrap(cli, "load_histogram", "empirical.load_histogram", _bytes_read)
    tracer.wrap(cli, "save_histogram", "empirical.save_histogram", _bytes_written)
    for name in ("rebin", "subtract", "to_ccdf_curve", "to_pdf_curve"):
        tracer.wrap(cli, name, "empirical." + name)
    tracer.wrap(cli, "main", "cli.main", _exit_code)


def layer_metrics(spans):
    """Per-layer metrics from a finished span list."""
    n = len(spans)
    dur = np.empty(n)
    child = np.zeros(n)
    for i, s in enumerate(spans):
        dur[i] = s[END] - s[START]
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_ns = dur - child

    def pick(prefix):
        return [i for i, s in enumerate(spans) if s[NAME].startswith(prefix)]

    def busy_ms(idx):
        return float(dur[idx].sum()) / 1e6 if idx else 0.0

    def self_ms(idx):
        return float(self_ns[idx].sum()) / 1e6 if idx else 0.0

    def total(idx):
        return int(sum(spans[i][COUNT] for i in idx))

    def flagged(idx):
        return int(sum(spans[i][FLAG] for i in idx))

    out = {}
    for key, name in (("incgamma", "special.incgamma"), ("normal_cdf", "special.normal_cdf")):
        idx = pick(name)
        elements = total(idx)
        out[f"special.{key}.calls"] = (len(idx), "count")
        out[f"special.{key}.elements"] = (elements, "count")
        out[f"special.{key}.busy_ms"] = (busy_ms(idx), "ms")
        out[f"special.{key}.ns_per_element"] = (
            busy_ms(idx) * 1e6 / elements if elements else 0.0, "ns")
    idx = pick("special.log_gamma")
    out["special.log_gamma.calls"] = (len(idx), "count")
    out["special.log_gamma.busy_ms"] = (busy_ms(idx), "ms")
    out["special.errors"] = (flagged(pick("special.")), "count")

    evals = [i for i in pick("models.") if spans[i][NAME] != "models.param_unpack"]
    out["models.calls"] = (len(evals), "count")
    out["models.points"] = (total(evals), "count")
    out["models.self_ms"] = (self_ms(pick("models.")), "ms")
    out["models.us_per_call"] = (
        self_ms(pick("models.")) * 1e3 / len(evals) if evals else 0.0, "us")
    out["models.errors"] = (flagged(pick("models.")), "count")

    fits = pick("fitter.fit")
    refits = pick("fitter.refit_nested")
    fit_set = set(fits)
    evals_in_fit = 0
    for i in evals:
        p = spans[i][PARENT]
        while p >= 0 and p not in fit_set:
            p = spans[p][PARENT]
        evals_in_fit += p >= 0
    nfit = len(fits)
    out["fitter.fits"] = (nfit, "count")
    out["fitter.self_ms"] = (self_ms(pick("fitter.")), "ms")
    out["fitter.model_evals_per_fit"] = (evals_in_fit / nfit if nfit else 0.0, "count")
    out["fitter.iterations_per_fit"] = (total(fits) / nfit if nfit else 0.0, "count")
    out["fitter.converged_ratio"] = ((nfit - flagged(fits)) / nfit if nfit else 0.0, "ratio")
    out["fitter.nested_fallback_ratio"] = (
        flagged(refits) / len(refits) if refits else 0.0, "ratio")
    out["fitter.initialize_ms"] = (busy_ms(pick("fitter.initialize")), "ms")

    emp = pick("empirical.")
    out["empirical.calls"] = (len(emp), "count")
    out["empirical.busy_ms"] = (busy_ms(emp), "ms")
    out["empirical.bytes_read"] = (total(pick("empirical.load_histogram")), "B")
    out["empirical.bytes_written"] = (total(pick("empirical.save_histogram")), "B")

    mains = pick("cli.main")
    out["cli.commands"] = (len(mains), "count")
    out["cli.self_ms"] = (self_ms(mains), "ms")
    out["cli.nonzero_exits"] = (flagged(mains), "count")
    return out
