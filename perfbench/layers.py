"""Layer tracing for the benchmark: timing wrappers around package functions.

Wrappers are installed from outside the package.  Each wrapper replaces
every module attribute that refers to the original function (for example
both ``clustering.fcm_refine`` and the ``identify.fcm_refine`` that
``train`` resolves), or the attribute on the class for a method.  A name
that no longer exists is recorded as absent; its metrics are then left out
of the report rather than reported as zero.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

MODULES = ("core", "clustering", "identify", "baselines", "envsim", "bench",
           "pegsim", "modelio", "cli")

# Layer names whose per-call latencies are kept for percentiles.
SAMPLED = ("core.predict",)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _observe_train(extra, args, kwargs, result):
    model, report = result
    config = _arg(args, kwargs, 1, "config")
    iters = report.rule_iterations
    extra["identify.irls.iterations"] += sum(iters)
    extra["identify.irls.capped_rules"] += sum(
        1 for it in iters if it >= config.irls_max_iter)
    extra["identify.rank_fallback_rules"] += sum(report.rank_fallback)
    extra["identify.rules_kept"] += model.p
    extra["identify.rules_dropped"] += report.dropped_rules


def _observe_regressor(extra, args, kwargs, result):
    extra["identify.regressor.bytes"] += result.nbytes


def _observe_fcm(extra, args, kwargs, result):
    points = np.atleast_2d(_arg(args, kwargs, 0, "points"))
    iters = len(result.objective_history)
    extra["clustering.fcm.iterations"] += iters
    extra["clustering.fcm.capped"] += int(
        iters >= _arg(args, kwargs, 5, "max_iter", 200))
    # the (p, N, dim) distance temporary built in every iteration
    size = result.p * points.shape[0] * points.shape[1] * 8
    extra["clustering.fcm.bytes"] = max(extra["clustering.fcm.bytes"], size)


def _observe_subtractive(extra, args, kwargs, result):
    extra["clustering.subtractive.points"] += np.atleast_2d(
        _arg(args, kwargs, 0, "points")).shape[0]


def _observe_predict_batch(extra, args, kwargs, result):
    _, degen = result
    extra["core.predict_batch.rows"] += degen.shape[0]
    extra["core.degenerate_rows"] += int(np.count_nonzero(degen))


def _observe_episode(extra, args, kwargs, result):
    extra["pegsim.degenerate_ticks"] += int(
        np.count_nonzero(result.trace["degenerate"]))


def _observe_read_csv(extra, args, kwargs, result):
    extra["modelio.read_csv.rows"] += result[2].shape[0]


# (layer name, module, attribute or Class.method, observer,
#  derived metrics as (name, unit))
TARGETS = (
    ("core.predict", "core", "IT2PFModel.predict", None, ()),
    ("core.predict_batch", "core", "IT2PFModel.predict_batch",
     _observe_predict_batch, (("core.predict_batch.rows", "count"),
                              ("core.degenerate_frac", "1"))),
    ("core.consequent", "core", "eval_consequent_batch", None, ()),
    ("core.firing", "core", "_firing_batch", None, ()),
    ("core.type_reduce", "core", "type_reduce_batch", None, ()),
    ("core.basis", "core", "monomial_basis", None, ()),
    ("identify.train", "identify", "train", _observe_train,
     (("identify.irls.iterations", "count"),
      ("identify.irls.capped_rules", "count"),
      ("identify.rank_fallback_rules", "count"),
      ("identify.rules_kept", "count"),
      ("identify.rules_dropped", "count"))),
    ("identify.rule_fit", "identify", "robust_fit_rule", None, ()),
    ("identify.solve", "identify", "_weighted_lstsq", None, ()),
    ("identify.regressor", "identify", "regressor_matrix", _observe_regressor,
     (("identify.regressor.bytes", "computed_B"),)),
    ("clustering.fcm", "clustering", "fcm_refine", _observe_fcm,
     (("clustering.fcm.iterations", "count"),
      ("clustering.fcm.capped", "count"),
      ("clustering.fcm.bytes", "computed_B"))),
    ("clustering.subtractive", "clustering", "subtractive_cluster",
     _observe_subtractive, (("clustering.subtractive.points", "count"),)),
    ("baselines.fit_lkv", "baselines", "fit_lkv", None, ()),
    ("bench.run_benchmark", "bench", "run_benchmark", None, ()),
    ("bench.scoring", "bench", "per_trial_metrics", None, ()),
    ("bench.split", "bench", "split_trials", None, ()),
    ("envsim.generate", "envsim", "generate_benchmark_ticks", None, ()),
    ("pegsim.world_step", "pegsim", "PegWorld.step", None, ()),
    ("pegsim.episode", "pegsim", "run_episode", _observe_episode,
     (("pegsim.degenerate_ticks", "count"),)),
    ("pegsim.demos", "pegsim", "record_demonstrations", None, ()),
    ("modelio.read_csv", "modelio", "read_dataset_ticks", _observe_read_csv,
     (("modelio.read_csv.rows", "count"),)),
    ("modelio.write_csv", "modelio", "write_dataset_csv", None, ()),
    ("modelio.write_report", "modelio", "benchmark_report_csv", None, ()),
    ("modelio.save_model", "modelio", "save_model", None, ()),
    ("modelio.load_model", "modelio", "load_model", None, ()),
    ("cli.main", "cli", "main", None, ()),
)

# Derived values that are maxima, not sums: they are not divided per op.
_NOT_SUMMED = ("clustering.fcm.bytes",)


class Tracer:
    """Call counts, inclusive and self times per layer, kept in memory.

    Self time is a span's duration minus the durations of the traced spans
    it directly encloses.  Inclusive time counts only the outermost span of
    a layer, so a layer that re-enters itself is not counted twice.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.samples = defaultdict(list)
        self.extra = defaultdict(float)
        self.absent = []
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []

    def _wrap(self, name, fn, observe):
        tracer = self
        sampled = name in SAMPLED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            tracer._depth[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = tracer._stack.pop()
                tracer._depth[name] -= 1
                if tracer._stack:
                    tracer._stack[-1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - child
                if tracer._depth[name] == 0:
                    tracer.incl[name] += dur
                if sampled:
                    tracer.samples[name].append(dur)
            if observe is not None:
                observe(tracer.extra, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; remember the absent ones."""
        package = importlib.import_module("it2pf")
        modules = [package] + [importlib.import_module(f"it2pf.{m}")
                               for m in MODULES]
        self.absent = []
        for name, modname, attr, observe, _ in TARGETS:
            owner = importlib.import_module(f"it2pf.{modname}")
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                orig = vars(cls).get(attr_name) if cls is not None else None
                if not callable(orig):
                    self.absent.append(name)
                    continue
                setattr(cls, attr_name, self._wrap(name, orig, observe))
                self._restore.append((cls, attr_name, orig))
                continue
            orig = getattr(owner, attr_name, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, observe)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def snapshot(self):
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self_s": dict(self.self_s), "extra": dict(self.extra)}


def layer_metrics(tracer, setup_snap, final_snap, n_ops):
    """Per-layer metrics for one set-up plus one average operation.

    setup_snap is taken after one traced set-up, final_snap after the
    traced operations; run-phase totals are divided by n_ops.  Returns
    {name: (value, unit)} and the list of absent metric names.
    """
    def per_unit(kind, key, summed=True):
        s = setup_snap[kind].get(key, 0)
        f = final_snap[kind].get(key, 0)
        if not summed:
            return f
        return s + (f - s) / n_ops

    metrics, absent = {}, []
    for name, _, _, _, derived in TARGETS:
        if name in tracer.absent:
            absent += [f"{name}.calls", f"{name}.s", f"{name}.self_s"]
            absent += [d for d, _ in derived]
            continue
        metrics[f"{name}.calls"] = (per_unit("calls", name), "count")
        metrics[f"{name}.s"] = (per_unit("incl", name), "s")
        metrics[f"{name}.self_s"] = (per_unit("self_s", name), "s")
        if name in SAMPLED:
            lat = tracer.samples.get(name, [])
            if lat:
                p50, p99 = np.percentile(lat, [50, 99]) * 1e6
                metrics[f"{name}.p50_us"] = (float(p50), "us")
                metrics[f"{name}.p99_us"] = (float(p99), "us")
                metrics[f"{name}.samples"] = (len(lat), "count")
        for d, unit in derived:
            if d == "core.degenerate_frac":
                rows = final_snap["extra"].get("core.predict_batch.rows", 0)
                bad = final_snap["extra"].get("core.degenerate_rows", 0)
                metrics[d] = (bad / rows if rows else 0.0, unit)
            else:
                metrics[d] = (per_unit("extra", d, d not in _NOT_SUMMED),
                              unit)
    return metrics, absent
