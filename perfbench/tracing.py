"""Spans and exact counters recorded around shiftagg's public functions.

The tracer never edits the package: it replaces each traced function at the
name its caller binds (``harness.fit_ridge``, ``aggregation.spectral_pinv``,
``CorruptedModel.predict_many``, ...) with a wrapper that records one span
(name, start, end, parent) and the counters measured at that boundary.
Span times are the process's CPU time, like the benchmark's end-to-end times
(see worker.py). Spans stay in memory; ``Tracer.layers`` reduces them once
the study ends.
"""

import hashlib
import inspect
import os
import time

import numpy as np

# Per-layer metrics reported by a traced run, with their units. The order is
# the order of the benchmark's output.
LAYER_METRICS = {
    "datasets.s": "s",
    "datasets.calls": "count",
    "datasets.rows": "count",
    "models.fit_s": "s",
    "models.fit_calls": "count",
    "models.fit_steps": "count",
    "models.predict_s": "s",
    "models.predict_rows": "count",
    "models.predict_bytes": "B",
    "models.predict_unique_ratio": "ratio",
    "models.corrupted_s": "s",
    "models.corrupted_rows": "count",
    "models.corrupt_candidates": "count",
    "models.corrupt_accept_ratio": "ratio",
    "density_ratio.fit_s": "s",
    "density_ratio.fit_calls": "count",
    "density_ratio.weights_s": "s",
    "density_ratio.weights_rows": "count",
    "aggregation.s": "s",
    "aggregation.calls": "count",
    "aggregation.gram_dim_max": "count",
    "linalg.pinv_s": "s",
    "linalg.pinv_calls": "count",
    "linalg.pinv_ops": "count",
    "selection.s": "s",
    "selection.calls": "count",
    "metrics.s": "s",
    "metrics.calls": "count",
    "plots.s": "s",
    "plots.files": "count",
    "plots.bytes": "B",
    "harness.self_s": "s",
}

# Counters that must repeat exactly between two calls on the same seeds.
EXACT_COUNTERS = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "B"))


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.counts = {}


class Tracer:
    """In-memory span recorder for one study call (single thread)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # Strong references keep model identities stable for the whole call,
        # so two distinct models never share a key.
        self._model_keys = {}
        self._seen_pairs = set()
        self.unique_rows = 0

    # --- recording -----------------------------------------------------------

    def _wrap(self, name, layer, fn, count=None):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, layer, time.process_time(), parent)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                tracer._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            if parent is not None:
                # Counting happens after the span closes; charging it to the
                # parent as child time keeps it out of every layer's self time.
                parent.child_s += time.process_time() - span.start
            return result

        return traced

    def patch(self, owner, attr, layer, count=None):
        """Replace ``owner.attr`` (a module or class) with a traced wrapper."""
        original = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, self._wrap(name, layer, original, count))

    def _model_key(self, model):
        return self._model_keys.setdefault(model, len(self._model_keys))

    def _predict_counts(self, arguments, result):
        models, xs = arguments["models"], np.asarray(arguments["xs"], dtype=np.float64)
        # Inputs are continuous random draws: a strided sample of rows plus
        # the shape identifies a matrix, and its rows are distinct from each
        # other, so each new (model, matrix) pair adds that many predictions.
        sample = np.ascontiguousarray(xs[:: max(1, xs.shape[0] // 256)])
        digest = hashlib.blake2b(sample.tobytes(), digest_size=16).digest()
        for model in models:
            pair = (self._model_key(model), digest, xs.shape)
            if pair not in self._seen_pairs:
                self._seen_pairs.add(pair)
                self.unique_rows += xs.shape[0]
        return {"rows": len(models) * xs.shape[0], "bytes": int(np.asarray(result).nbytes)}

    # --- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced boundary of the already imported package."""
        from shiftagg import aggregation, density_ratio, harness, models, selection

        def instance_rows(arguments, inst):
            return {"rows": inst.source_x.shape[0] + inst.target_x.shape[0]
                    + inst.target_eval_x.shape[0]}

        def softmax_steps(arguments, result):
            return {"steps": int(arguments["epochs"])}

        def input_rows(arguments, result):
            return {"rows": int(np.shape(arguments["xs"])[0])}

        def pinv_counts(arguments, result):
            dim = int(np.shape(arguments["a"])[0])
            return {"dim": dim, "ops": dim**3}

        def table_slots(arguments, table):
            gate = getattr(table, "extra", {}).get("corruption_gate", [])
            return {"slots": sum(int(entry["total"]) for entry in gate)}

        for fn in ("make_sinc_shift", "make_transformed_moons", "load_csv_instance"):
            self.patch(harness, fn, "datasets", instance_rows)
        self.patch(harness, "fit_ridge", "models.fit")
        self.patch(harness, "fit_softmax_classifier", "models.fit", softmax_steps)
        self.patch(harness, "stack_predictions", "models.predict", self._predict_counts)
        self.patch(aggregation, "stack_predictions", "models.predict", self._predict_counts)
        self.patch(models.CorruptedModel, "predict_many", "models.corrupted", input_rows)
        self.patch(harness, "corrupt", "models.corrupt")
        self.patch(harness, "fit_domain_classifier", "density_ratio.fit")
        for cls in (density_ratio.ConstantRatio, density_ratio.GaussianRatio,
                    density_ratio.LearnedRatio):
            self.patch(cls, "weights", "density_ratio.weights", input_rows)
        for fn in ("iwa", "sor", "tmr", "tcr", "oracle_weights"):
            self.patch(aggregation, fn, "aggregation")
        self.patch(aggregation, "spectral_pinv", "linalg", pinv_counts)
        for fn in ("iwv_select", "dev_select"):
            self.patch(selection, fn, "selection")
        self.patch(harness, "pearson_with_flag", "metrics")
        self.patch(harness, "write_outputs", "plots")
        for fn in ("run_experiment", "run_sensitivity", "run_correlation", "run_rate_check"):
            self.patch(harness, fn, "harness", table_slots)
        return self

    # --- reduction -----------------------------------------------------------

    def layers(self, out_dir):
        """Per-layer metrics (see LAYER_METRICS) from the recorded spans."""
        self_s, calls, totals, maxima = {}, {}, {}, {}
        for span in self.spans:
            own = (span.end - span.start) - span.child_s
            self_s[span.layer] = self_s.get(span.layer, 0.0) + own
            if span.parent is None or span.parent.layer != span.layer:
                calls[span.layer] = calls.get(span.layer, 0) + 1
            for key, value in span.counts.items():
                slot = (span.layer, key)
                totals[slot] = totals.get(slot, 0) + value
                maxima[slot] = max(maxima.get(slot, 0), value)

        def total(layer, key):
            return totals.get((layer, key), 0)

        predict_rows = total("models.predict", "rows")
        candidates = calls.get("models.corrupt", 0)
        files, size = 0, 0
        for dirpath, _, names in os.walk(out_dir):
            for file_name in names:
                files += 1
                size += os.path.getsize(os.path.join(dirpath, file_name))
        return {
            "datasets.s": self_s.get("datasets", 0.0),
            "datasets.calls": calls.get("datasets", 0),
            "datasets.rows": total("datasets", "rows"),
            "models.fit_s": self_s.get("models.fit", 0.0),
            "models.fit_calls": calls.get("models.fit", 0),
            "models.fit_steps": total("models.fit", "steps"),
            "models.predict_s": self_s.get("models.predict", 0.0),
            "models.predict_rows": predict_rows,
            "models.predict_bytes": total("models.predict", "bytes"),
            "models.predict_unique_ratio": self.unique_rows / predict_rows if predict_rows else 0.0,
            "models.corrupted_s": self_s.get("models.corrupted", 0.0)
            + self_s.get("models.corrupt", 0.0),
            "models.corrupted_rows": total("models.corrupted", "rows"),
            "models.corrupt_candidates": candidates,
            "models.corrupt_accept_ratio": (
                total("harness", "slots") / candidates if candidates else 0.0),
            "density_ratio.fit_s": self_s.get("density_ratio.fit", 0.0),
            "density_ratio.fit_calls": calls.get("density_ratio.fit", 0),
            "density_ratio.weights_s": self_s.get("density_ratio.weights", 0.0),
            "density_ratio.weights_rows": total("density_ratio.weights", "rows"),
            "aggregation.s": self_s.get("aggregation", 0.0),
            "aggregation.calls": calls.get("aggregation", 0),
            "aggregation.gram_dim_max": maxima.get(("linalg", "dim"), 0),
            "linalg.pinv_s": self_s.get("linalg", 0.0),
            "linalg.pinv_calls": calls.get("linalg", 0),
            "linalg.pinv_ops": total("linalg", "ops"),
            "selection.s": self_s.get("selection", 0.0),
            "selection.calls": calls.get("selection", 0),
            "metrics.s": self_s.get("metrics", 0.0),
            "metrics.calls": calls.get("metrics", 0),
            "plots.s": self_s.get("plots", 0.0),
            "plots.files": files,
            "plots.bytes": size,
            "harness.self_s": self_s.get("harness", 0.0),
        }
