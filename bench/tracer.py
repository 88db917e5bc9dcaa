"""Spans around the public functions of each package layer, installed from
the benchmark's own files.

The tracer replaces a function with a timing wrapper at every module
attribute through which the package looks it up (``training`` imports
``forward_batch`` by name, ``metrics`` imports ``svd`` and ``router_probs``
by name, and so on) and restores the originals on ``uninstall``. Each call
becomes a :class:`Span` with a name, the layer it belongs to, its parent span,
the segment of the run it fell in (``setup``, ``unit3``, ``probes``, ...) and an
optional role. Spans stay in memory until the run ends.

A span's self time is its duration minus the time covered by its direct child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

from moegather import gather as gather_mod
from moegather import metrics as metrics_mod
from moegather import model as model_mod
from moegather import training
from moegather.workbench import checkpoint as ckpt_mod
from moegather.workbench import data as data_mod
from moegather.workbench import pipeline as pipeline_mod

LAYERS = (
    "workbench.data",
    "workbench.pipeline",
    "training",
    "model",
    "gather",
    "numerics",
    "metrics",
    "workbench.checkpoint",
)


class Span:
    __slots__ = ("name", "layer", "parent", "segment", "role", "ref", "start", "end", "child_s", "value")

    def __init__(self, name, layer, parent, segment):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.segment = segment
        self.role = None
        self.ref = None  # object a child's role may depend on; cleared when the call ends
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.value = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def parent_name(self) -> str | None:
        return self.parent.name if self.parent is not None else None


def _forward_role(tracer, parent, args, kwargs):
    if tracer.tag is not None:
        return tracer.tag
    if parent is not None and parent.ref is not None and args[0] is parent.ref:
        return "distill_teacher"
    return parent.name if parent is not None else "direct"


def _step_role(tracer, parent, args, kwargs):
    distill = kwargs.get("distill")
    if kwargs.get("teacher") is not None and distill is not None and distill.mode != "none":
        return "distill"
    return "teach" if args[0].arch.stage == "moe" else "dense"


def _step_ref(args, kwargs):
    return kwargs.get("teacher")


def _train_role(tracer, parent, args, kwargs):
    return "teach" if args[0].arch.stage == "moe" else "dense"


def _gather_role(tracer, parent, args, kwargs):
    return args[1].method


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[2])


# (span name, layer, role, ref, value, [(module, attribute), ...])
_FULL = (
    ("data.generate_dataset", "workbench.data", None, None, None,
     [(data_mod, "generate_dataset"), (pipeline_mod, "generate_dataset")]),
    ("pipeline.run_pipeline", "workbench.pipeline", None, None, None, [(pipeline_mod, "run_pipeline")]),
    ("training.train_classifier", "training", _train_role, None, None,
     [(training, "train_classifier"), (pipeline_mod, "train_classifier")]),
    ("training.distill_student", "training", None, None, None,
     [(training, "distill_student"), (pipeline_mod, "distill_student")]),
    ("training.loss_and_grads", "training", _step_role, _step_ref, None, [(training, "loss_and_grads")]),
    ("training.backward_from_logits", "training", None, None, None, [(training, "backward_from_logits")]),
    ("training.optimizer_step", "training", None, None, None, [(training, "optimizer_step")]),
    ("training.evaluate_accuracy", "training", None, None, None, [(training, "evaluate_accuracy")]),
    ("model.forward_batch", "model", _forward_role, None, None,
     [(training, "forward_batch"), (model_mod, "forward_batch")]),
    ("model.layer_norm", "model", None, None, None, [(model_mod, "layer_norm")]),
    ("gather.build_student", "gather", _gather_role, None, None,
     [(gather_mod, "build_student"), (pipeline_mod, "build_student")]),
    ("gather.svdkg_merge", "gather", None, None, None, [(gather_mod, "svdkg_merge"), (metrics_mod, "svdkg_merge")]),
    # numerics.svd recurses through its own module global for wide matrices;
    # wrapping only the importers counts each caller-level decomposition once.
    ("numerics.svd", "numerics", None, None, None, [(gather_mod, "svd"), (metrics_mod, "svd")]),
    # router_probs is model code; the name records the caller that drives it.
    ("metrics.router_probs", "model", None, None, None, [(metrics_mod, "router_probs")]),
    ("metrics.noise_scan", "metrics", None, None, None, [(metrics_mod, "noise_scan")]),
    ("checkpoint.save", "workbench.checkpoint", None, None, _bytes_written,
     [(ckpt_mod, "save_checkpoint"), (pipeline_mod, "save_checkpoint")]),
    ("checkpoint.load", "workbench.checkpoint", None, None, None, [(ckpt_mod, "load_checkpoint")]),
)

# The untraced run keeps only the pipeline's two training entry points, a
# handful of calls per pipeline, to split its wall time into training time.
_STAGE_CLOCK = tuple(p for p in _FULL if p[0] in ("training.train_classifier", "training.distill_student"))


class Tracer:
    def __init__(self, full: bool = True):
        self.spans: list[Span] = []
        self.segment = "setup"
        self.tag: str | None = None  # role given by the benchmark to the next forward passes
        self.after: dict = {}  # span name -> callable run after each such call returns
        self._stack: list[Span] = []
        self._plan = _FULL if full else _STAGE_CLOCK
        self._full = full
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for name, layer, role, ref, value, sites in self._plan:
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, layer, role, ref, value))
        if self._full:
            # activation_with_grad hands out the activation; wrap what it returns
            original = model_mod.activation_with_grad
            self._saved.append((model_mod, "activation_with_grad", original))
            wrapped = {}

            def traced_activation(name):
                fn = original(name)
                if name not in wrapped:
                    wrapped[name] = self._wrap(fn, "model.activation", "model", None, None, None)
                return wrapped[name]

            model_mod.activation_with_grad = traced_activation

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, layer, role, ref, value):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent, self.segment)
            if role is not None:
                span.role = role(self, parent, args, kwargs)
            if ref is not None:
                span.ref = ref(args, kwargs)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.ref = None
                if parent is not None:
                    parent.child_s += span.end - span.start
                spans.append(span)
            if value is not None:
                span.value = value(args, kwargs, result)
            hook = self.after.get(name)
            if hook is not None:
                hook()
            return result

        return traced

    def in_segment(self, segment: str) -> list[Span]:
        return [s for s in self.spans if s.segment == segment]
