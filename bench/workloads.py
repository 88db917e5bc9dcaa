"""The benchmark's three workloads.

Every workload builds its inputs from ``default_config(seed)`` shapes. It
repeats its focus work in *units* until the time budget is spent. It runs
short fixed *probes* of the other two workloads' user-facing operations on
its own models. It checks every output it produces.

* ``pipeline``  - unit: ``run_pipeline`` (teach, dense-scratch, 4 gathers,
  6 distilled students) with fewer teach/distill steps than the default.
* ``inference`` - unit: one scoring round through the teacher and its
  distilled SVD-KG student. Batch 1 runs as a closed loop with one caller,
  then full throughput batches follow. Set-up trains the short teacher and
  student that every workload's probes score.
* ``gather``    - unit: ``build_student`` for sum, avg, topkg and svdkg at
  four ratios, one ``noise_scan`` over ten ratios, and a checkpoint
  save/load round trip of every model. Set-up is the same as ``inference``.

Timings are recorded as (start, end) intervals and converted to seconds at
reference machine speed by a :class:`SpeedMeter`. The per-layer figures of a
traced run are raw span times.
"""

from __future__ import annotations

import gc
import shutil
from collections import Counter, defaultdict
from dataclasses import replace
from time import perf_counter

import jsonschema
import numpy as np

from moegather import gather as gather_mod
from moegather import metrics as metrics_mod
from moegather import model as model_mod
from moegather import numerics, training
from moegather.gather import GatherConfig
from moegather.model import build_classifier, state_hash
from moegather.numerics import Rng
from moegather.workbench import checkpoint as ckpt_mod
from moegather.workbench import data as data_mod
from moegather.workbench import pipeline as pipeline_mod
from moegather.workbench.config import default_config, derive_seed

from harness import Checker, SpeedMeter, mean, median, minor_faults, peak_rss_mb, percentile
from tracer import LAYERS, Tracer

WORKLOADS = ("pipeline", "inference", "gather")
MIN_UNITS = {"pipeline": 2, "inference": 8, "gather": 8}
PLAIN_UNITS = {"pipeline": 1, "inference": 3, "gather": 3}  # untraced units a traced run compares against
GATHER_PLAN = (
    ("sum", None),
    ("avg", None),
    ("topkg", None),
    ("svdkg", 0.25),
    ("svdkg", 0.5),
    ("svdkg", 0.75),
    ("svdkg", 1.0),
)
SCAN_RATIOS = tuple(i / 10 for i in range(1, 11))
ROLES = ("teacher", "student")
LOGIT_TOL = 1e-12
SVD_TOL = 1e-10
TRAINING_SPANS = ("training.train_classifier", "training.distill_student")


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, sizes, tmp, traced: bool):
        self.workload = workload
        self.seconds = seconds
        self.sizes = sizes
        self.tmp = tmp
        self.traced = traced
        cfg = default_config(seed)
        if sizes.train_size is not None:
            cfg.task = replace(cfg.task, train_size=sizes.train_size, test_size=sizes.test_size)
        cfg.teach.steps = sizes.pipeline_teach_steps
        cfg.distill.steps = sizes.pipeline_distill_steps
        self.cfg = cfg
        t, d = cfg.teach, cfg.distill
        students = len(cfg.gather_methods) + 2
        # teach + dense-scratch (teach + distill steps) + every distilled student
        self.pipeline_sequences = t.batch_size * (2 * t.steps + d.steps) + students * d.steps * d.batch_size

        self.tracer = Tracer(full=traced)
        self.meter = SpeedMeter()
        self.checker = Checker()
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.training_runs: list[tuple[int, list[tuple[float, float]]]] = []  # (sequences, intervals)
        self.focus_segments: list[str] = []
        self.student_accs: list[float] = []
        self.models: dict = {}  # role -> model scored at batch 1 and in throughput batches
        self.reference: dict = {}  # role -> held-out logits scored in throughput-batch chunks
        self.served_acc: dict = {}
        self.expert_load: list[float] = []
        self.first_pipeline = None
        self.first_scan = None
        self.units = 0
        self.b1_cursor = 0
        self.batch_cursor = 0

    # -- run loop ---------------------------------------------------------

    def run(self) -> None:
        unit = {
            "pipeline": self._pipeline_unit,
            "inference": self._inference_unit,
            "gather": self._gather_unit,
        }[self.workload]
        self.tracer.install()
        self.meter.start()
        gc.disable()  # collect between units, as timeit does, not inside timed calls
        try:
            self._setup()
            self._warm_up()
            if self.traced:
                self.tracer.uninstall()
                for _ in range(PLAIN_UNITS[self.workload]):
                    self._unit(unit, "plain_unit")
                self.tracer.install()
            # The probes run in slices spread over the whole measured stretch:
            # on pipeline after each training stage, elsewhere between units
            # once their share of the time budget has passed.
            begin = perf_counter()
            deadline = begin + self.seconds
            slices = self.sizes.probe_slices
            if self.workload == "pipeline":
                for name in TRAINING_SPANS:
                    self.tracer.after[name] = self._probes
            while len(self.focus_segments) < MIN_UNITS[self.workload] or perf_counter() + self._last_unit() < deadline:
                self.focus_segments.append(f"unit{self.units}")
                self._unit(unit, "unit")
                done = len(self.samples["probe"])
                if self.workload != "pipeline" and done < slices and perf_counter() - begin >= done * self.seconds / slices:
                    self._probes()
            self.tracer.after.clear()
            while len(self.samples["probe"]) < slices:
                self._probes()
            self.tracer.segment = "checks"
            self._final_checks()
        finally:
            gc.enable()
            self.meter.stop()
            self.tracer.uninstall()

    def _unit(self, fn, kind: str) -> None:
        gc.collect()
        self.tracer.segment = f"unit{self.units}"
        self.samples[kind].append(fn())
        self.units += 1

    def _last_unit(self) -> float:
        start, end = self.samples["unit"][-1]
        return end - start

    # -- set-up -------------------------------------------------------------

    def _setup(self) -> None:
        self.tracer.segment = "setup"
        for _ in range(self.sizes.setup_reps):
            gc.collect()
            start = perf_counter()
            self.data = data_mod.generate_dataset(self.cfg.task)
            if self.workload != "pipeline":
                teacher, student = self._train_models()
            self.samples["setup"].append((start, perf_counter()))
        if self.workload == "pipeline":  # the probes' models, outside the timed set-up
            teacher, student = self._train_models(record=False)
        self.scan_tokens = self.data[0].tokens.reshape(-1, self.cfg.arch.d_model)[: self.sizes.scan_tokens]
        self._serve(teacher, student)
        self.student_accs = [self.served_acc["student"]]

    def _train_models(self, record: bool = True):
        """A short teacher and its distilled SVD-KG student; ``record`` adds
        their training time to ``train_seq_per_s``."""
        tc = replace(self.cfg.teach, steps=self.sizes.setup_teacher_steps, eval_every=0)
        dc = replace(self.cfg.distill, steps=self.sizes.setup_distill_steps, eval_every=0)
        model = build_classifier(self.cfg.arch, Rng(tc.seed).derive("init"))
        start = perf_counter()
        teacher = training.train_classifier(model, tc, self.data).model
        middle = perf_counter()
        student, _ = gather_mod.build_student(teacher, self._gather_config("svdkg", self.cfg.svd_ratio))
        resume = perf_counter()
        student = training.distill_student(student, teacher, dc, self.data).model
        sequences = tc.steps * tc.batch_size + dc.steps * dc.batch_size
        if record:
            self.training_runs.append((sequences, [(start, middle), (resume, perf_counter())]))
        return teacher, student

    def _warm_up(self) -> None:
        self.tracer.segment = "warmup"
        train = self.data[0]
        moe = build_classifier(self.cfg.arch, Rng(0))
        for _ in range(3):
            training.loss_and_grads(moe, train.tokens[:64], train.labels[:64], balance_coeff=0.01)
        for model in (moe, build_classifier(self.cfg.arch.dense_twin(), Rng(0))):
            for i in range(20):
                model_mod.forward_batch(model, train.tokens[i : i + 1])
            model_mod.forward_batch(model, train.tokens[: self.sizes.batch])

    def _serve(self, teacher, student) -> None:
        """Fix the models scored at batch 1 and in batches, with reference logits."""
        self.models = {"teacher": teacher, "student": student}
        test = self.data[1]
        b = self.sizes.batch
        for role, model in self.models.items():
            logits = np.concatenate(
                [model_mod.forward_batch(model, test.tokens[i : i + b])[0] for i in range(0, len(test), b)]
            )
            self.reference[role] = logits
            acc = float(np.mean(np.argmax(logits, axis=1) == test.labels))
            self.served_acc[role] = acc
            self.checker.check(
                acc == training.evaluate_accuracy(model, test.tokens, test.labels),
                f"{role}: argmax accuracy of the scored logits differs from evaluate_accuracy",
            )
        _, cache = model_mod.forward_batch(teacher, test.tokens[:b])
        for blk in cache["blocks"]:
            load = np.bincount(blk["stage"]["sel"].ravel(), minlength=teacher.arch.num_experts)
            self.expert_load.append(float(load.max() / load.mean()))

    # -- focus units ----------------------------------------------------------

    def _pipeline_unit(self) -> tuple[float, float]:
        segment = self.tracer.segment
        out = self.tmp / f"pipeline-{self.units}"
        self.cfg.out_dir = str(out)
        start = perf_counter()
        summary = pipeline_mod.run_pipeline(self.cfg)
        interval = (start, perf_counter())
        stages = [(s.start, s.end) for s in self.tracer.in_segment(segment) if s.name in TRAINING_SPANS]
        if stages:  # none while a traced run has the tracer removed
            self.training_runs.append((self.pipeline_sequences, stages))
        self.tracer.segment = "checks"
        outcome = {k: summary[k] for k in ("teacher", "teacher_sha256", "variants")}
        if self.first_pipeline is None:
            self.first_pipeline = outcome
            self._check_pipeline(summary, out)
        else:
            self.checker.check(outcome == self.first_pipeline, "pipeline: a repeated run of one seed gave other results")
        self.tracer.segment = segment
        shutil.rmtree(out)
        return interval

    def _check_pipeline(self, summary: dict, out) -> None:
        try:
            pipeline_mod.validate_summary(summary)
            valid = True
        except jsonschema.ValidationError:
            valid = False
        self.checker.check(valid, "pipeline: summary fails validate_summary")
        self.checker.check(
            summary["teacher_sha256"] == summary["teacher_sha256_final"],
            "pipeline: teacher checkpoint changed during the run",
        )
        test = self.data[1]
        scored = [("teacher", summary["teacher"]["checkpoint"], summary["teacher"]["accuracy"])]
        scored += [(v["variant"], v["checkpoint"], v["accuracy"]) for v in summary["variants"]]
        for name, filename, reported in scored:
            model, _ = ckpt_mod.load_checkpoint(out / filename)
            self._round_trip(name, model)
            acc = training.evaluate_accuracy(model, test.tokens, test.labels)
            self.checker.check(acc == reported, f"pipeline: {name} re-scores to {acc}, reported {reported}")
        self.student_accs = [v["accuracy"] for v in summary["variants"] if v["variant"] != "dense_scratch"]

    def _inference_unit(self) -> tuple[float, float]:
        start = perf_counter()
        self._score_b1(self.sizes.b1_per_round)
        self._score_batches(self.sizes.batches_per_round)
        return start, perf_counter()

    def _gather_unit(self) -> tuple[float, float]:
        start = perf_counter()
        students = {}
        for method, ratio in GATHER_PLAN:
            students[method if ratio is None else f"{method}{ratio}"] = self._build(method, ratio)
        self._scan()
        for name, model in [("teacher", self.models["teacher"]), *students.items()]:
            self._round_trip(name, model)
        return start, perf_counter()

    # -- operations -------------------------------------------------------------

    def _score_b1(self, n: int) -> None:
        tokens = self.data[1].tokens
        forward = model_mod.forward_batch
        for _ in range(n):
            i = self.b1_cursor % len(tokens)
            self.b1_cursor += 1
            x = tokens[i : i + 1]
            for role in ROLES:
                self.tracer.tag = f"b1.{role}"
                start = perf_counter()
                logits, _ = forward(self.models[role], x)
                self.samples[f"{role}_b1"].append((start, perf_counter()))
                self.checker.close(logits[0], self.reference[role][i], LOGIT_TOL, f"{role}: batch-1 logits of sequence {i}")
        self.tracer.tag = None

    def _score_batches(self, n: int) -> None:
        tokens = self.data[1].tokens
        b = self.sizes.batch
        forward = model_mod.forward_batch
        for _ in range(n):
            j = self.batch_cursor % (len(tokens) // b)
            self.batch_cursor += 1
            x = tokens[j * b : (j + 1) * b]
            for role in ROLES:
                self.tracer.tag = f"b512.{role}"
                start = perf_counter()
                logits, _ = forward(self.models[role], x)
                self.samples[f"{role}_batch"].append((start, perf_counter()))
                self.checker.close(logits, self.reference[role][j * b : (j + 1) * b], LOGIT_TOL, f"{role}: batch {j} logits")
        self.tracer.tag = None

    def _gather_config(self, method: str, ratio: float | None) -> GatherConfig:
        return GatherConfig(method=method, svd_ratio=ratio, seed=derive_seed(self.cfg.seed, f"gather-{method}"))

    def _build(self, method: str, ratio: float | None):
        cfg = self._gather_config(method, ratio)
        start = perf_counter()
        student, _ = gather_mod.build_student(self.models["teacher"], cfg)
        if method == "svdkg":
            self.samples["gather_svdkg"].append((start, perf_counter()))
        return student

    def _scan(self) -> None:
        stage = self.models["teacher"].blocks[0].stage
        start = perf_counter()
        rows = metrics_mod.noise_scan(stage, SCAN_RATIOS, self.scan_tokens)
        self.samples["noise_scan"].append((start, perf_counter()))
        if self.first_scan is None:
            self.first_scan = rows
            finite = all(np.isfinite([r.mean_signal_norm, r.mean_noise_norm]).all() for r in rows)
            self.checker.check(len(rows) == len(SCAN_RATIOS) and finite, "noise_scan: wrong row count or non-finite norms")
        else:
            self.checker.check(rows == self.first_scan, "noise_scan: repeated scans of one teacher differ")

    def _round_trip(self, name: str, model):
        path = self.tmp / f"{name}.ckpt"
        ckpt_mod.save_checkpoint(model, {"role": name}, path)
        loaded, _ = ckpt_mod.load_checkpoint(path)
        self.checker.check(state_hash(loaded) == state_hash(model), f"checkpoint round trip of {name} changed state_hash")
        return loaded

    def _probes(self) -> None:
        """One slice of the other workloads' operations."""
        slices = self.sizes.probe_slices
        segment = self.tracer.segment
        self.tracer.segment = "probes"
        start = perf_counter()
        if self.workload != "inference":
            self._score_b1(-(-self.sizes.probe_b1 // slices))
            self._score_batches(-(-self.sizes.probe_batches // slices))
        if self.workload != "gather":
            for _ in range(-(-self.sizes.probe_gathers // slices)):
                self._build("svdkg", self.cfg.svd_ratio)
                self._scan()
        self.samples["probe"].append((start, perf_counter()))
        if len(self.samples["probe"]) == slices:
            self.tracer.after.clear()
        self.tracer.segment = segment

    def _final_checks(self) -> None:
        teacher = self.models["teacher"]
        for prefix, stage in teacher.stages():
            for e, expert in enumerate(stage.experts):
                for name in ("w1", "w2"):
                    w = getattr(expert, name)
                    f = numerics.svd(w)
                    what = f"svd of {prefix}.expert{e}.{name}"
                    self.checker.close(f.reconstruct(), w, SVD_TOL, f"{what}: reconstruction")
                    self.checker.close(f.U.T @ f.U, np.eye(f.rank), SVD_TOL, f"{what}: U orthonormality")
                    self.checker.close(f.V.T @ f.V, np.eye(f.rank), SVD_TOL, f"{what}: V orthonormality")
        summed, _ = gather_mod.build_student(teacher, self._gather_config("sum", None))
        full, _ = gather_mod.build_student(teacher, self._gather_config("svdkg", 1.0))
        for (prefix, a), (_, b) in zip(summed.stages(), full.stages()):
            self.checker.close(b.w1, a.w1, SVD_TOL, f"svdkg at ratio 1.0 vs sum, {prefix}.w1")
            self.checker.close(b.w2, a.w2, SVD_TOL, f"svdkg at ratio 1.0 vs sum, {prefix}.w2")

    # -- results ----------------------------------------------------------------

    def _timings(self, seconds_of) -> dict[str, tuple[float, str]]:
        def sec(name):
            return seconds_of(self.samples[name])

        b = self.sizes.batch
        rates = [n / seconds_of(intervals).sum() for n, intervals in self.training_runs]
        return {
            "setup_s": (median(sec("setup")), "s"),
            "wall_s": (median(self._unit_seconds(seconds_of)), "s"),
            "train_seq_per_s": (median(rates), "1/s"),
            "teacher_b1_ms_mean": (1e3 * mean(sec("teacher_b1")), "ms"),
            "student_b1_ms_mean": (1e3 * mean(sec("student_b1")), "ms"),
            "teacher_b512_seq_per_s": (b / mean(sec("teacher_batch")), "1/s"),
            "student_b512_seq_per_s": (b / mean(sec("student_batch")), "1/s"),
            "gather_svdkg_ms_mean": (1e3 * mean(sec("gather_svdkg")), "ms"),
            "noise_scan_ms": (1e3 * mean(sec("noise_scan")), "ms"),
        }

    def _unit_seconds(self, seconds_of, kind: str = "unit") -> np.ndarray:
        """Focus unit times without the probe slices that ran inside them."""
        units = np.asarray(self.samples[kind], dtype=float).reshape(-1, 2)
        probes = np.asarray(self.samples["probe"], dtype=float).reshape(-1, 2)
        probe_s = seconds_of(probes)
        out = seconds_of(units)
        for i, (start, end) in enumerate(units):
            out[i] -= probe_s[(probes[:, 0] >= start) & (probes[:, 1] <= end)].sum()
        return out

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        t = self._timings(self.meter.normalize)
        t["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return t

    def info(self) -> dict:
        """Figures recorded beside the metrics but not gated."""
        t = self._timings(self.meter.normalize)
        raw = self._timings(lambda intervals: np.array([end - start for start, end in intervals]))
        tails = {
            f"{role}_b1_ms_{stat}": 1e3 * percentile(self.meter.normalize(self.samples[f"{role}_b1"]), q)
            for role in ROLES
            for stat, q in (("p50", 50), ("p90", 90), ("p99", 99))
        }
        return {
            "units": len(self.samples["unit"]),
            "samples": {k: len(v) for k, v in sorted(self.samples.items())},
            # deterministic per seed, but its spread between seeds is too wide to gate
            "mean_student_acc": float(np.mean(self.student_accs)),
            # too noisy on a shared host to gate: see README
            "b1_latency": tails,
            "student_over_teacher_b1": t["student_b1_ms_mean"][0] / t["teacher_b1_ms_mean"][0],
            "student_over_teacher_b512_throughput": t["student_b512_seq_per_s"][0] / t["teacher_b512_seq_per_s"][0],
            "throughput_batch": self.sizes.batch,
            "error_rate": len(self.checker.failures) / max(self.checker.attempted, 1),
            "raw": {k: v for k, (v, _) in raw.items()},
            "calibration": self.meter.summary(),
            "minor_faults": minor_faults(),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        units = [_unit_figures(self.tracer.in_segment(seg)) for seg in self.focus_segments]
        counts = [u[0] for u in units]
        self.checker.check(
            all(c == counts[0] for c in counts),
            f"per-unit counts differ between units of one run: {counts}",
        )
        out = dict(counts[0])
        for name in units[0][1]:
            out[name] = (median([u[1][name] for u in units]), "s")

        # per-call medians cover set-up, probes and units, not warm-up or checks
        spans = [x for x in self.tracer.spans if x.segment not in ("warmup", "checks")]

        def ms_p50(name, role=None):
            return 1e3 * median([x.seconds for x in spans if x.name == name and (role is None or x.role == role)])

        out["data.generate_dataset.s"] = (ms_p50("data.generate_dataset") / 1e3, "s")
        for role in ("teach", "dense", "distill"):
            out[f"training.step.{role}.ms_p50"] = (ms_p50("training.loss_and_grads", role), "ms")
        for size in ("b1", "b512"):
            for role in ROLES:
                out[f"model.forward_batch.{size}.{role}.ms_p50"] = (ms_p50("model.forward_batch", f"{size}.{role}"), "ms")
        for i, load in enumerate(self.expert_load):
            out[f"model.expert_load.block{i}.max_over_mean"] = (load, "ratio")
        for method in gather_mod.GATHER_METHODS:
            out[f"gather.build_student.{method}.ms"] = (ms_p50("gather.build_student", method), "ms")
        out["numerics.svd.ms_p50"] = (ms_p50("numerics.svd"), "ms")
        out["checkpoint.save.ms_p50"] = (ms_p50("checkpoint.save"), "ms")
        out["checkpoint.load.ms_p50"] = (ms_p50("checkpoint.load"), "ms")
        traced = median(self._unit_seconds(self.meter.normalize))
        plain = median(self._unit_seconds(self.meter.normalize, "plain_unit"))
        out["trace.overhead_s"] = (traced - plain, "s")
        return out


def _unit_figures(spans) -> tuple[dict, dict]:
    """Counts and seconds of one focus unit, from its spans."""
    calls, secs, layer_self = Counter(), Counter(), Counter()
    in_pipeline = Counter()
    written = 0
    for x in spans:
        calls[x.name, x.role] += 1
        calls[x.name] += 1
        secs[x.name, x.role] += x.seconds
        secs[x.name] += x.seconds
        layer_self[x.layer] += x.self_seconds
        if x.parent_name == "pipeline.run_pipeline":
            in_pipeline[x.name, x.role] += x.seconds
            in_pipeline[x.name] += x.seconds
        if x.name == "checkpoint.save":
            written += x.value
    counts = {
        "model.forward_batch.calls": (calls["model.forward_batch"], "count"),
        "model.forward_batch.distill_teacher.calls": (calls["model.forward_batch", "distill_teacher"], "count"),
        "model.layer_norm.calls": (calls["model.layer_norm"], "count"),
        "training.optimizer_step.calls": (calls["training.optimizer_step"], "count"),
        "training.evaluate_accuracy.calls": (calls["training.evaluate_accuracy"], "count"),
        "gather.svdkg_merge.calls": (calls["gather.svdkg_merge"], "count"),
        "numerics.svd.calls": (calls["numerics.svd"], "count"),
        "metrics.router_probs.calls": (calls["metrics.router_probs"], "count"),
        "checkpoint.bytes_written": (written, "bytes"),
    }
    seconds = {
        "pipeline.teach.s": in_pipeline["training.train_classifier", "teach"],
        "pipeline.dense_scratch.s": in_pipeline["training.train_classifier", "dense"],
        "pipeline.distill.s": in_pipeline["training.distill_student"],
        "pipeline.gather.s": in_pipeline["gather.build_student"],
        "training.backward_from_logits.s": secs["training.backward_from_logits"],
        "training.optimizer_step.s": secs["training.optimizer_step"],
        "training.evaluate_accuracy.s": secs["training.evaluate_accuracy"],
        "model.forward_batch.distill_teacher.s": secs["model.forward_batch", "distill_teacher"],
        "model.layer_norm.s": secs["model.layer_norm"],
        "model.activation.s": secs["model.activation"],
        "gather.svdkg_merge.s": secs["gather.svdkg_merge"],
        "metrics.noise_scan.s": secs["metrics.noise_scan"],
    }
    seconds.update({f"layer.{layer}.self_s": layer_self[layer] for layer in LAYERS})
    return counts, seconds
