import csv
import io
import json
import os
import pickle
import shlex
import signal
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from moegather import training
from moegather.metrics import UndefinedMetricError, noise_scan
from moegather.model import ClassifierModel, state_hash
from moegather.training import batch_schedule
from moegather.workbench import cli
from moegather.workbench import pipeline as pipeline_mod
from moegather.workbench import worker as worker_mod
from moegather.workbench.checkpoint import _HEADER, MAGIC, load_checkpoint, save_checkpoint
from moegather.workbench.config import config_from_dict
from moegather.workbench.data import SyntheticTaskSpec, generate_dataset
from moegather.workbench.pipeline import PipelineError, run_pipeline


def _documented_commands():
    return [
        shlex.split(line.strip())[1:]
        for line in cli.__doc__.splitlines()
        if line.strip().startswith("moegather ")
    ]


@pytest.mark.parametrize("argv", _documented_commands(), ids=lambda argv: argv[0])
def test_documented_command_lines_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


@pytest.mark.parametrize("flag", ["--split"])
def test_eval_split_spellings(flag):
    assert cli.build_parser().parse_args(["eval", "--model", "m.ckpt", flag, "train"]).split == "train"


TINY_CONFIG = {
    "seed": 0,
    "model": {"d_model": 8, "d_ff": 8, "seq_len": 4, "num_classes": 3, "num_blocks": 2,
              "stage": "moe", "num_experts": 2, "top_k": 1},
    "task": {"kind": "gaussian_mixture", "num_classes": 3, "d_model": 8, "seq_len": 4,
             "train_size": 200, "test_size": 60, "modes_per_class": 2},
    "teach": {"steps": 6, "batch_size": 16, "eval_every": 3},
    "distill": {"steps": 4, "batch_size": 16, "eval_every": 2},
    "gather": {"methods": ["svdkg"]},
}


def _run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """Directory of run_pipeline's artifacts for TINY_CONFIG."""
    out = tmp_path_factory.mktemp("pipeline")
    run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(out)}))
    return out


def test_stage_commands_reproduce_the_pipeline(pipe, tmp_path, capsys):
    config = tmp_path / "c.json"
    for seed in (TINY_CONFIG["seed"], 7):
        config.write_text(json.dumps({**TINY_CONFIG, "seed": seed}))
        if seed == TINY_CONFIG["seed"]:
            want = pipe
        else:  # the seed reaches every stage through the config
            want = tmp_path / f"pipeline-{seed}"
            run_pipeline(config_from_dict({**TINY_CONFIG, "seed": seed, "out_dir": str(want)}))
            assert (want / "teacher.ckpt").read_bytes() != (pipe / "teacher.ckpt").read_bytes()
        got = tmp_path / f"cli-{seed}"
        got.mkdir()
        teacher, init = got / "teacher.ckpt", got / "gather_svdkg.init.ckpt"
        _run(["teach", "--config", config, "--out", teacher], capsys)
        out = _run(["gather", "--config", config, "--teacher", teacher, "--method", "svdkg", "--out", init], capsys)
        assert Path(out["report"]) == got / "gather_svdkg.report.json"  # the name the pipeline gives it
        assert Path(out["report"]).read_bytes() == (want / "gather_svdkg.report.json").read_bytes()
        _run(["distill", "--config", config, "--student", init, "--teacher", teacher,
              "--out", got / "gather_svdkg.ckpt"], capsys)
        for name in ("teacher.ckpt", "teacher.log.csv", "gather_svdkg.init.ckpt", "gather_svdkg.ckpt",
                     "gather_svdkg.log.csv"):
            assert (got / name).read_bytes() == (want / name).read_bytes(), (seed, name)

    scan = tmp_path / "scan.csv"
    assert _run(["noise-scan", "--teacher", teacher, "--lambdas", "0.25:1.0:0.25", "--tokens", 64,
                 "--out", scan], capsys)["rows"] == 4
    header, *rows = csv.reader(scan.read_text().splitlines())
    assert header == _schema("csv_columns.json")["noise_scan"]
    model, meta = load_checkpoint(teacher)
    task = SyntheticTaskSpec.from_dict(meta["task"])
    tokens = generate_dataset(task)[0].tokens.reshape(-1, task.d_model)[:64]
    want = noise_scan(model.blocks[0].stage, [0.25, 0.5, 0.75, 1.0], tokens)
    assert [[float(x) for x in row] for row in rows] == [
        [r.svd_ratio, r.mean_signal_norm, r.mean_noise_norm, r.noise_signal_ratio, r.mean_selected_gate] for r in want
    ]


def _schema(name: str):
    return json.loads(resources.files("moegather.schemas").joinpath(name).read_text())


def test_gather_reports_follow_their_schema_and_match_the_init_checkpoint(pipe):
    schema = _schema("gather_report.schema.json")
    paths = sorted(pipe.glob("gather_*.report.json"))
    assert [p.name for p in paths] == ["gather_svdkg.report.json"]  # TINY_CONFIG gathers svdkg only
    for path in paths:
        report = json.loads(path.read_text())
        jsonschema.validate(report, schema)
        _, meta = load_checkpoint(path.with_name(path.name.removesuffix(".report.json") + ".init.ckpt"))
        assert meta["gather"]["report"] == report


@pytest.mark.parametrize("command", ["gather", "distill"])
def test_checkpoint_task_must_match_the_config(pipe, tmp_path, capsys, command):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "task": {**TINY_CONFIG["task"], "train_size": 100}}))
    teacher = pipe / "teacher.ckpt"
    argv = {"gather": ["--method", "svdkg"], "distill": ["--student", pipe / "gather_svdkg.init.ckpt"]}[command]
    out = tmp_path / "s.ckpt"
    assert cli.main([str(a) for a in [command, "--config", config, "--teacher", teacher, *argv, "--out", out]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "task differs from the config's" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "noise-scan"])
@pytest.mark.parametrize("bad_task", ["unknown-key", "retired-key", "not-an-object"])
def test_bad_task_metadata_is_a_checkpoint_error(pipe, tmp_path, capsys, command, bad_task):
    model, meta = load_checkpoint(pipe / "teacher.ckpt")
    # a retired key is one that checkpoints of an earlier task kind recorded
    extra = {"unknown-key": {"colour": "red"}, "retired-key": {"parity_bits": 2}}
    meta["task"] = {**meta["task"], **extra[bad_task]} if bad_task in extra else 5
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(model, meta, bad)
    argv = {"eval": ["eval", "--model", bad], "noise-scan": ["noise-scan", "--teacher", bad, "--out", tmp_path / "s.csv"]}
    assert cli.main([str(a) for a in argv[command]]) == 1
    assert capsys.readouterr().err.startswith(f"error: checkpoint: {bad}: bad task metadata: ")


@pytest.mark.parametrize("command", ["eval", "flops", "noise-scan"])
def test_a_checkpoint_recording_parameter_sharing_is_a_checkpoint_error(pipe, tmp_path, capsys, command):
    # checkpoints written while parameter sharing was a setting record it in their architecture
    raw = (pipe / "teacher.ckpt").read_bytes()
    _, version, meta_len = _HEADER.unpack_from(raw)
    meta = json.loads(raw[_HEADER.size : _HEADER.size + meta_len])
    meta["architecture"]["parameter_sharing"] = True
    blob = json.dumps(meta, sort_keys=True).encode()
    old = tmp_path / "old.ckpt"
    old.write_bytes(_HEADER.pack(MAGIC, version, len(blob)) + blob + raw[_HEADER.size + meta_len :])
    args = {"eval": ["--model", old], "flops": ["--model", old],
            "noise-scan": ["--teacher", old, "--out", tmp_path / "s.csv"]}[command]
    assert cli.main([command, *map(str, args)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint: bad architecture block: ") and "parameter_sharing" in err, err


def test_scoring_commands_match_the_pipeline(pipe, tmp_path, capsys):
    summary = json.loads((pipe / "summary.json").read_text())
    variants = {v["variant"]: v for v in summary["variants"]}
    student, teacher = variants["gather_svdkg"], summary["teacher"]

    scores = tmp_path / "scores.json"
    out = _run(["eval", "--model", pipe / "gather_svdkg.ckpt", "--split", "test", "--out", scores], capsys)
    assert out["accuracy"] == student["accuracy"]
    assert json.loads(scores.read_text()) == out

    out = _run(["benefits", "--student", student["accuracy"], "--dense", variants["dense_scratch"]["accuracy"],
                "--moe", teacher["accuracy"]], capsys)
    assert out["benefits"] == student["benefits"]

    for ckpt, entry in (("teacher.ckpt", teacher), ("gather_svdkg.ckpt", student)):
        out = _run(["flops", "--model", pipe / ckpt], capsys)
        assert [s["flops_per_token"] for s in out["per_stage"]] == [entry["flops_per_token"]]
        assert out["parameters"] == entry["parameters"]


def test_pipeline_command_writes_the_pipeline_artifacts(pipe, tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(out_dir)}))
    assert _run(["pipeline", "--config", config], capsys) == {"out_dir": str(out_dir), "variants": 4}

    _assert_same_files(out_dir, pipe)


def _assert_same_files(ours: Path, theirs: Path) -> None:
    """The two output directories hold the same files with the same bytes,
    apart from the out_dir that config.json and summary.json record."""
    names = sorted(p.name for p in theirs.iterdir())
    assert sorted(p.name for p in ours.iterdir()) == names
    for name in names:
        got = (ours / name).read_bytes()
        if name in ("config.json", "summary.json"):
            got = got.replace(str(ours).encode(), str(theirs).encode())
        assert got == (theirs / name).read_bytes(), name


def _one_lane(monkeypatch) -> None:
    """Run the pipeline inline, so that what a test patches here reaches every stage."""
    monkeypatch.setattr(pipeline_mod, "_lane_count", lambda: 1)


@pytest.fixture
def workers(monkeypatch):
    """The workers that run_pipeline starts, on two lanes whatever the CPU count."""
    started = []

    class Recorded(pipeline_mod._Worker):
        def _start(self):
            super()._start()
            started.append(self)

    monkeypatch.setattr(pipeline_mod, "_Worker", Recorded)
    monkeypatch.setattr(pipeline_mod, "_lane_count", lambda: 2)
    return started


def _assert_no_worker_left(workers) -> None:
    assert workers and all(w.proc.returncode is not None for w in workers)
    with pytest.raises(ChildProcessError):  # no child at all, not even an unreaped one
        os.waitpid(-1, os.WNOHANG)


def test_two_lanes_write_the_bytes_of_one(tmp_path, monkeypatch, workers):
    raw = {**TINY_CONFIG, "gather": {"methods": ["sum", "svdkg"]}}  # two students on each lane
    run_pipeline(config_from_dict({**raw, "out_dir": str(tmp_path / "two")}))
    _assert_no_worker_left(workers)
    _one_lane(monkeypatch)
    run_pipeline(config_from_dict({**raw, "out_dir": str(tmp_path / "one")}))
    assert len(workers) == 1
    _assert_same_files(tmp_path / "two", tmp_path / "one")


@pytest.mark.parametrize("lanes", [1, 2])
def test_a_lane_forwards_the_teacher_once_over_its_students_schedules(tmp_path, monkeypatch, request, lanes):
    workers = request.getfixturevalue("workers") if lanes == 2 else []
    if lanes == 1:
        _one_lane(monkeypatch)
    real_forward, real_stage, forwards = training.forward_batch, pipeline_mod.distill_stage, []

    def counting(model, tokens, *args, **kwargs):
        forwards.append((model.arch.stage, len(tokens)))
        return real_forward(model, tokens, *args, **kwargs)

    def distill_stage(*args):
        forwards.clear()  # count the main lane's forwards from its distill stage on
        return real_stage(*args)

    monkeypatch.setattr(training, "forward_batch", counting)
    monkeypatch.setattr(pipeline_mod, "distill_stage", distill_stage)
    cfg = config_from_dict({**TINY_CONFIG, "gather": {"methods": ["sum", "svdkg"]}, "out_dir": str(tmp_path)})
    run_pipeline(cfg)
    assert len(workers) == lanes - 1
    mine = ["random_init_kd", "matched_copy_kd", "gather_sum", "gather_svdkg"][: 4 // lanes]
    union = np.unique([batch_schedule(cfg.distill_config(name), cfg.task.train_size) for name in mine])
    b = cfg.distill.batch_size
    assert [size for stage, size in forwards if stage == "moe"] == [b] * -(-len(union) // b)


# what the worker runs in place of its stage task, and the error the stage then fails with
WORKER_FAILURES = {
    "raises": ("raise RuntimeError('worker lane failed')", "worker lane failed"),
    "killed": ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)",
               "the worker process ended with exit status -9"),
    "prints": ("print('stray'); raise RuntimeError('worker lane failed')", "worker lane failed"),
}


@pytest.mark.parametrize("how", WORKER_FAILURES)
@pytest.mark.parametrize("stage, task, callee, fail_at", [
    ("dense-scratch", "_dense_lane", "train_classifier", 2),
    ("distill", "_distill_lane", "distill_student", 3),  # the worker's first student of TINY_CONFIG's three
])
def test_a_failing_worker_is_named_and_leaves_the_one_lane_files(tmp_path, monkeypatch, workers,
                                                                  stage, task, callee, fail_at, how):
    code, message = WORKER_FAILURES[how]
    submit = pipeline_mod._Worker.submit

    def failing(self, fn, *args):
        if fn is getattr(pipeline_mod, task):
            fn, args = exec, (code,)
        submit(self, fn, *args)

    monkeypatch.setattr(pipeline_mod._Worker, "submit", failing)
    with pytest.raises(PipelineError) as info:
        run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(tmp_path / "two")}))
    assert (info.value.stage, str(info.value.cause)) == (stage, message)
    _assert_no_worker_left(workers)

    # the one-lane run whose same student fails
    _one_lane(monkeypatch)
    real, calls = getattr(pipeline_mod, callee), []

    def fail(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise RuntimeError(message)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, callee, fail)
    with pytest.raises(PipelineError) as info:
        run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(tmp_path / "one")}))
    assert info.value.stage == stage
    _assert_same_files(tmp_path / "two", tmp_path / "one")


def test_the_distill_task_carries_the_models_not_their_checkpoints(tmp_path, monkeypatch, workers):
    tasks, submit = [], pipeline_mod._Worker.submit

    def recording(self, fn, *args):
        tasks.append((fn, args))
        submit(self, fn, *args)

    monkeypatch.setattr(pipeline_mod._Worker, "submit", recording)
    run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(tmp_path)}))
    assert [fn for fn, _ in tasks] == [pipeline_mod._dense_lane, pipeline_mod._distill_lane]
    _, teacher, students = tasks[1][1]
    assert list(students) == ["gather_svdkg"]  # the second half of TINY_CONFIG's three students
    for model, path in [(teacher, "teacher.ckpt"), (students["gather_svdkg"], "gather_svdkg.init.ckpt")]:
        assert isinstance(model, ClassifierModel)
        assert state_hash(model) == state_hash(load_checkpoint(tmp_path / path)[0]), path


def test_a_main_lane_failure_kills_the_busy_worker(tmp_path, monkeypatch, workers):
    def fail(*args, **kwargs):
        raise RuntimeError("train_classifier failed")

    monkeypatch.setattr(pipeline_mod, "train_classifier", fail)  # teach, while the worker trains dense-scratch
    with pytest.raises(PipelineError) as info:
        run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(tmp_path)}))
    assert info.value.stage == "teach"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    _assert_no_worker_left(workers)
    assert workers[0].proc.returncode == -signal.SIGKILL


def test_a_pipeline_error_survives_pickling():
    error = pickle.loads(pickle.dumps(PipelineError("teach", ValueError("boom"))))
    assert (type(error), error.stage, str(error)) == (PipelineError, "teach", "stage 'teach' failed: boom")
    assert (type(error.cause), error.cause.args) == (ValueError, ("boom",))


class _TwoArgumentError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_the_worker_sends_an_error_that_does_not_survive_pickling_as_its_text():
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(_TwoArgumentError(1, 2)))
    error = worker_mod._portable(_TwoArgumentError(1, 2))
    assert (type(error), str(error)) == (RuntimeError, "_TwoArgumentError: 1 and 2")


def test_what_the_worker_prints_reaches_stderr_and_not_its_replies(capfd):
    with pipeline_mod._Worker() as worker:
        worker.submit(exec, "print('stray', flush=True); print('end')")
        worker.proc.stdin.close()
        replies = io.BytesIO(worker.proc.stdout.read())  # the worker exits once its stdin closes
    assert worker.proc.returncode == 0
    items, error = pickle.load(replies)
    assert not replies.read()  # one reply and nothing else
    assert (items, type(error)) == ([], TypeError)  # exec is no generator function
    assert capfd.readouterr().err == "stray\nend\n"


# each stage of run_pipeline, the callee on pipeline_mod made to fail at its n-th call there, and the
# files the stage writes for TINY_CONFIG
STAGES = [
    ("data", "generate_dataset", 1, []),
    ("teach", "train_classifier", 1, ["teacher.ckpt", "teacher.log.csv"]),
    ("teach", "file_sha256", 1, []),
    ("dense-scratch", "train_classifier", 2, ["dense_scratch.ckpt", "dense_scratch.log.csv"]),
    ("reference-inits", "model_from_tensors", 1, ["random_init_kd.init.ckpt", "matched_copy_kd.init.ckpt"]),
    ("gather", "build_student", 1, ["gather_svdkg.init.ckpt", "gather_svdkg.report.json"]),
    ("distill", "distill_student", 1, [f"{name}.{ext}" for name in ("random_init_kd", "matched_copy_kd", "gather_svdkg")
                                       for ext in ("ckpt", "log.csv")]),
    ("evaluate", "validate_summary", 1, ["summary.json", "summary.csv"]),
]


def _written(stages) -> list[str]:
    """The files in the output directory once ``stages`` are done."""
    return sorted(["config.json", *(name for *_, names in stages for name in names)])


# a stage's name, plus the failing callee where an earlier entry names the same stage
STAGE_IDS = [stage if stage not in [s for s, *_ in STAGES[:i]] else f"{stage}-{callee}"
             for i, (stage, callee, *_) in enumerate(STAGES)]


@pytest.mark.parametrize("index", range(len(STAGES)), ids=STAGE_IDS)
def test_a_failing_stage_is_named_and_keeps_what_earlier_stages_wrote(pipe, tmp_path, monkeypatch, capsys, index):
    assert sorted(p.name for p in pipe.iterdir()) == _written(STAGES)
    _one_lane(monkeypatch)
    stage, callee, fail_at, _ = STAGES[index]
    kept = _written(STAGES[:index])
    real, calls = getattr(pipeline_mod, callee), []

    def fail(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise RuntimeError(f"{callee} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, callee, fail)
    with pytest.raises(PipelineError) as info:
        run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(tmp_path / "lib")}))
    assert info.value.stage == stage
    assert sorted(p.name for p in (tmp_path / "lib").iterdir()) == kept

    calls.clear()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(tmp_path / "cli")}))
    assert cli.main(["pipeline", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: pipeline: stage={stage}: {callee} failed\n"
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == kept


def test_no_student_shares_memory_with_the_teacher(tmp_path, monkeypatch):
    # covers the reference inits, assembled in the pipeline, and the gathered students
    seen, real = [], pipeline_mod.distill_student

    def recording(student, teacher, dcfg, *args):
        seen.append((student, teacher))
        return real(student, teacher, dcfg, *args)

    monkeypatch.setattr(pipeline_mod, "distill_student", recording)
    _one_lane(monkeypatch)
    run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(tmp_path)}))
    assert len(seen) == 3
    for student, teacher in seen:
        for name, s in student.tensors().items():
            assert not any(np.shares_memory(s, t) for t in teacher.tensors().values()), name


def _summary_with_benefits(tmp_path, monkeypatch, ratio):
    """The summary.json and summary.csv rows of a one-lane run whose every
    benefit ratio is ``ratio()``."""
    monkeypatch.setattr(pipeline_mod, "moe_benefits", lambda *scores: ratio())
    _one_lane(monkeypatch)
    run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(tmp_path)}))
    summary = json.loads((tmp_path / "summary.json").read_text())
    pipeline_mod.validate_summary(summary)
    return summary, list(csv.DictReader((tmp_path / "summary.csv").read_text().splitlines()))


def test_an_undefined_benefit_ratio_is_null_for_every_variant(tmp_path, monkeypatch):
    def undefined():
        raise UndefinedMetricError("score_moe equals score_dense; benefit ratio undefined")

    summary, rows = _summary_with_benefits(tmp_path, monkeypatch, undefined)
    names = ["dense_scratch", "random_init_kd", "matched_copy_kd", "gather_svdkg"]
    assert {v["variant"]: v["benefits"] for v in summary["variants"]} == dict.fromkeys(names)
    assert {row["variant"]: row["benefits"] for row in rows} == dict.fromkeys(names, "")


def test_a_zero_benefit_ratio_is_written_without_a_sign(tmp_path, monkeypatch):
    # (dense - dense) / (moe - dense) with the teacher below dense-scratch is -0.0
    summary, rows = _summary_with_benefits(tmp_path, monkeypatch, lambda: -0.0)
    assert "-0.0" not in (tmp_path / "summary.json").read_text()
    assert [v["benefits"] for v in summary["variants"]] == [0.0] * 4
    assert [row["benefits"] for row in rows] == ["0.0"] * 4


def test_a_repeated_gather_method_fails_at_load(tmp_path, capsys):
    out_dir = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(out_dir), "gather": {"methods": ["svdkg", "svdkg"]}}))
    assert cli.main(["pipeline", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: config: gather method 'svdkg' is listed more than once\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("block", ["teach", "distill"])
def test_a_batch_larger_than_the_training_set_fails_at_load(tmp_path, capsys, block):
    out_dir = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(out_dir),
                                  block: {**TINY_CONFIG[block], "batch_size": 500}}))
    assert cli.main(["pipeline", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: config: {block}.batch_size 500 exceeds task.train_size 200\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("field,value", [
    ("modes_per_class", 1.5), ("modes_per_class", 0), ("train_size", 200.5), ("seq_len", 4.0),
    ("test_size", True),
])
def test_task_sizes_must_be_positive_integers(tmp_path, capsys, field, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "task": {**TINY_CONFIG["task"], field: value}}))
    assert cli.main(["teach", "--config", str(config), "--out", str(tmp_path / "t.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: bad task block: {field} must be a positive integer"), err


def test_runtime_error_is_reported_with_its_kind(tmp_path, monkeypatch, capsys):
    def fail(spec):
        raise RuntimeError("probe calibration failed: accuracy 0.500 outside (0.85, 0.95)")

    monkeypatch.setattr(cli, "generate_dataset", fail)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(TINY_CONFIG))
    assert cli.main(["teach", "--config", str(config), "--out", str(tmp_path / "t.ckpt")]) == 1
    assert capsys.readouterr().err == "error: runtime: probe calibration failed: accuracy 0.500 outside (0.85, 0.95)\n"


@pytest.mark.parametrize("block,field,value", [
    ("teach", "batch_size", 1.5), ("teach", "batch_size", 0), ("teach", "steps", -1), ("teach", "steps", 2.0),
    ("teach", "eval_every", -3), ("teach", "learning_rate", 0), ("teach", "learning_rate", "1e-3"),
    ("teach", "learning_rate", float("inf")), ("distill", "batch_size", True), ("distill", "eval_every", 0.5),
    ("distill", "learning_rate", -1e-3),
])
def test_loop_settings_must_be_valid(tmp_path, capsys, block, field, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, block: {**TINY_CONFIG[block], field: value}}))
    assert cli.main(["teach", "--config", str(config), "--out", str(tmp_path / "t.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {field} must be a "), err


@pytest.mark.parametrize("tokens", [0, -5])
def test_noise_scan_token_count_must_be_positive(pipe, tmp_path, capsys, tokens):
    argv = ["noise-scan", "--teacher", str(pipe / "teacher.ckpt"), "--tokens", str(tokens),
            "--out", str(tmp_path / "scan.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: config: --tokens must be at least 1, got {tokens}\n"
    assert not (tmp_path / "scan.csv").exists()


WRONG_SHAPES = {  # test id: (config override, message)
    **{f"{block}-block": ({block: 5}, f"{block} block must be a JSON object, got 5")
       for block in ("model", "task", "teach", "distill", "gather")},
    "out_dir-5": ({"out_dir": 5}, "out_dir must be a string, got 5"),
    "out_dir-null": ({"out_dir": None}, "out_dir must be a string, got None"),
    "methods-string": ({"gather": {"methods": "svdkg"}}, "gather methods must be a list of method names, got 'svdkg'"),
}


@pytest.mark.parametrize("override,message", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
def test_config_of_the_wrong_shape_fails_at_load(tmp_path, capsys, override, message):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, **override}))
    assert cli.main(["teach", "--config", str(config), "--out", str(tmp_path / "t.ckpt")]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not (tmp_path / "t.ckpt").exists()


@pytest.mark.parametrize("field,value", [("kind", "noisy_parity"), ("flip_prob", 0.05)])
def test_retired_task_settings_are_config_errors(tmp_path, capsys, field, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "task": {**TINY_CONFIG["task"], field: value}}))
    assert cli.main(["teach", "--config", str(config), "--out", str(tmp_path / "t.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: bad task block: ") and field in err, err
    assert not (tmp_path / "t.ckpt").exists()


@pytest.mark.parametrize("block,field,value", [
    ("teach", "balance_coeff", 0.01), ("distill", "temperature", 1.0), ("model", "router_noise_std", 0.25),
    ("distill", "seed", -1), ("distill", "seed", 0), ("distill", "mode", "soft"), ("model", "parameter_sharing", True),
    ("model", "activation", "relu"),
    # misspelt or unknown settings; block None is the top level
    (None, "profle", "nlp"), (None, "sead", 3), ("gather", "svd_ration", 0.5), ("gather", "seed", 5),
])
def test_retired_settings_are_config_errors(tmp_path, capsys, block, field, value):
    # these settings are constants or removed; a config that sets one, even to its value, is an error
    raw = dict(TINY_CONFIG)
    if block is None:
        raw[field] = value
    else:
        raw[block] = {**raw[block], field: value}
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["teach", "--config", str(config), "--out", str(tmp_path / "t.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and field in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("block,field,value", [
    ("teach", "seed", -1), ("teach", "eval_every", float("nan")), ("distill", "steps", 1.5),
    ("distill", "learning_rate", float("inf")), ("distill", "batch_size", 0),
    ("distill", "alpha", True), ("distill", "alpha", 1.5),
    ("model", "d_ff", 0), ("model", "num_experts", "x"), ("model", "top_k", 1.5),
    ("task", "mode_spread", "x"), ("task", "token_noise", "x"), ("task", "probe_band", [0.9, 0.1]),
    ("gather", "svd_ratio", True),
    # block None is the top level
    (None, "seed", [1]), (None, "seed", "3"), (None, "seed", 2.5), (None, "seed", True), (None, "seed", -1),
    ("teach", "seed", "x"), ("task", "seed", 2.5), ("gather", "svd_ratio", "0.5"),
    ("gather", "svd_ratio", 0), ("gather", "svd_ratio", 1.5), ("gather", "svd_ratio", float("nan")),
])
def test_numeric_settings_must_be_valid(tmp_path, capsys, block, field, value):
    raw = dict(TINY_CONFIG)
    if block is None:
        raw[field] = value
    else:
        raw[block] = {**raw[block], field: value}
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["teach", "--config", str(config), "--out", str(tmp_path / "t.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and f"{field} must be a " in err, err
    assert not (tmp_path / "t.ckpt").exists()


def test_gather_settings_of_an_unlisted_method_fail_at_load(pipe, tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "gather": {"methods": ["sum"], "svd_ratio": 2.0}}))
    out = tmp_path / "s.ckpt"
    argv = ["gather", "--config", config, "--teacher", pipe / "teacher.ckpt", "--method", "svdkg", "--out", out]
    assert cli.main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == "error: config: svd_ratio must be a positive finite number at most 1, got 2.0\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0.1:1:nan", "0.5:1:1e-20"])
def test_noise_scan_rejects_a_non_finite_lambda_grid(pipe, tmp_path, capsys, grid):
    # a NaN bound has no grid size, and a tiny step a grid too large to hold;
    # either must fail before the grid is built
    argv = ["noise-scan", "--teacher", str(pipe / "teacher.ckpt"), "--lambdas", grid,
            "--out", str(tmp_path / "scan.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: config: lambda grid {grid!r} must satisfy")
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("argv", [["pipeline", "--config"], ["eval", "--model"]], ids=["pipeline", "eval"])
def test_a_directory_in_place_of_a_file_is_an_io_error(tmp_path, capsys, argv):
    assert cli.main([*argv, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: io: ") and str(tmp_path) in captured.err, captured.err
    assert captured.out == ""


@pytest.mark.parametrize("student,dense,moe", [("nan", "0.5", "0.6"), ("0.7", "0.5", "inf"), ("0.7", "inf", "0.6")])
def test_benefits_of_a_non_finite_score_is_a_metric_error(capsys, student, dense, moe):
    assert cli.main(["benefits", "--student", student, "--dense", dense, "--moe", moe]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: metric: scores must be finite"), captured.err
    assert captured.out == ""
