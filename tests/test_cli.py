import json
import shlex
from pathlib import Path

import pytest

from moegather.model import state_hash
from moegather.workbench import cli
from moegather.workbench.checkpoint import load_checkpoint
from moegather.workbench.config import SEED_ENV_VAR, config_from_dict, derive_seed
from moegather.workbench.pipeline import run_pipeline


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


@pytest.mark.parametrize("flag", ["--lambda", "--svd-ratio"])
def test_gather_ratio_spellings(flag):
    argv = ["gather", "--teacher", "t.ckpt", "--method", "svdkg", flag, "0.5", "--out", "s.ckpt"]
    assert cli.build_parser().parse_args(argv).svd_ratio == 0.5


@pytest.mark.parametrize("flag", ["--task", "--split"])
def test_eval_split_spellings(flag):
    assert cli.build_parser().parse_args(["eval", "--model", "m.ckpt", flag, "train"]).task == "train"


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
    """Directory of run_pipeline's artifacts for TINY_CONFIG, without a seed override."""
    out = tmp_path_factory.mktemp("pipeline")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(SEED_ENV_VAR, raising=False)
        run_pipeline(config_from_dict({**TINY_CONFIG, "out_dir": str(out)}))
    return out


def test_stage_commands_reproduce_the_pipeline(pipe, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(TINY_CONFIG))

    teacher = tmp_path / "teacher.ckpt"
    _run(["teach", "--config", config, "--out", teacher], capsys)
    assert teacher.read_bytes() == (pipe / "teacher.ckpt").read_bytes()
    assert (tmp_path / "teacher.log.csv").read_text() == (pipe / "teacher.log.csv").read_text()

    init = tmp_path / "s0.ckpt"
    out = _run(["gather", "--teacher", teacher, "--method", "svdkg", "--svd-ratio", "0.75", "--out", init], capsys)
    assert Path(out["report"]).read_text() == (pipe / "gather_svdkg.report.json").read_text()
    assert state_hash(load_checkpoint(init)[0]) == state_hash(load_checkpoint(pipe / "gather_svdkg.init.ckpt")[0])

    cfg = config_from_dict(TINY_CONFIG).distill
    student = tmp_path / "s.ckpt"
    _run(["distill", "--student", init, "--teacher", teacher, "--alpha", cfg.alpha, "--temp", cfg.temperature,
          "--steps", cfg.steps, "--batch-size", cfg.batch_size, "--learning-rate", cfg.learning_rate,
          "--eval-every", cfg.eval_every, "--seed", derive_seed(0, "distill-gather_svdkg"), "--out", student],
         capsys)
    assert state_hash(load_checkpoint(student)[0]) == state_hash(load_checkpoint(pipe / "gather_svdkg.ckpt")[0])
    assert (tmp_path / "s.log.csv").read_text() == (pipe / "gather_svdkg.log.csv").read_text()

    scan = tmp_path / "scan.csv"
    assert _run(["noise-scan", "--teacher", teacher, "--lambdas", "0.25:1.0:0.25", "--tokens", 64,
                 "--out", scan], capsys)["rows"] == 4


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


def test_pipeline_command_writes_the_pipeline_artifacts(pipe, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out_dir = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**TINY_CONFIG, "out_dir": str(out_dir)}))
    assert _run(["pipeline", "--config", config], capsys) == {"out_dir": str(out_dir), "variants": 4}

    names = sorted(p.name for p in pipe.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        ours = (out_dir / name).read_bytes()
        if name in ("config.json", "summary.json"):  # both record out_dir
            ours = ours.replace(str(out_dir).encode(), str(pipe).encode())
        assert ours == (pipe / name).read_bytes(), name


@pytest.mark.parametrize("field,value", [
    ("modes_per_class", 1.5), ("modes_per_class", 0), ("train_size", 200.5), ("seq_len", 4.0),
    ("test_size", True), ("parity_bits", 0),
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
