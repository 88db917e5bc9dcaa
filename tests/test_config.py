import json
from dataclasses import replace

import numpy as np
import pytest

from moegather.gather import build_student
from moegather.model import build_classifier
from moegather.numerics import Rng
from moegather.workbench.config import (
    DERIVED,
    PROFILES,
    ConfigError,
    config_from_dict,
    default_config,
    derive_seed,
    load_config,
)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_written_config_loads_back_unchanged(tmp_path, profile):
    cfg = default_config(3, out_dir=str(tmp_path / "out"), profile=profile)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")  # as run_pipeline writes it
    assert load_config(path).to_dict() == cfg.to_dict()
    written = json.loads(path.read_text())
    assert all(not set(keys) & written[block].keys() for block, keys in DERIVED.items())


def test_a_written_config_moves_as_a_whole_with_its_seed():
    # every seed derives from the top-level one, so editing it in config.json mixes no two seeds
    assert config_from_dict({**default_config(0).to_dict(), "seed": 7}).to_dict() == default_config(7).to_dict()


_WRITTEN = default_config(0).to_dict()
SETTINGS = [(key,) for key, value in _WRITTEN.items() if not isinstance(value, dict)] + [
    (block, key) for block, value in _WRITTEN.items() if isinstance(value, dict) for key in value]


@pytest.mark.parametrize("path", SETTINGS, ids=["-".join(path) for path in SETTINGS])
def test_every_setting_may_be_left_out(path):
    # a setting a config leaves out takes the default experiment's value
    raw = default_config(0).to_dict()
    parent = raw[path[0]] if len(path) == 2 else raw
    del parent[path[-1]]
    assert config_from_dict(raw) == default_config(0)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_a_config_naming_only_its_seed_and_profile_is_the_default_config(profile):
    assert config_from_dict({"seed": 5, "profile": profile}) == default_config(5, profile=profile)


# The default experiment, as config.json records it: ROADMAP's seed-0 numbers come from these values
DEFAULT_EXPERIMENT = {
    "seed": 0,
    "out_dir": "runs/out",
    "model": {"d_model": 32, "d_ff": 128, "seq_len": 8, "num_classes": 8, "num_blocks": 2, "num_experts": 4,
              "top_k": 2},
    "task": {"kind": "gaussian_mixture", "train_size": 20000, "test_size": 2000, "modes_per_class": 4,
             "mode_spread": 0.7, "token_noise": 1.0, "probe_band": [0.85, 0.95]},
    "teach": {"steps": 1500, "batch_size": 64, "learning_rate": 0.003, "eval_every": 200},
    "distill": {"steps": 700, "batch_size": 64, "learning_rate": 0.001, "eval_every": 200, "alpha": 0.25},
    "gather": {"methods": ["sum", "avg", "topkg", "svdkg"], "svd_ratio": 0.75},
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_the_default_experiment_is_pinned(profile):
    want = json.loads(json.dumps(DEFAULT_EXPERIMENT))
    if profile == "nlp":
        want["distill"]["alpha"], want["gather"]["svd_ratio"] = 0.75, 0.25
    assert default_config(0, profile=profile).to_dict() == want


def test_a_config_nested_too_deeply_is_a_config_error():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(ConfigError, match="settings are nested too deeply"):
        config_from_dict({**default_config().to_dict(), "gather": {"methods": deep}})


def test_profiles_set_alpha_and_svd_ratio_unless_given():
    nlp = default_config(profile="nlp")
    assert (nlp.distill.alpha, nlp.svd_ratio) == (0.75, 0.25)
    vision = default_config(profile="vision")
    assert (vision.distill.alpha, vision.svd_ratio) == (0.25, 0.75)
    raw = default_config().to_dict()
    del raw["distill"]["alpha"], raw["gather"]["svd_ratio"]
    assert config_from_dict(raw).to_dict() == vision.to_dict()  # no profile: the vision values
    raw["distill"]["alpha"] = 0.5
    explicit = config_from_dict({**raw, "profile": "nlp"})
    assert (explicit.distill.alpha, explicit.svd_ratio) == (0.5, 0.25)


def test_the_config_seed_reaches_every_derived_seed():
    got = config_from_dict({**default_config().to_dict(), "seed": 7})
    assert got.seed == 7
    assert got.task.seed == derive_seed(7, "task")
    assert got.teach.seed == derive_seed(7, "teach")
    assert all(got.gather_config(m).seed == derive_seed(7, f"gather-{m}") for m in got.gather_methods)
    assert got.distill_config("gather_svdkg").seed == derive_seed(7, "distill-gather_svdkg")


def test_a_leftover_ones_seed_variable_changes_nothing(monkeypatch):
    # ONES_SEED once overrode the config seed; a shell that still sets it must not move a run
    raw = {**default_config().to_dict(), "seed": 7}
    want = config_from_dict(raw).to_dict()
    monkeypatch.setenv("ONES_SEED", "3")
    assert config_from_dict(raw).to_dict() == want


def test_out_dir_may_be_a_path(tmp_path):
    cfg = default_config(0, out_dir=tmp_path / "out")
    assert cfg.out_dir == str(tmp_path / "out")
    assert cfg.to_dict() == default_config(0, out_dir=str(tmp_path / "out")).to_dict()


def test_an_experiment_built_directly_needs_an_out_dir():
    # "" would put every run file, config.json too, into the working directory
    with pytest.raises(ConfigError, match="^out_dir must name a directory, got ''$"):
        replace(default_config(0), out_dir="")


@pytest.mark.parametrize("block,field,value", [
    ("gather", "methods", {"svdkg"}), ("teach", "steps", np.int64(5)), ("task", "train_size", object()),
], ids=["set", "numpy-int", "object"])
def test_a_setting_that_is_not_json_is_a_config_error(block, field, value):
    raw = default_config().to_dict()
    raw[block][field] = value
    with pytest.raises(ConfigError, match="settings must be JSON values: Object of type"):
        config_from_dict(raw)


@pytest.mark.parametrize("profile", ["audio", "", ["nlp"]])
def test_unknown_profile_is_a_config_error(profile):
    with pytest.raises(ConfigError, match="unknown profile"):
        config_from_dict({**default_config().to_dict(), "profile": profile})


@pytest.mark.parametrize("text", ["[1, 2]", '"config"', "3"])
def test_top_level_value_must_be_an_object(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="must be an object"):
        load_config(path)


def test_topkg_spreads_the_remainder_units_over_the_first_experts():
    raw = default_config().to_dict()
    raw["model"].update(d_ff=8, num_experts=3)
    cfg = config_from_dict({**raw, "gather": {**raw["gather"], "methods": ["topkg"]}})
    teacher = build_classifier(cfg.arch, Rng(0))
    student, report = build_student(teacher, cfg.gather_config("topkg"))
    assert [len(units) for units in report.selected_units] == [3, 3, 2]
    assert student.blocks[0].stage.w1.shape == (32, 8)


@pytest.mark.parametrize("methods", [["svdkg", "svdkg"], ["sum", "topkg", "sum"]])
def test_a_repeated_gather_method_is_a_config_error(methods):
    raw = default_config().to_dict()
    with pytest.raises(ConfigError, match=f"gather method {methods[0]!r} is listed more than once"):
        config_from_dict({**raw, "gather": {**raw["gather"], "methods": methods}})


@pytest.mark.parametrize("value", ["average", "matched"])
def test_the_removed_bias_setting_is_a_config_error(value):
    # Top-KG keeps each unit's own b1 entry, so no setting chooses the biases
    raw = default_config().to_dict()
    with pytest.raises(ConfigError, match="unknown setting 'gather.bias_policy'"):
        config_from_dict({**raw, "gather": {**raw["gather"], "bias_policy": value}})


@pytest.mark.parametrize("methods,message", [
    (["sum", "median"], "unknown gather method 'median'"),
    ([], "at least one gather method is required"),
], ids=["unknown", "empty"])
def test_the_gather_methods_must_be_known_and_not_empty(methods, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"gather": {"methods": methods}})


@pytest.mark.parametrize("part,change,message", [
    ("arch", {"stage": "dense"}, "the teacher architecture must use an MoE stage"),
    ("task", {"d_model": 16}, "task d_model 16 != model d_model 32"),
    ("task", {"seq_len": 4}, "task seq_len 4 != model seq_len 8"),
    ("task", {"num_classes": 5}, "task num_classes 5 != model num_classes 8"),
], ids=["dense-arch", "d_model", "seq_len", "num_classes"])
def test_an_experiment_built_directly_keeps_its_invariants(part, change, message):
    # a config file cannot reach these checks, since it states neither the stage nor the task's shapes
    cfg = default_config()
    with pytest.raises(ConfigError, match=f"^{message}$"):
        replace(cfg, **{part: replace(getattr(cfg, part), **change)})
