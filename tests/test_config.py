import json

import numpy as np
import pytest

from moegather.gather import build_student
from moegather.model import build_classifier
from moegather.numerics import Rng
from moegather.workbench.config import (
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
    raw = default_config().to_dict()
    for block in ("task", "teach"):
        del raw[block]["seed"]  # derived from the top-level seed
    got = config_from_dict({**raw, "seed": 7})
    assert got.seed == 7
    assert got.task.seed == derive_seed(7, "task")
    assert got.teach.seed == derive_seed(7, "teach")
    assert all(got.gather_config(m).seed == derive_seed(7, f"gather-{m}") for m in got.gather_methods)
    assert got.distill_config("gather_svdkg").seed == derive_seed(7, "distill-gather_svdkg")


def test_a_leftover_ones_seed_variable_changes_nothing(monkeypatch):
    # ONES_SEED once overrode the config seed; a shell that still sets it must not move a run
    raw = {**default_config().to_dict(), "seed": 7}
    for block in ("task", "teach"):
        del raw[block]["seed"]  # so that every seed derives from the top-level one
    want = config_from_dict(raw).to_dict()
    monkeypatch.setenv("ONES_SEED", "3")
    assert config_from_dict(raw).to_dict() == want


def test_out_dir_may_be_a_path(tmp_path):
    cfg = default_config(0, out_dir=tmp_path / "out")
    assert cfg.out_dir == str(tmp_path / "out")
    assert cfg.to_dict() == default_config(0, out_dir=str(tmp_path / "out")).to_dict()


@pytest.mark.parametrize("block,field,value", [
    ("gather", "methods", {"svdkg"}), ("teach", "steps", np.int64(5)), ("task", "seed", object()),
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
