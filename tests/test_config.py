import json

import pytest

from moegather.workbench.config import (
    PROFILES,
    SEED_ENV_VAR,
    ConfigError,
    config_from_dict,
    default_config,
    derive_seed,
    load_config,
)


@pytest.fixture(autouse=True)
def no_seed_override(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_written_config_loads_back_unchanged(tmp_path, profile):
    cfg = default_config(3, out_dir=str(tmp_path / "out"), profile=profile)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")  # as run_pipeline writes it
    assert load_config(path).to_dict() == cfg.to_dict()


def test_profiles_set_alpha_and_svd_ratio_unless_given():
    nlp = default_config(profile="nlp")
    assert (nlp.distill.alpha, nlp.distill.temperature, nlp.svd_ratio) == (0.75, 1.0, 0.25)
    vision = default_config(profile="vision")
    assert (vision.distill.alpha, vision.distill.temperature, vision.svd_ratio) == (0.25, 1.0, 0.75)
    raw = default_config().to_dict()
    del raw["distill"]["alpha"], raw["gather"]["svd_ratio"]
    assert config_from_dict(raw).to_dict() == vision.to_dict()  # no profile: the vision values
    raw["distill"]["alpha"] = 0.5
    explicit = config_from_dict({**raw, "profile": "nlp"})
    assert (explicit.distill.alpha, explicit.svd_ratio) == (0.5, 0.25)


def test_seed_env_var_overrides_the_seed_and_every_derived_seed(monkeypatch):
    raw = default_config().to_dict()
    for block in ("task", "teach", "distill"):
        del raw[block]["seed"]  # derived from the top-level seed
    want = config_from_dict({**raw, "seed": 7})
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    got = config_from_dict({**raw, "seed": 0})
    assert got.to_dict() == want.to_dict()
    assert got.seed == 7
    assert got.task.seed == derive_seed(7, "task")
    assert got.teach.seed == derive_seed(7, "teach")
    assert got.distill.seed == derive_seed(7, "distill")
    assert all(got.gather_config(m).seed == derive_seed(7, f"gather-{m}") for m in got.gather_methods)


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
