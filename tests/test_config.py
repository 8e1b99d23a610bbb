"""Config parsing, overrides, and validation."""

import pytest

from fedsim.config import SimConfig, apply_overrides, load_config
from fedsim.errors import ConfigError


def test_defaults_are_valid():
    cfg = SimConfig()
    assert cfg.layer_dims == (32, 64, 10)
    assert cfg.malicious_ids == (0, 1, 2, 3, 4)


def test_text_roundtrip(tmp_path):
    cfg = SimConfig(seed=9, noniid_p=0.6, voting_metrics=("gradient",))
    path = tmp_path / "run.cfg"
    cfg.write(path)
    back = load_config(path)
    assert back == cfg


def test_load_with_comments_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n"
        "rounds=5\n"
        "attack=basic   # poisoning on\n"
        "trigger_values=2.0;-2.0;2.0;-2.0\n"
        "\n"
    )
    cfg = load_config(path, {"seed": "3"})
    assert cfg.rounds == 5 and cfg.attack == "basic" and cfg.seed == 3
    assert cfg.trigger_values == (2.0, -2.0, 2.0, -2.0)


def test_override_types():
    cfg = SimConfig()
    out = apply_overrides(cfg, {
        "strict_paper_sign": "true",
        "hidden_dims": "32;16",
        "voting_metrics": "gradient",
        "selection_ratio": "0.5",
    })
    assert out.strict_paper_sign is True
    assert out.hidden_dims == (32, 16)
    assert out.voting_metrics == ("gradient",)
    assert out.selection_ratio == 0.5


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        apply_overrides(SimConfig(), {"turbo": "1"})


def test_bad_bool_rejected():
    with pytest.raises(ConfigError):
        apply_overrides(SimConfig(), {"strict_paper_sign": "maybe"})


def test_validation_bounds():
    with pytest.raises(ConfigError):
        SimConfig(selection_ratio=0.0)
    with pytest.raises(ConfigError):
        SimConfig(selection_ratio=0.02)  # fewer than two clients per round
    with pytest.raises(ConfigError):
        SimConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        SimConfig(noniid_p=1.5)
    with pytest.raises(ConfigError):
        SimConfig(voting_metrics=("accuracy",))
    with pytest.raises(ConfigError):
        SimConfig(num_malicious=99)


def test_malformed_file_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("rounds 5\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("kw", [
    dict(aggregator="average"),
    dict(attack="zero-day"),
    dict(agg_f=-1),
    dict(aggregator="krum", agg_f=4),   # 10 per round < 2f+3 = 11
    dict(aggregator="trim", agg_f=5),   # 10 per round <= 2f = 10
    dict(aggregator="fltrust", aux_classes=0),
    dict(aux_classes=0),                 # representation voting needs aux data
    dict(indicator_obs_cap=0),
    dict(poison_count=-1),
    dict(poison_count=501, pool_size=500),
    dict(boost=0.5),
    dict(dba_parts=0),
    dict(trigger_indices=(40,), trigger_values=(1.0,)),  # input_dim is 32
])
def test_cross_field_validation(kw):
    with pytest.raises(ConfigError):
        SimConfig(**kw)


@pytest.mark.parametrize("kw, field", [
    (dict(shards=251), "shards"),                    # 50 clients
    (dict(num_classes=29), "num_classes"),           # 32 - 4 quiet dims = 28 live
])
def test_data_shape_validation(kw, field):
    # rejected when the config is built, not inside data generation
    with pytest.raises(ConfigError, match=field):
        SimConfig(**kw)


@pytest.mark.parametrize("kw, field", [
    (dict(epochs=0), "epochs"),
    (dict(batch_size=0), "batch_size"),
    (dict(base_count=0), "base_count"),
    (dict(base_count=2001), "base_count"),          # 10 classes x 200 test records
    (dict(hidden_dims=(64, 0)), "hidden_dims"),
])
def test_training_and_evaluation_sizes_validated(kw, field):
    # rejected before round 0 trains, not by the first client or evaluation
    with pytest.raises(ConfigError, match=field):
        SimConfig(**kw)


def test_budget_edges_accepted():
    SimConfig(aggregator="krum", agg_f=3)    # 10 per round = 2f+3 + 1
    SimConfig(aggregator="trim", agg_f=4)    # 10 per round > 2f = 8
    SimConfig(poison_count=500, pool_size=500)
    SimConfig(aux_classes=0, voting_metrics=("gradient",))
    SimConfig(shards=50)
    SimConfig(num_classes=28)
    SimConfig(base_count=1)
    SimConfig(base_count=2000)
    SimConfig(epochs=1, batch_size=1, hidden_dims=(1,))
