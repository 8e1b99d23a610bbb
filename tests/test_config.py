"""Config parsing, overrides, and validation."""

import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fedsim.config import AGGREGATORS, ATTACKS, THRESHOLD_MODES, SimConfig, apply_overrides, load_config
from fedsim.errors import ConfigError


def test_defaults_are_valid():
    cfg = SimConfig()
    assert cfg.layer_dims == (32, 64, 10)
    assert cfg.malicious_ids == ()  # attack=none: nobody attacks
    assert SimConfig(attack="basic").malicious_ids == (0, 1, 2, 3, 4)


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


def _field_values(f):
    """Values of the field's type, most of them near the range SimConfig accepts."""
    choices = {"aggregator": AGGREGATORS, "attack": ATTACKS, "threshold_mode": THRESHOLD_MODES}
    if f.name in choices:
        return st.sampled_from(choices[f.name])
    if f.name == "voting_metrics":
        return st.lists(st.sampled_from(("gradient", "representation")), unique=True).map(tuple)
    if f.name in ("hidden_dims", "trigger_indices"):
        return st.lists(st.integers(-1, 40), max_size=5).map(tuple)
    if f.name == "trigger_values":
        return st.lists(st.floats(), min_size=4, max_size=4).map(tuple)
    if isinstance(f.default, bool):
        return st.booleans()
    if isinstance(f.default, int):
        return st.integers(-1, 3 * f.default + 3)
    if isinstance(f.default, float):
        return st.floats(-1.0, 2.0) | st.floats()
    return st.text(st.characters(codec="utf-8"), max_size=12)


@settings(max_examples=300, deadline=None)
@given(changes=st.lists(
    st.one_of([st.tuples(st.just(f.name), _field_values(f)) for f in fields(SimConfig)]),
    max_size=4).map(dict))
def test_every_accepted_config_round_trips(changes):
    try:
        cfg = SimConfig(**changes)
    except ConfigError:
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        cfg.write(path)
        assert load_config(path) == cfg


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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kw, message", [
    (dict(lr_client=NAN), "^lr_client must be finite"),
    (dict(lr_server=NAN), "^lr_server must be finite"),
    (dict(boost=INF), "^boost must be finite"),
    (dict(lambda_clean=INF), "^lambda_clean must be finite"),
    (dict(stealth_rho=NAN), "^stealth_rho must be finite"),
    (dict(trigger_values=(3.0, NAN, 3.0, -3.0)), "^trigger_values must be finite"),
    (dict(lambda_clean=0.0), "^lambda_clean must be > 0"),
    (dict(stealth_rho=-5.0), "^stealth_rho must be >= 0"),
    (dict(per_class=0), "^per_class must be >= 1"),
    (dict(test_per_class=0), "^test_per_class must be >= 1"),
    (dict(aux_per_class=0), "^aux_per_class must be >= 1"),
    (dict(hidden_dims=()), "^clustervote needs hidden_dims"),
    (dict(num_classes=1), "^num_classes must be >= 2"),
    (dict(tau=-1), "^tau must be >= 0"),
    (dict(trigger_indices=(0, 1), trigger_values=(3.0,)), "^trigger_values must have one value"),
    (dict(trigger_indices=(0, 0), trigger_values=(3.0, -3.0)), "^trigger_indices must be distinct"),
    (dict(pool_size=0, poison_count=0), "^pool_size must be >= 1"),
    (dict(attack="dba", dba_parts=5), "^dba_parts .* at most the 4 trigger_indices"),
    (dict(trigger_target=10), "^trigger_target must lie in"),
    (dict(trigger_target=-1), "^trigger_target must lie in"),
    (dict(trigger_target=10, attack="basic"), "^trigger_target must lie in"),
    (dict(aux_classes=11), "^aux_classes must be at most num_classes"),
    (dict(out_dir="runs#1"), "^out_dir must be one line"),
    (dict(out_dir="runs\n2"), "^out_dir must be one line"),
    (dict(out_dir=" runs"), "^out_dir must be one line"),
    (dict(seed=-1), "^seed must be >= 0"),
    (dict(shards=0), "^shards must be >= 1"),
])
def test_config_errors_name_the_field(kw, message):
    # each of these used to pass SimConfig and fail late, name another
    # field, quietly change what the run does, or fail only below SimConfig
    with pytest.raises(ConfigError, match=message):
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
    SimConfig(per_class=1, test_per_class=1, aux_per_class=1, base_count=1)
    SimConfig(aggregator="fedavg", hidden_dims=())
    SimConfig(stealth_rho=0.0, lambda_clean=1e-9)
    SimConfig(num_classes=2, tau=0, trigger_target=1, aux_classes=2)
    SimConfig(trigger_target=9, aux_classes=10)
    SimConfig(attack="dba", dba_parts=4)
    SimConfig(attack="basic", dba_parts=5)   # the part count matters only under dba
    SimConfig(pool_size=1, poison_count=1)
    SimConfig(trigger_indices=(), trigger_values=())
    SimConfig(out_dir="runs/a b=c")
    SimConfig(seed=0)
