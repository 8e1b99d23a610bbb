"""Config parsing, overrides, and validation."""

import argparse
import dataclasses
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fedsim.cli import _overrides
from fedsim.config import SimConfig, apply_overrides, load_config
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


@pytest.mark.parametrize("kw", [
    dict(hidden_dims=[64, 32]),
    dict(voting_metrics=["representation"], trigger_indices=[5, 6], trigger_values=[1.0, -1.0]),
])
def test_list_values_for_tuple_fields_round_trip(tmp_path, kw):
    # a list given for a tuple field is stored, and so written, as a tuple
    cfg = SimConfig(**kw)
    assert all(getattr(cfg, key) == tuple(value) for key, value in kw.items())
    path = tmp_path / "run.cfg"
    cfg.write(path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("kw, field", [
    (dict(rounds=2.5), "rounds"),  # float for an int
    (dict(n_clients=10.0, shards=50), "n_clients"),
    (dict(seed=True), "seed"),  # a bool is no int
    (dict(epochs="5"), "epochs"),
    (dict(lr_client=True), "lr_client"),
    (dict(strict_paper_sign="no"), "strict_paper_sign"),  # truthy, but no bool
    (dict(strict_paper_sign=1), "strict_paper_sign"),
    (dict(aggregator=3), "aggregator"),
    (dict(hidden_dims=5), "hidden_dims"),  # no sequence at all
    (dict(hidden_dims=(64.5,)), "hidden_dims"),
    (dict(trigger_values=(1.0, "2", 3.0, 4.0)), "trigger_values"),
    (dict(voting_metrics="gradient"), "voting_metrics"),  # a str is no tuple of str
])
def test_python_values_are_checked_against_their_declared_type(kw, field):
    with pytest.raises(ConfigError, match=f"^{field} "):
        SimConfig(**kw)


def test_numpy_scalars_and_ints_for_floats_are_accepted():
    cfg = SimConfig(rounds=np.int64(3), lr_client=np.float32(0.5), boost=np.int64(3),
                    hidden_dims=[np.int64(8)], trigger_values=(3, -3, 3, -3))
    assert cfg.rounds == 3 and cfg.boost == 3 and cfg.hidden_dims == (8,)


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


def test_a_key_set_on_two_file_lines_names_both(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("rounds=5\nseed=2\n# again\nrounds=7  # the second one\n")
    with pytest.raises(ConfigError, match=r"twice\.cfg:4: rounds is already set on line 1$"):
        load_config(path)
    # an override still wins over the file, and a repeated --override stays last-wins
    path.write_text("rounds=5\n")
    assert load_config(path, {"rounds": "9"}).rounds == 9
    args = argparse.Namespace(override=["rounds=2", "rounds=3"])
    assert load_config(path, _overrides(args)).rounds == 3


def test_a_leading_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfrounds=5\nattack=basic\n")
    cfg = load_config(path)
    assert cfg.rounds == 5 and cfg.attack == "basic"
    # an invalid byte after the mark is still not UTF-8, at its offset in the file
    path.write_bytes(b"\xef\xbb\xbfattack=basic # caf\xe9\n")
    with pytest.raises(ConfigError, match=r"bom\.cfg: not UTF-8 text \(.* at byte 21\)$"):
        load_config(path)


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


FIELD_TYPES = get_type_hints(SimConfig)


def _field_values(f):
    """Values of the field's type, most of them near the range SimConfig accepts."""
    kind = FIELD_TYPES[f.name]
    if get_origin(kind) is Literal:
        return st.sampled_from(get_args(kind))
    # a tuple field may be given as a tuple or as a list
    if f.name == "voting_metrics":
        values = st.lists(st.sampled_from(get_args(get_args(kind)[0])), unique=True)
        return values | values.map(tuple)
    if f.name in ("hidden_dims", "trigger_indices"):
        values = st.lists(st.integers(-1, 40), max_size=5)
        return values | values.map(tuple)
    if f.name == "trigger_values":
        values = st.lists(st.floats(), min_size=4, max_size=4)
        return values | values.map(tuple)
    if isinstance(f.default, bool):
        return st.booleans()
    if isinstance(f.default, int):
        return st.integers(-1, 3 * f.default + 3)
    assert isinstance(f.default, float), f.name
    return st.floats(-1.0, 2.0) | st.floats()


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


@pytest.mark.parametrize("key, text", [
    ("hidden_dims", "64;;32"),
    ("hidden_dims", "64;"),
    ("trigger_indices", "0;;2"),
    ("trigger_values", "3;-3; ;3;-3"),
    ("voting_metrics", "gradient;;representation"),
])
def test_an_empty_tuple_item_is_an_error_naming_the_field(key, text):
    # an empty item is no value, so it fails as one instead of being dropped
    with pytest.raises(ConfigError, match=rf"^(cannot parse )?{key}\b"):
        apply_overrides(SimConfig(), {key: text})


@pytest.mark.parametrize("text", ["", " "])
def test_a_wholly_empty_tuple_value_is_the_empty_tuple(text):
    # what the config writer writes for ()
    cfg = apply_overrides(SimConfig(aggregator="fedavg"), {"hidden_dims": text})
    assert cfg.hidden_dims == ()


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
    (dict(lr_server=0.0), "^lr_server must be > 0$"),
    (dict(stealth_rho=NAN), "^stealth_rho must be finite"),
    (dict(trigger_values=(3.0, NAN, 3.0, -3.0)), "^trigger_values must be finite"),
    (dict(lr_client=-1.0), "^lr_client must be > 0$"),
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
    (dict(aggregator="average"),
     r"^aggregator must be Literal\['fedavg', 'krum', 'median', 'trim', 'fltrust', "
     r"'clustervote'\], got 'average'$"),
    (dict(threshold_mode="median"),
     r"^threshold_mode must be Literal\['mean', 'mean_plus_std', 'absolute'\], got 'median'$"),
    (dict(voting_metrics=("gradient", "accuracy")),
     r"^voting_metrics must be Tuple\[Literal\['gradient', 'representation'\], \.\.\.\]"),
    (dict(seed=-1), "^seed must be >= 0"),
    (dict(shards=0), "^shards must be >= 1"),
    (dict(voting_metrics=("gradient", "gradient")), "^voting_metrics must be distinct"),
    (dict(voting_metrics=()), "^voting_metrics must name at least one metric$"),
    (dict(selection_ratio=0.02), "^selection_ratio must select at least two clients per round$"),
    (dict(lr_client=0.0), "^lr_client must be > 0$"),
    (dict(lr_server=-0.5), "^lr_server must be > 0$"),
    # an int too large for a float used to end in a bare OverflowError
    (dict(rounds=10**400), "^rounds must be finite$"),
    (dict(lr_client=10**400), "^lr_client must be finite$"),
    (dict(hidden_dims=(64, 10**400)), "^hidden_dims must be finite$"),
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
    SimConfig(stealth_rho=0.0)
    SimConfig(num_classes=2, tau=0, trigger_target=1, aux_classes=2)
    SimConfig(trigger_target=9, aux_classes=10)
    SimConfig(attack="dba", dba_parts=4)
    SimConfig(attack="basic", dba_parts=5)   # the part count matters only under dba
    SimConfig(pool_size=1, poison_count=1)
    SimConfig(trigger_indices=(), trigger_values=())
    SimConfig(seed=0)


@pytest.mark.parametrize("name", [f.name for f in fields(SimConfig)])
def test_a_config_is_frozen(name):
    # a field set after construction would skip the value check
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))
