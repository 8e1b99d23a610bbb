"""Attack behaviors: degeneracy, stealth pull, boost, trigger parts, forging."""

import numpy as np
import pytest

from fedsim.attacks import (
    AttackSpec,
    adaptive_attack,
    alternate_attack,
    basic_attack,
    forge_full_claim,
    make_poison_pool,
    sybil_updates,
)
from fedsim.config import SimConfig
from fedsim.data import TriggerPattern, class_means, gen_dataset
from fedsim.errors import ConfigError
from fedsim.inference import (
    InferenceConfig,
    class_indicator,
    infer_column,
    recover_last_layer_gradient,
)
from fedsim.model import Batch, init_model, local_train
from fedsim.trust import aggregate, cosine_similarity

M, R_IN = 6, 16
TRIG = TriggerPattern((0, 1, 2, 3), (3.0, -3.0, 3.0, -3.0), 0)


@pytest.fixture(scope="module")
def setup():
    means = class_means(M, R_IN, seed=4)
    clean = gen_dataset(M, R_IN, 30, seed=1, means=means)
    base = gen_dataset(M, R_IN, 40, seed=2, means=means)
    pool = make_poison_pool(base, TRIG)
    model = init_model([R_IN, 12, M], seed=3)
    return clean, base, pool, model


def honest_update(model, clean, seed=10):
    return local_train(model, Batch(clean.samples, clean.labels),
                       epochs=4, lr=0.05, batch_size=16, seed=seed)


def test_spec_validation():
    # attack knobs are checked where the config is built, before any data exists
    with pytest.raises(ConfigError):
        SimConfig(attack="zero-day")
    with pytest.raises(ConfigError):
        SimConfig(attack="basic", poison_count=-1)
    with pytest.raises(ConfigError):
        SimConfig(attack="alternate", boost=0.5)
    with pytest.raises(ConfigError):
        SimConfig(attack="dba", dba_parts=0)


def test_poison_pool_relabels_everything(setup):
    _, base, pool, _ = setup
    assert pool.size == base.size
    assert np.all(pool.labels == TRIG.target_label)
    assert np.all(pool.samples[:, list(TRIG.indices)] == list(TRIG.values))


def test_basic_degenerates_to_honest(setup):
    clean, _, pool, model = setup
    honest = honest_update(model, clean)
    attack = basic_attack(model, clean, pool, poison_count=0,
                          epochs=4, lr=0.05, batch_size=16, seed=10)
    assert np.array_equal(attack.delta, honest.delta)


def test_alternate_degenerates_to_honest(setup):
    clean, _, pool, model = setup
    spec = AttackSpec(poison_count=0, boost=1.0, stealth_rho=0.0)
    honest = honest_update(model, clean)
    benign = honest_update(model, clean, seed=77).delta
    attack = alternate_attack(model, clean, pool, benign, spec,
                              epochs=4, lr=0.05, batch_size=16, seed=10)
    assert np.array_equal(attack.delta, honest.delta)


def test_dba_part_one_equals_basic(setup):
    # a distributed-trigger attacker is a basic attacker whose pool carries
    # one slice of the trigger; with one part the slice is the whole trigger
    clean, base, pool, model = setup
    part_pool = make_poison_pool(base, TRIG.part(1, 0))
    via_dba = basic_attack(model, clean, part_pool, poison_count=20,
                           epochs=2, lr=0.05, batch_size=16, seed=5)
    via_basic = basic_attack(model, clean, pool, poison_count=20,
                             epochs=2, lr=0.05, batch_size=16, seed=5)
    assert np.array_equal(via_dba.delta, via_basic.delta)


def test_dba_parts_use_sub_patterns(setup):
    clean, base, _, model = setup
    a, b = (basic_attack(model, clean, make_poison_pool(base, TRIG.part(2, k)), poison_count=10,
                         epochs=1, lr=0.05, batch_size=64, seed=5)
            for k in range(2))
    assert np.any(a.delta != b.delta)


def test_stealth_pull_dominates_at_huge_rho(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77).delta
    spec = AttackSpec(poison_count=30, boost=1.0, stealth_rho=1e4)
    attack = alternate_attack(model, clean, pool, benign, spec,
                              epochs=4, lr=0.05, batch_size=16, seed=10)
    assert cosine_similarity(attack.delta, benign) > 0.99


def test_boost_scales_update_exactly(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77).delta
    kwargs = dict(epochs=2, lr=0.05, batch_size=16, seed=11)
    base_spec = AttackSpec(poison_count=20, boost=1.0)
    boosted_spec = AttackSpec(poison_count=20, boost=5.0)
    d1 = alternate_attack(model, clean, pool, benign, base_spec, **kwargs).delta
    d5 = alternate_attack(model, clean, pool, benign, boosted_spec, **kwargs).delta
    assert np.array_equal(d5, 5.0 * d1)


def test_boost_invisible_after_normalized_aggregation(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77).delta
    kwargs = dict(epochs=2, lr=0.05, batch_size=16, seed=11)
    d1 = alternate_attack(model, clean, pool, benign,
                          AttackSpec(poison_count=20, boost=1.0),
                          **kwargs)
    d5 = alternate_attack(model, clean, pool, benign,
                          AttackSpec(poison_count=20, boost=5.0),
                          **kwargs)
    out1 = aggregate(model, [d1], [0.3], lr_server=0.1)
    out5 = aggregate(model, [d5], [0.3], lr_server=0.1)
    assert np.max(np.abs(out1.flat - out5.flat)) < 1e-12


def test_sybil_copies_are_byte_identical(setup):
    clean, _, pool, model = setup
    leader = honest_update(model, clean)
    copies = sybil_updates(leader, [3, 7, 9], round_index=4)
    assert [u.client_id for u in copies] == [3, 7, 9]
    for u in copies:
        assert np.array_equal(u.delta, leader.delta)
        assert u.round_index == 4
    with pytest.raises(ConfigError):
        sybil_updates(leader, [], round_index=0)


def test_forge_yields_full_claim_under_absolute_threshold(setup):
    clean, _, pool, model = setup
    cfg = InferenceConfig(threshold_mode="absolute", beta=4.0, client_lr=0.05)
    upd = honest_update(model, clean)
    forged = forge_full_claim(upd.delta, model.shapes, lr=0.05, inf_cfg=cfg)
    u = class_indicator(recover_last_layer_gradient(forged, model.shapes, 0.05))
    assert np.all(infer_column(u, cfg) == 1)


def test_forge_is_noop_for_relative_threshold_columns(setup):
    clean, _, pool, model = setup
    cfg = InferenceConfig(threshold_mode="mean", client_lr=0.05)
    upd = honest_update(model, clean)
    forged = forge_full_claim(upd.delta, model.shapes, lr=0.05, inf_cfg=cfg)
    u0 = class_indicator(recover_last_layer_gradient(upd.delta, model.shapes, 0.05))
    u1 = class_indicator(recover_last_layer_gradient(forged, model.shapes, 0.05))
    assert np.array_equal(infer_column(u0, cfg), infer_column(u1, cfg))
    assert np.all(u1 > u0)  # the lift itself is real


def test_adaptive_touches_only_last_layer_block(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77).delta
    spec = AttackSpec(poison_count=0, boost=1.0, stealth_rho=0.0)
    cfg = InferenceConfig(threshold_mode="mean", client_lr=0.05)
    honest = honest_update(model, clean)
    attack = adaptive_attack(model, clean, pool, benign, spec, cfg,
                             epochs=4, lr=0.05, batch_size=16, seed=10)
    tail = M * 12 + M  # last layer weight block + bias
    head = attack.delta.size - tail
    assert np.array_equal(attack.delta[:head], honest.delta[:head])
    assert np.any(attack.delta[head:] != honest.delta[head:])


def test_attack_updates_finite(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77).delta
    spec = AttackSpec(poison_count=30, boost=2.0, stealth_rho=0.1)
    upd = alternate_attack(model, clean, pool, benign, spec,
                           epochs=4, lr=0.05, batch_size=16, seed=1)
    assert np.all(np.isfinite(upd.delta))


def test_weighted_clean_gradient_path(setup):
    # lambda_clean != 1 reweights clean samples; a pure-clean batch then
    # scales the plain gradient exactly
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77).delta
    lam_spec = AttackSpec(poison_count=0, boost=1.0, stealth_rho=0.0, lambda_clean=2.0)
    d_lam = alternate_attack(model, clean, pool, benign, lam_spec,
                             epochs=1, lr=0.05, batch_size=clean.size, seed=10)
    d_hon = local_train(model, Batch(clean.samples, clean.labels),
                        epochs=1, lr=0.05, batch_size=clean.size, seed=10)
    # weights cancel in the weighted mean when all samples are clean
    assert np.allclose(d_lam.delta, d_hon.delta, atol=1e-12)


def test_poison_count_exceeding_pool_rejected(setup):
    clean, _, pool, model = setup
    with pytest.raises(ConfigError):
        basic_attack(model, clean, pool, poison_count=pool.size + 1,
                     epochs=1, lr=0.05, batch_size=16, seed=0)
