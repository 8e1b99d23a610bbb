"""Attack behaviors: degeneracy, stealth pull, boost, trigger parts, forging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.attacks import (
    adaptive_attack,
    alternate_attack,
    basic_attack,
    forge_full_claim,
    make_poison_pool,
    sybil_updates,
)
from fedsim.config import SimConfig
from fedsim.data import TriggerPattern, class_means, concat_datasets, gen_dataset
from fedsim.errors import ConfigError, TrainingError
from fedsim.inference import (
    class_indicator,
    infer_column,
    recover_last_layer_gradient,
)
from fedsim.model import init_model, local_train, loss_and_grad
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
    return local_train(model, clean, epochs=4, lr=0.05, batch_size=16, seed=seed)


def knobs(**kw):
    """A config training like honest_update, with the given attack knobs."""
    return SimConfig(**{"epochs": 4, "lr_client": 0.05, "batch_size": 16, **kw})


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


# neutral knobs over seeds, dataset sizes, one-batch epochs (batch_size >= n)
# and batch sizes that do not divide n
NEUTRAL_RUNS = dict(seed=st.integers(0, 2**32 - 1), per_class=st.integers(1, 6),
                    epochs=st.integers(1, 4), batch_size=st.integers(1, 40))


def neutral_case(setup, per_class, epochs, batch_size):
    _, _, pool, model = setup
    clean = gen_dataset(M, R_IN, per_class, seed=per_class, means=class_means(M, R_IN, seed=4))
    cfg = knobs(poison_count=0, boost=1.0, stealth_rho=0.0, lambda_clean=1.0,
                epochs=epochs, batch_size=batch_size)
    return clean, pool, model, cfg


@settings(max_examples=40, deadline=None)
@given(**NEUTRAL_RUNS, k=st.integers(1, 4))
def test_basic_degenerates_to_honest(setup, seed, per_class, epochs, batch_size, k):
    # k neutral attackers of one clean size train as one stack, each row its honest update
    _, pool, model, cfg = neutral_case(setup, per_class, epochs, batch_size)
    means = class_means(M, R_IN, seed=4)
    cleans = [gen_dataset(M, R_IN, per_class, seed=per_class + j, means=means) for j in range(k)]
    seeds = [(seed + j) % 2**32 for j in range(k)]
    attack = basic_attack(model, cleans, [pool] * k, cfg, seeds)
    assert attack.shape == (k, model.dim)
    for row, clean, s in zip(attack, cleans, seeds):
        assert row.tobytes() == local_train(model, clean, epochs, cfg.lr_client, batch_size,
                                            s).tobytes()


@settings(max_examples=40, deadline=None)
@given(**NEUTRAL_RUNS)
def test_alternate_degenerates_to_honest(setup, seed, per_class, epochs, batch_size):
    clean, pool, model, cfg = neutral_case(setup, per_class, epochs, batch_size)
    honest = local_train(model, clean, epochs, cfg.lr_client, batch_size, seed)
    benign = honest_update(model, clean, seed=77)  # an anchor with zero pull
    attack = alternate_attack(model, clean, pool, benign, cfg, seed)
    assert attack.tobytes() == honest.tobytes()


def written_out_alternate(model, clean, pool, benign, cfg, seed):
    """The alternate attack as one self-contained loop: the reference for its bytes."""
    mixed = concat_datasets([clean, pool.subset(np.arange(cfg.poison_count))])
    lr, lam, b = cfg.lr_client, cfg.lambda_clean, cfg.batch_size
    pull = min(2.0 * lr * cfg.stealth_rho, 1.0)
    rng = np.random.default_rng(seed)
    theta, delta = model.copy(), np.zeros(model.dim)
    for h in range(cfg.epochs):
        data = clean if h % 2 else mixed
        order = np.arange(data.size) if b >= data.size else rng.permutation(data.size)
        for start in range(0, data.size, b):
            idx = order[start:start + b]
            if h % 2 == 0 and lam != 1.0:
                c, p = idx[idx < clean.size], idx[idx >= clean.size]
                grad = np.zeros(model.dim)
                if c.size:
                    grad += lam * c.size * loss_and_grad(theta, data.samples[c], data.labels[c])[1]
                if p.size:
                    grad += p.size * loss_and_grad(theta, data.samples[p], data.labels[p])[1]
                grad = grad / (lam * c.size + p.size)
            else:
                grad = loss_and_grad(theta, data.samples[idx], data.labels[idx])[1]
            delta -= lr * grad
            if h % 2 and pull > 0.0:
                delta -= pull * (delta - benign)
            theta.flat[...] = model.flat + delta
    return delta * cfg.boost


# lr_client is 0.05, so the stealth pull min(2 * lr * rho, 1) clips at 1 from rho = 10 on
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), per_class=st.integers(1, 6), epochs=st.integers(1, 4),
       batch_size=st.integers(1, 40), poison_count=st.integers(0, 20),
       lambda_clean=st.sampled_from([0.5, 1.0, 2.0]),
       stealth_rho=st.just(0.0) | st.floats(0.0, 30.0), boost=st.floats(1.0, 5.0))
def test_alternate_family_equals_the_written_out_loop(setup, seed, per_class, epochs, batch_size,
                                                      poison_count, lambda_clean, stealth_rho, boost):
    clean, pool, model, _ = neutral_case(setup, per_class, epochs, batch_size)
    cfg = knobs(poison_count=poison_count, lambda_clean=lambda_clean, stealth_rho=stealth_rho,
                boost=boost, epochs=epochs, batch_size=batch_size)
    benign = honest_update(model, clean, seed=77)
    expected = written_out_alternate(model, clean, pool, benign, cfg, seed)
    assert alternate_attack(model, clean, pool, benign, cfg, seed).tobytes() == expected.tobytes()
    forged = forge_full_claim(expected, model.shapes, cfg)
    assert adaptive_attack(model, clean, pool, benign, cfg, seed).tobytes() == forged.tobytes()


def test_dba_part_one_equals_basic(setup):
    # a distributed-trigger attacker is a basic attacker whose pool carries
    # one slice of the trigger; with one part the slice is the whole trigger
    clean, base, pool, model = setup
    part_pool = make_poison_pool(base, TRIG.part(1, 0))
    cfg = knobs(poison_count=20, epochs=2)
    via_dba = basic_attack(model, [clean], [part_pool], cfg, [5])
    via_basic = basic_attack(model, [clean], [pool], cfg, [5])
    assert np.array_equal(via_dba, via_basic)


def test_dba_parts_use_sub_patterns(setup):
    # two attackers with one clean set and one seed, stacked: only their trigger slices differ
    clean, base, _, model = setup
    cfg = knobs(poison_count=10, epochs=1, batch_size=64)
    pools = [make_poison_pool(base, TRIG.part(2, k)) for k in range(2)]
    a, b = basic_attack(model, [clean, clean], pools, cfg, [5, 5])
    assert np.any(a != b)


def test_stealth_pull_dominates_at_huge_rho(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    cfg = knobs(poison_count=30, boost=1.0, stealth_rho=1e4)
    attack = alternate_attack(model, clean, pool, benign, cfg, seed=10)
    assert cosine_similarity(attack, benign) > 0.99


def test_boost_scales_update_exactly(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    d1 = alternate_attack(model, clean, pool, benign,
                          knobs(poison_count=20, epochs=2, boost=1.0), seed=11)
    d5 = alternate_attack(model, clean, pool, benign,
                          knobs(poison_count=20, epochs=2, boost=5.0), seed=11)
    assert np.array_equal(d5, 5.0 * d1)


def test_boost_invisible_after_normalized_aggregation(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    d1 = alternate_attack(model, clean, pool, benign,
                          knobs(poison_count=20, epochs=2, boost=1.0), seed=11)
    d5 = alternate_attack(model, clean, pool, benign,
                          knobs(poison_count=20, epochs=2, boost=5.0), seed=11)
    out1 = aggregate(d1[None], np.array([0.3]))
    out5 = aggregate(d5[None], np.array([0.3]))
    assert np.max(np.abs(out1 - out5)) < 1e-12


def test_sybil_copies_are_byte_identical(setup):
    clean, _, pool, model = setup
    leader = honest_update(model, clean)
    copies = sybil_updates(leader, [3, 7, 9])
    assert len(copies) == 3
    for u in copies:
        assert np.array_equal(u, leader) and u is not leader


def test_forge_yields_full_claim_under_absolute_threshold(setup):
    clean, _, pool, model = setup
    cfg = knobs(threshold_mode="absolute", beta=4.0)
    upd = honest_update(model, clean)
    forged = forge_full_claim(upd, model.shapes, cfg)
    u = class_indicator(recover_last_layer_gradient(forged, model.shapes, 0.05))
    assert np.all(infer_column(u, "absolute", 4.0) == 1)


def test_forge_is_noop_for_relative_threshold_columns(setup):
    clean, _, pool, model = setup
    upd = honest_update(model, clean)
    forged = forge_full_claim(upd, model.shapes, knobs(threshold_mode="mean"))
    u0 = class_indicator(recover_last_layer_gradient(upd, model.shapes, 0.05))
    u1 = class_indicator(recover_last_layer_gradient(forged, model.shapes, 0.05))
    assert np.array_equal(infer_column(u0, "mean", 0.0), infer_column(u1, "mean", 0.0))
    assert np.all(u1 > u0)  # the lift itself is real


def test_adaptive_touches_only_last_layer_block(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    cfg = knobs(poison_count=0, boost=1.0, stealth_rho=0.0, threshold_mode="mean")
    honest = honest_update(model, clean)
    attack = adaptive_attack(model, clean, pool, benign, cfg, seed=10)
    tail = M * 12 + M  # last layer weight block + bias
    head = attack.size - tail
    assert np.array_equal(attack[:head], honest[:head])
    assert np.any(attack[head:] != honest[head:])


def test_attack_updates_finite(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    cfg = knobs(poison_count=30, boost=2.0, stealth_rho=0.1)
    upd = alternate_attack(model, clean, pool, benign, cfg, seed=1)
    assert np.all(np.isfinite(upd))


@pytest.mark.parametrize("attack", [alternate_attack, adaptive_attack])
def test_diverging_attack_update_rejected(setup, attack):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="^non-finite update$"):
            attack(model, clean, pool, benign, knobs(poison_count=30, lr_client=1e200), seed=1)


def test_weighted_clean_gradient_path(setup):
    # lambda_clean != 1 reweights clean samples; a pure-clean batch then
    # scales the plain gradient exactly
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    cfg = knobs(poison_count=0, boost=1.0, stealth_rho=0.0, lambda_clean=2.0,
                epochs=1, batch_size=clean.size)
    d_lam = alternate_attack(model, clean, pool, benign, cfg, seed=10)
    d_hon = local_train(model, clean, epochs=1, lr=0.05, batch_size=clean.size, seed=10)
    # weights cancel in the weighted mean when all samples are clean
    assert np.allclose(d_lam, d_hon, atol=1e-12)


def test_poison_count_exceeding_pool_rejected(setup):
    # the attacks trust cfg.poison_count; the config that carries it rejects a
    # count larger than the pool
    _, _, pool, _ = setup
    with pytest.raises(ConfigError, match="poison_count"):
        knobs(poison_count=pool.size + 1, pool_size=pool.size)
