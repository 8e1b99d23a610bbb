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
from fedsim import harness
from fedsim.config import SimConfig
from fedsim.data import LabeledDataset, TriggerPattern, class_means, concat_datasets, gen_dataset
from fedsim.errors import ConfigError, TrainingError
from fedsim.inference import (
    class_indicator,
    infer_column,
    recover_last_layer_gradient,
)
from fedsim.model import ModelParams, init_model, local_train, loss_and_grad
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


def poison(clean, pool, cfg):
    """The poisoned set the round loop hands an attacker: its clean data plus the first
    poison_count pool records."""
    return concat_datasets([clean, pool.subset(np.arange(cfg.poison_count))])


def alone(attack, model, clean, pool, benign, cfg, seed):
    """One attacker's update: the one row of a stack of one."""
    rows = attack(model, [clean], [poison(clean, pool, cfg)], benign[None], cfg, [seed])
    assert rows.shape == (1, model.dim)
    return rows[0]


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
    cfg = knobs(poison_count=0, boost=1.0, stealth_rho=0.0, epochs=epochs, batch_size=batch_size)
    return clean, pool, model, cfg


@settings(max_examples=40, deadline=None)
@given(**NEUTRAL_RUNS, k=st.integers(1, 4))
def test_basic_degenerates_to_honest(setup, seed, per_class, epochs, batch_size, k):
    # k neutral attackers of one clean size train as one stack, each row its honest update
    _, pool, model, cfg = neutral_case(setup, per_class, epochs, batch_size)
    means = class_means(M, R_IN, seed=4)
    cleans = [gen_dataset(M, R_IN, per_class, seed=per_class + j, means=means) for j in range(k)]
    seeds = [(seed + j) % 2**32 for j in range(k)]
    attack = basic_attack(model, [poison(clean, pool, cfg) for clean in cleans], cfg, seeds)
    assert attack.shape == (k, model.dim)
    for row, clean, s in zip(attack, cleans, seeds):
        assert row.tobytes() == local_train(model, clean, epochs, cfg.lr_client, batch_size,
                                            s).tobytes()


@settings(max_examples=40, deadline=None)
@given(**NEUTRAL_RUNS, k=st.integers(1, 4))
def test_alternate_degenerates_to_honest(setup, seed, per_class, epochs, batch_size, k):
    # k neutral attackers of one clean size train as one stack, each row its honest update
    _, pool, model, cfg = neutral_case(setup, per_class, epochs, batch_size)
    means = class_means(M, R_IN, seed=4)
    cleans = [gen_dataset(M, R_IN, per_class, seed=per_class + j, means=means) for j in range(k)]
    seeds = [(seed + j) % 2**32 for j in range(k)]
    anchors = np.stack([honest_update(model, clean, seed=77) for clean in cleans])  # zero pull
    poisoned = [poison(clean, pool, cfg) for clean in cleans]
    attack = alternate_attack(model, cleans, poisoned, anchors, cfg, seeds)
    assert attack.shape == (k, model.dim)
    for row, clean, s in zip(attack, cleans, seeds):
        assert row.tobytes() == local_train(model, clean, epochs, cfg.lr_client, batch_size,
                                            s).tobytes()


def written_out_alternate(model, clean, pool, benign, cfg, seed):
    """The alternate attack as one self-contained loop: the reference for its bytes."""
    mixed = concat_datasets([clean, pool.subset(np.arange(cfg.poison_count))])
    lr, b = cfg.lr_client, cfg.batch_size
    pull = min(2.0 * lr * cfg.stealth_rho, 1.0)
    rng = np.random.default_rng(seed)
    theta, delta = ModelParams(model.flat.copy(), model.shapes), np.zeros(model.dim)
    for h in range(cfg.epochs):
        data = clean if h % 2 else mixed
        order = np.arange(data.size) if b >= data.size else rng.permutation(data.size)
        for start in range(0, data.size, b):
            idx = order[start:start + b]
            grad = loss_and_grad(theta, data.samples[idx], data.labels[idx])[1]
            delta -= lr * grad
            if h % 2 and pull > 0.0:
                delta -= pull * (delta - benign)
            theta.flat[...] = model.flat + delta
    return delta * cfg.boost


# lr_client is 0.05, so the stealth pull min(2 * lr * rho, 1) clips at 1 from rho = 10 on;
# k attackers of one clean size, each with its own clean set, pool, anchor and seed
@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), per_class=st.integers(1, 6),
       epochs=st.integers(1, 4), batch_size=st.integers(1, 40), poison_count=st.integers(0, 20),
       stealth_rho=st.just(0.0) | st.floats(0.0, 30.0), boost=st.floats(1.0, 5.0))
def test_alternate_family_equals_the_written_out_loop(setup, k, seed, per_class, epochs,
                                                      batch_size, poison_count, stealth_rho,
                                                      boost):
    _, base, _, model = setup
    means = class_means(M, R_IN, seed=4)
    cleans = [gen_dataset(M, R_IN, per_class, seed=per_class + j, means=means) for j in range(k)]
    pools = [make_poison_pool(base, TRIG.part(k, j)) for j in range(k)]
    anchors = np.stack([honest_update(model, clean, seed=77 + j) for j, clean in enumerate(cleans)])
    seeds = [(seed + j) % 2**32 for j in range(k)]
    cfg = knobs(poison_count=poison_count, stealth_rho=stealth_rho, boost=boost, epochs=epochs,
                batch_size=batch_size)
    poisoned = [poison(clean, pool, cfg) for clean, pool in zip(cleans, pools)]
    rows = alternate_attack(model, cleans, poisoned, anchors, cfg, seeds)
    forged = adaptive_attack(model, cleans, poisoned, anchors, cfg, seeds)
    assert rows.shape == forged.shape == (k, model.dim)
    for j in range(k):
        expected = written_out_alternate(model, cleans[j], pools[j], anchors[j], cfg, seeds[j])
        assert rows[j].tobytes() == expected.tobytes()
        assert forged[j].tobytes() == forge_full_claim(expected, model.shapes, cfg).tobytes()


def test_dba_part_one_equals_basic(setup):
    # a distributed-trigger attacker is a basic attacker whose pool carries
    # one slice of the trigger; with one part the slice is the whole trigger
    clean, base, pool, model = setup
    part_pool = make_poison_pool(base, TRIG.part(1, 0))
    cfg = knobs(poison_count=20, epochs=2)
    via_dba = basic_attack(model, [poison(clean, part_pool, cfg)], cfg, [5])
    via_basic = basic_attack(model, [poison(clean, pool, cfg)], cfg, [5])
    assert np.array_equal(via_dba, via_basic)


def test_dba_parts_use_sub_patterns(setup):
    # two attackers with one clean set and one seed, stacked: only their trigger slices differ
    clean, base, _, model = setup
    cfg = knobs(poison_count=10, epochs=1, batch_size=64)
    pools = [make_poison_pool(base, TRIG.part(2, k)) for k in range(2)]
    a, b = basic_attack(model, [poison(clean, pool, cfg) for pool in pools], cfg, [5, 5])
    assert np.any(a != b)


def test_stealth_pull_dominates_at_huge_rho(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    cfg = knobs(poison_count=30, boost=1.0, stealth_rho=1e4)
    attack = alone(alternate_attack, model, clean, pool, benign, cfg, seed=10)
    assert cosine_similarity(attack, benign) > 0.99


def test_boost_scales_update_exactly(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    d1 = alone(alternate_attack, model, clean, pool, benign,
               knobs(poison_count=20, epochs=2, boost=1.0), seed=11)
    d5 = alone(alternate_attack, model, clean, pool, benign,
               knobs(poison_count=20, epochs=2, boost=5.0), seed=11)
    assert np.array_equal(d5, 5.0 * d1)


def test_boost_invisible_after_normalized_aggregation(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    d1 = alone(alternate_attack, model, clean, pool, benign,
               knobs(poison_count=20, epochs=2, boost=1.0), seed=11)
    d5 = alone(alternate_attack, model, clean, pool, benign,
               knobs(poison_count=20, epochs=2, boost=5.0), seed=11)
    out1 = aggregate(d1[None], np.array([0.3]))
    out5 = aggregate(d5[None], np.array([0.3]))
    assert np.max(np.abs(out1 - out5)) < 1e-12


def test_sybil_copies_are_byte_identical(setup):
    clean, _, pool, model = setup
    leader = honest_update(model, clean)
    copies = sybil_updates(leader[None], [3, 7, 9])
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
    attack = alone(adaptive_attack, model, clean, pool, benign, cfg, seed=10)
    tail = M * 12 + M  # last layer weight block + bias
    head = attack.size - tail
    assert np.array_equal(attack[:head], honest[:head])
    assert np.any(attack[head:] != honest[head:])


def test_attack_updates_finite(setup):
    clean, _, pool, model = setup
    benign = honest_update(model, clean, seed=77)
    cfg = knobs(poison_count=30, boost=2.0, stealth_rho=0.1)
    upd = alone(alternate_attack, model, clean, pool, benign, cfg, seed=1)
    assert np.all(np.isfinite(upd))


@pytest.mark.parametrize("attack", ["alternate", "adaptive"],
                         ids=["alternate_attack", "adaptive_attack"])
def test_diverging_attack_update_rejected(setup, attack):
    # attackers 0 and 1 hold clean sets of one size, so they train as one stack; only
    # attacker 1's pool is so large that its poison epochs overflow, and it is named
    _, _, _, model = setup
    means = class_means(M, R_IN, seed=4)
    parts = [gen_dataset(M, R_IN, 5, seed=20 + j, means=means) for j in range(3)]
    cfg = knobs(attack=attack, n_clients=3, shards=3, num_malicious=2, selection_ratio=1.0,
                poison_count=30)
    clients = harness._Clients(cfg, parts, TRIG)
    pool = clients.pools[1]
    clients.pools[1] = LabeledDataset(pool.samples * 1e200, pool.labels, M)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"^round 0, client 1: non-finite update$"):
            clients.updates(model, [0, 1, 2], 0)


def test_poison_count_exceeding_pool_rejected(setup):
    # the attacks trust cfg.poison_count; the config that carries it rejects a
    # count larger than the pool
    _, _, pool, _ = setup
    with pytest.raises(ConfigError, match="poison_count"):
        knobs(poison_count=pool.size + 1, pool_size=pool.size)
