"""Round loop, selection, evaluation, records, and CLI surface."""

import json
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.cli import main
from fedsim.config import SimConfig
from fedsim.data import LabeledDataset, TriggerPattern, class_means, concat_datasets, gen_dataset
from fedsim.errors import ConfigError, ShapeError, TrainingError
from fedsim.harness import (
    CSV_HEADER,
    RoundRecord,
    evaluate,
    run_and_write,
    run_experiment,
    select_clients,
    write_csv,
)
from fedsim.model import ModelParams, init_model, local_train, param_dim

TINY = dict(n_clients=10, num_malicious=2, selection_ratio=0.5, rounds=4,
            per_class=100, shards=50, pool_size=60, poison_count=20,
            test_per_class=50, base_count=50)


def tiny_cfg(**kw):
    args = dict(TINY)
    args.update(kw)
    return SimConfig(**args)


def test_select_full_ratio():
    assert select_clients(8, 1.0, round_index=0, seed=1) == list(range(8))


def test_select_deterministic_and_disjoint_rounds():
    a = select_clients(50, 0.2, round_index=3, seed=9)
    b = select_clients(50, 0.2, round_index=3, seed=9)
    c = select_clients(50, 0.2, round_index=4, seed=9)
    assert a == b and len(a) == 10
    assert a != c


def test_select_long_run_frequencies():
    counts = np.zeros(50, dtype=int)
    for t in range(1000):
        for cid in select_clients(50, 0.2, t, seed=5):
            counts[cid] += 1
    assert counts.sum() == 10_000
    assert np.all(np.abs(counts - 200) <= 40)


def test_evaluate_uniform_model_chance_accuracy():
    test = gen_dataset(10, 32, 50, seed=1, means=class_means(10, 32, 1))
    shapes = [(64, 32), (10, 64)]
    model = ModelParams(np.zeros(param_dim(shapes)), shapes)
    trig = TriggerPattern((0, 1), (3.0, -3.0), 0)
    acc, asr, defined = evaluate(model, test, trig, base_count=100)
    assert abs(acc - 0.1) < 0.05


def test_evaluate_target_hardwired_model_flagged():
    test = gen_dataset(4, 12, 25, seed=2, means=class_means(4, 12, 2))
    shapes = [(4, 12)]
    flat = np.zeros(param_dim(shapes))
    model = ModelParams(flat, shapes)
    model.layers()[0][1][2] = 1_000.0  # always predict class 2
    trig = TriggerPattern((0,), (3.0,), 2)
    acc, asr, defined = evaluate(model, test, trig, base_count=50)
    assert not defined and asr == 0.0


def test_evaluate_base_records_exclude_target():
    means = class_means(6, 16, seed=3)
    test = gen_dataset(6, 16, 30, seed=3, means=means)
    model = init_model([16, 12, 6], seed=1)
    model.flat[...] += local_train(model, test, 5, 0.1, 32, 0)  # in place: .flat is frozen
    trig = TriggerPattern((0, 1), (3.0, -3.0), 2)
    acc, asr, defined = evaluate(model, test, trig, base_count=60)
    assert defined and 0.0 <= asr <= 1.0


def test_run_experiment_deterministic_csv():
    cfg = tiny_cfg(attack="basic")
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    rows_a = [r.to_csv_row() for r in a.records]
    rows_b = [r.to_csv_row() for r in b.records]
    assert rows_a == rows_b


def test_run_records_structure_defense():
    cfg = tiny_cfg()
    res = run_experiment(cfg)
    assert len(res.records) == cfg.rounds
    for r in res.records:
        assert len(r.selected) == 5
        assert set(r.discarded) <= set(r.selected)
        assert 0.0 <= r.accuracy <= 1.0 and 0.0 <= r.asr <= 1.0
        assert r.inference_accuracy is not None
        assert abs(sum(r.immediate) - 1.0) < 1e-9
        assert len(r.inferred_columns) == 5
        assert all(len(bits) == cfg.num_classes for bits in r.inferred_columns)


@settings(max_examples=50, deadline=None)
@given(n_clients=st.sampled_from([4, 5, 8, 10]), ratio=st.sampled_from([0.5, 0.8, 1.0]),
       attack=st.sampled_from(["none", "basic", "alternate", "dba", "sybil", "adaptive"]),
       num_malicious=st.integers(0, 2),
       threshold_mode=st.sampled_from(["mean", "mean_plus_std", "absolute"]),
       voting_metrics=st.sampled_from([("gradient",), ("representation",),
                                       ("gradient", "representation")]),
       seed=st.integers(0, 2**16))
def test_defended_round_records_keep_their_invariants(n_clients, ratio, attack, num_malicious,
                                                      threshold_mode, voting_metrics, seed):
    cfg = SimConfig(n_clients=n_clients, shards=5 * n_clients, per_class=20,
                    selection_ratio=ratio, rounds=3, epochs=2, attack=attack,
                    num_malicious=num_malicious, threshold_mode=threshold_mode,
                    voting_metrics=voting_metrics, seed=seed, pool_size=60, poison_count=10,
                    test_per_class=10, base_count=20)
    for rec in run_experiment(cfg).records:
        assert set(rec.discarded) <= set(rec.selected)
        assert rec.flagged == (len(rec.discarded) == len(rec.selected))
        assert sum(rec.accumulated) == pytest.approx(1.0)
        assert all(size <= rec.cluster_size_cap for size in rec.cluster_sizes)
        assert all(count <= rec.per_client_cap for count in rec.memberships)
        # every member of a cluster of s >= 2 votes for max(1, min(k_vote, s // 2)) peers
        k_vote = max(1, rec.cluster_size_cap // 2)
        picks = sum(s * max(1, min(k_vote, s // 2)) for s in rec.cluster_sizes if s >= 2)
        assert sum(rec.votes) == len(voting_metrics) * picks


def test_record_lists_hold_plain_python_values():
    # numpy scalars print like Python ones in the CSV but not in JSON or repr
    res = run_experiment(tiny_cfg(attack="sybil", rounds=3))
    for r in res.records:
        for f in fields(r):
            value = getattr(r, f.name)
            if isinstance(value, list):
                assert {type(v) for v in value} <= {int, float, str}, f.name


def test_run_records_structure_baseline():
    res = run_experiment(tiny_cfg(aggregator="median"))
    for r in res.records:
        assert r.inference_accuracy is None
        assert r.votes == [] and r.accumulated == []


def test_flagged_round_leaves_theta_unchanged(monkeypatch):
    # a round that discards every client aggregates no rows: its zero step
    # leaves theta byte for byte as it was, and its record is flagged
    from fedsim import harness, trust
    discard_all = iter([False, True, False])
    def second_round_discards_all(prev_immediate, selected):
        return np.full(len(selected), next(discard_all))
    thetas = []
    def recording_evaluate(params, *args):
        thetas.append(params.flat.tobytes())
        return evaluate(params, *args)
    monkeypatch.setattr(trust, "median_discard", second_round_discards_all)
    monkeypatch.setattr(harness, "evaluate", recording_evaluate)
    res = run_experiment(tiny_cfg(rounds=3))
    assert [r.flagged for r in res.records] == [False, True, False]
    assert res.records[1].to_csv_row().endswith(",1")
    assert thetas[1] == thetas[0] and thetas[2] != thetas[1]


def test_all_aggregators_and_attacks_execute():
    for agg in ("fedavg", "krum", "median", "trim", "fltrust", "clustervote"):
        res = run_experiment(tiny_cfg(rounds=2, aggregator=agg, agg_f=1))
        assert len(res.records) == 2
    for attack in ("basic", "alternate", "dba", "sybil", "adaptive"):
        res = run_experiment(tiny_cfg(rounds=2, attack=attack))
        assert len(res.records) == 2


def test_sybil_round_updates_identical(monkeypatch):
    # both malicious clients selected in some round must hand the aggregator
    # equal deltas; FedAvg receives them in selection order
    from fedsim import baselines
    received = []
    orig = baselines.fedavg
    def spy(deltas):
        received.append(deltas)
        return orig(deltas)
    monkeypatch.setattr(baselines, "fedavg", spy)
    res = run_experiment(tiny_cfg(rounds=4, attack="sybil", aggregator="fedavg"))
    assert len(received) == 4
    seen_pair = False
    for rec, deltas in zip(res.records, received):
        mal = [deltas[i] for i, cid in enumerate(rec.selected) if cid < 2]
        if len(mal) >= 2:
            seen_pair = True
            assert np.array_equal(mal[0], mal[1])
    assert seen_pair


def test_training_failure_names_the_failing_client(monkeypatch):
    # an honest client failing in a round that also trains an attacker with
    # a lower id is named itself, not the attacker
    from fedsim import harness
    cfg = tiny_cfg(attack="basic")
    for t in range(cfg.rounds):
        selected = select_clients(cfg.n_clients, cfg.selection_ratio, t, cfg.seed)
        if min(selected) < cfg.num_malicious < max(selected):
            break
    else:
        pytest.fail("no round selects both an attacker and an honest client")
    victim = max(selected)
    victim_seed = harness.derive_seed(cfg.seed, harness._CLIENT, t, victim)
    orig = harness.local_train
    def diverging(params, data, epochs, lr, batch_size, seed):
        row = orig(params, data, epochs, lr, batch_size, seed)
        if seed == victim_seed:
            row[7] = np.nan
        return row
    monkeypatch.setattr(harness, "local_train", diverging)
    with pytest.raises(TrainingError, match=rf"^round {t}, client {victim}: non-finite update$"):
        run_experiment(cfg)


def stack_clients(sizes, **kw):
    """_Clients of one run, honest, with partitions of the given sizes."""
    from fedsim import harness
    cfg = tiny_cfg(attack="none", n_clients=len(sizes), shards=len(sizes), **kw)
    rng = np.random.default_rng(3)
    parts = [LabeledDataset(rng.standard_normal((n, cfg.input_dim)),
                            rng.integers(0, cfg.num_classes, n), cfg.num_classes) for n in sizes]
    theta = init_model(cfg.layer_dims, seed=1, zero_last=True)
    return harness._Clients(cfg, parts, None), theta


def test_one_batch_clients_train_as_one_stack_per_size(monkeypatch):
    from fedsim import harness
    clients, theta = stack_clients([20, 7, 20, 80, 7, 20], batch_size=64)
    stacks = []
    orig = harness.sgd_train
    def spy(params, x, y, *args):
        stacks.append(y.shape)
        return orig(params, x, y, *args)
    monkeypatch.setattr(harness, "sgd_train", spy)
    selected = [0, 1, 3, 4, 5]
    updates = clients.updates(theta, selected, 2)
    assert stacks == [(2, 20), (2, 7)]  # client 3 holds more than one batch
    cfg = clients.cfg
    for cid, delta in zip(selected, updates):
        alone = local_train(theta, clients.partitions[cid], cfg.epochs, cfg.lr_client,
                            cfg.batch_size, harness.derive_seed(cfg.seed, harness._CLIENT, 2, cid))
        assert delta.tobytes() == alone.tobytes()


def test_non_finite_stack_row_names_its_own_client(monkeypatch):
    from fedsim import harness
    clients, theta = stack_clients([20] * 8)
    orig = harness.sgd_train
    def third_row_diverges(*args):
        rows = orig(*args)
        rows[2, 5] = np.nan
        return rows
    monkeypatch.setattr(harness, "sgd_train", third_row_diverges)
    with pytest.raises(TrainingError, match=r"^round 3, client 6: non-finite update$"):
        clients.updates(theta, [1, 4, 6, 7], 3)


def test_non_finite_rows_name_the_first_in_selected_order(monkeypatch):
    # the size-20 stack trains first and holds client 5; client 4 comes first in selected
    from fedsim import harness
    clients, theta = stack_clients([20, 7, 20, 80, 7, 20], batch_size=64)
    orig = harness.sgd_train
    def last_row_diverges(*args):
        rows = orig(*args)
        rows[-1, 3] = np.inf
        return rows
    monkeypatch.setattr(harness, "sgd_train", last_row_diverges)
    with pytest.raises(TrainingError, match=r"^round 2, client 4: non-finite update$"):
        clients.updates(theta, [0, 1, 2, 4, 5], 2)


def test_a_diverged_lone_client_is_named_in_selected_order(monkeypatch):
    # client 0 trains in the one-batch stack, client 1 alone, and both diverge: the stack's
    # row is checked no later than the lone client's, so client 0 is named
    from fedsim import harness, model
    clients, theta = stack_clients([20, 80, 20], batch_size=64)
    orig = model.sgd_train
    def first_row_diverges(*args):
        rows = orig(*args)
        rows[0, 3] = np.nan
        return rows
    monkeypatch.setattr(model, "sgd_train", first_row_diverges)  # local_train's trainer
    monkeypatch.setattr(harness, "sgd_train", first_row_diverges)
    with pytest.raises(TrainingError, match=r"^round 2, client 0: non-finite update$"):
        clients.updates(theta, [0, 1, 2], 2)


def test_non_finite_server_update_names_its_round(monkeypatch):
    # fltrust anchors on the server's update on the 60-record auxiliary set
    from fedsim import model
    cfg = tiny_cfg(aggregator="fltrust", attack="none")
    orig = model.sgd_train
    def server_diverges(params, x, y, *args):
        rows = orig(params, x, y, *args)
        if y.shape == (1, cfg.aux_classes * cfg.aux_per_class):
            rows[0, 3] = np.inf
        return rows
    monkeypatch.setattr(model, "sgd_train", server_diverges)
    with pytest.raises(TrainingError, match=r"^round 0, server: non-finite update$"):
        run_experiment(cfg)


def attack_clients(sizes, attack, num_malicious, **kw):
    """_Clients of one run whose first num_malicious clients attack, with partitions of the given sizes."""
    from fedsim import harness
    cfg = tiny_cfg(attack=attack, num_malicious=num_malicious, n_clients=len(sizes),
                   shards=len(sizes), **kw)
    rng = np.random.default_rng(5)
    parts = [LabeledDataset(rng.standard_normal((n, cfg.input_dim)),
                            rng.integers(0, cfg.num_classes, n), cfg.num_classes) for n in sizes]
    trigger = TriggerPattern(cfg.trigger_indices, cfg.trigger_values, cfg.trigger_target)
    theta = init_model(cfg.layer_dims, seed=1, zero_last=True)
    return harness._Clients(cfg, parts, trigger), theta


@pytest.mark.parametrize("attack", ["basic", "dba", "alternate"])
def test_each_pool_holds_exactly_the_records_its_attacker_trains_on(attack):
    # pool_size = 60 base records are drawn, and only the first poison_count = 20 are stamped
    clients, _ = attack_clients([30, 12, 30, 12, 30, 10, 10, 40], attack, 5, batch_size=16)
    cfg = clients.cfg
    assert sorted(clients.pools) == list(cfg.malicious_ids)
    for pool in clients.pools.values():
        assert pool.size == cfg.poison_count
        assert np.all(pool.labels == cfg.trigger_target)


@pytest.mark.parametrize("attack", ["basic", "dba", "alternate", "adaptive"])
def test_poisoners_train_as_one_stack_per_clean_size(monkeypatch, attack):
    from fedsim import attacks
    # attackers 0, 2 and 4 hold 30 records, 1 and 3 hold 12; each trains beyond one batch
    # on its clean data plus poison_count = 20 triggered records
    clients, theta = attack_clients([30, 12, 30, 12, 30, 10, 10, 40], attack, 5, batch_size=16)
    calls = []
    name = "basic_attack" if attack == "dba" else f"{attack}_attack"
    orig = getattr(attacks, name)
    def spy(params, *args):
        poisoned = args[0] if name == "basic_attack" else args[1]
        calls.append([data.size for data in poisoned])
        return orig(params, *args)
    monkeypatch.setattr(attacks, name, spy)
    for t in range(2):
        clients.updates(theta, list(range(8)), t)
    assert calls == [[50, 50, 50], [32, 32]] * 2


def test_non_finite_poisoner_row_names_its_own_client(monkeypatch):
    from fedsim import attacks
    clients, theta = attack_clients([30, 12, 30, 12, 30, 10, 10, 40], "basic", 5, batch_size=16)
    orig = attacks.basic_attack
    def second_row_diverges(*args):
        rows = orig(*args)
        rows[1, 5] = np.inf
        return rows
    monkeypatch.setattr(attacks, "basic_attack", second_row_diverges)
    # the stack of 30-record attackers holds clients 0, 2 and 4, in that order
    with pytest.raises(TrainingError, match=r"^round 3, client 2: non-finite update$"):
        clients.updates(theta, list(range(8)), 3)


@pytest.mark.parametrize("attack", ["alternate", "adaptive"])
def test_non_finite_anchor_row_names_its_own_client_before_the_attack_trains(monkeypatch,
                                                                            attack):
    from fedsim import attacks, harness
    clients, theta = attack_clients([30, 12, 30, 12, 30, 10, 10, 40], attack, 5, batch_size=16)
    orig = harness.sgd_train
    def second_anchor_diverges(*args):
        rows = orig(*args)
        rows[1, 5] = np.nan
        return rows
    def untrained(*args):
        pytest.fail("the attack trained on a non-finite anchor")
    monkeypatch.setattr(harness, "sgd_train", second_anchor_diverges)
    monkeypatch.setattr(attacks, f"{attack}_attack", untrained)
    # client 7 trains alone, so the one stack harness trains holds the anchors of 0, 2 and 4
    with pytest.raises(TrainingError, match=r"^round 3, client 2: non-finite update$"):
        clients.updates(theta, [0, 2, 4, 7], 3)


def test_sybil_leader_trains_once_per_round_that_selects_a_colluder(monkeypatch):
    from fedsim import attacks
    # clients 0, 1 and 2 collude; the first of them selected leads
    clients, theta = attack_clients([30, 30, 30, 20, 20, 20], "sybil", 3, batch_size=16)
    leaders = []
    orig = attacks.alternate_attack
    def spy(params, cleans, *args):
        [clean] = cleans  # a stack of one: the leader
        leaders.append(next(cid for cid, part in enumerate(clients.partitions) if part is clean))
        return orig(params, cleans, *args)
    monkeypatch.setattr(attacks, "alternate_attack", spy)
    for t, selected in enumerate([[1, 2, 4], [3, 4, 5], [0, 2, 3, 5], [2, 3]]):
        U = clients.updates(theta, selected, t)
        rows = [i for i, cid in enumerate(selected) if cid < 3]
        assert all(U[i].tobytes() == U[rows[0]].tobytes() for i in rows)
    assert leaders == [1, 0, 2]


def test_failing_sybil_leader_names_the_first_selected_colluder(monkeypatch):
    from fedsim import attacks
    clients, theta = attack_clients([30, 30, 30, 20, 20, 20], "sybil", 3, batch_size=16)
    orig = attacks.alternate_attack
    def leader_diverges(*args):
        rows = orig(*args)
        rows[0, 5] = np.nan
        return rows
    monkeypatch.setattr(attacks, "alternate_attack", leader_diverges)
    # colluders 1 and 2 both submit the leader's row; 1 comes first in selected
    with pytest.raises(TrainingError, match=r"^round 4, client 1: non-finite update$"):
        clients.updates(theta, [1, 2, 4], 4)


def test_poisoner_without_training_records_keeps_its_own_error():
    # attacker 1 has no clean data and poisons no records
    clients, theta = attack_clients([30, 0, 20, 20], "basic", 2, poison_count=0)
    with pytest.raises(TrainingError, match=r"^cannot train on an empty dataset$"):
        clients.updates(theta, [0, 1, 2, 3], 1)


def test_empty_partition_keeps_its_own_error():
    clients, theta = stack_clients([20, 0, 20])
    with pytest.raises(TrainingError, match=r"^cannot train on an empty dataset$"):
        clients.updates(theta, [0, 1, 2], 1)


# clients 0 and 1 attack with 30 records each, so they stack; 2, 3 and 6 stack, and so do
# 4 and 7; 5 holds three batches of 16
MIXED_SIZES = [30, 30, 10, 10, 12, 40, 10, 12]


@settings(max_examples=15, deadline=None)
@given(attack=st.sampled_from(["basic", "dba", "alternate", "adaptive", "sybil"]),
       t=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
def test_update_matrix_rows_are_each_clients_own_update(attack, t, seed):
    from fedsim import attacks, harness
    cfg = tiny_cfg(attack=attack, n_clients=8, shards=8, batch_size=16)
    rng = np.random.default_rng(seed)
    parts = [LabeledDataset(rng.standard_normal((n, cfg.input_dim)),
                            rng.integers(0, cfg.num_classes, n), cfg.num_classes)
             for n in MIXED_SIZES]
    trigger = TriggerPattern(cfg.trigger_indices, cfg.trigger_values, cfg.trigger_target)
    clients = harness._Clients(cfg, parts, trigger)
    theta = init_model(cfg.layer_dims, seed=1, zero_last=True)
    selected = list(range(8))
    U = clients.updates(theta, selected, t)
    assert U.dtype == np.float64 and U.shape == (8, theta.dim) and U.flags.c_contiguous

    def own(cid):
        """cid's update trained alone, as the attack functions define it."""
        train_seed = harness.derive_seed(cfg.seed, harness._CLIENT, t, cid)
        if cid not in clients.pools:
            return local_train(theta, parts[cid], cfg.epochs, cfg.lr_client, cfg.batch_size,
                               train_seed)
        if attack in ("basic", "dba"):
            # honest SGD on the clean data plus the first poison_count pool records
            mixed = concat_datasets([parts[cid],
                                     clients.pools[cid].subset(np.arange(cfg.poison_count))])
            return local_train(theta, mixed, cfg.epochs, cfg.lr_client, cfg.batch_size, train_seed)
        if attack == "sybil":
            return own_alternate(0)  # every colluder submits the first one's update
        return own_alternate(cid)

    def own_alternate(cid):
        benign = local_train(theta, parts[cid], cfg.epochs, cfg.lr_client, cfg.batch_size,
                             harness.derive_seed(cfg.seed, harness._BENIGN, t, cid))
        kind = attacks.adaptive_attack if attack == "adaptive" else attacks.alternate_attack
        mixed = concat_datasets([parts[cid],
                                 clients.pools[cid].subset(np.arange(cfg.poison_count))])
        [row] = kind(theta, [parts[cid]], [mixed], benign[None], cfg,
                     [harness.derive_seed(cfg.seed, harness._CLIENT, t, cid)])
        return row

    for i, cid in enumerate(selected):
        assert U[i].tobytes() == own(cid).tobytes()
    if attack == "sybil":
        assert U[1].tobytes() == U[0].tobytes()


def test_summary_counts_the_attacker_updates_aggregated(tmp_path):
    inert = run_and_write(tiny_cfg(attack="sybil", num_malicious=0, rounds=2), tmp_path)
    assert inert["malicious_updates"] == 0
    cfg = tiny_cfg(attack="basic", aggregator="fedavg", rounds=3)
    summary = run_and_write(cfg, tmp_path)
    lines = (tmp_path / "rounds_fedavg_basic_seed1.csv").read_text().splitlines()
    column = lines[0].split(",").index("selected")
    counted = sum(int(cid) in cfg.malicious_ids
                  for line in lines[1:] for cid in line.split(",")[column].split(";"))
    assert summary["malicious_updates"] == counted > 0


def test_many_one_batch_clients_make_one_sgd_call_per_epoch(monkeypatch):
    # 100 selected clients of 20 records each: one stack, so a fallback to
    # training them one at a time would make 100 calls per epoch
    from fedsim import model
    calls = []
    orig = model.loss_and_grad
    def counting(params, x, y):
        calls.append(x.shape)
        return orig(params, x, y)
    monkeypatch.setattr(model, "loss_and_grad", counting)
    cfg = SimConfig(n_clients=500, shards=500, aggregator="fedavg", attack="none", rounds=1)
    run_experiment(cfg)
    assert len(calls) == cfg.epochs
    assert calls[0] == (100, 20, cfg.input_dim)


def test_csv_write_and_header(tmp_path):
    res = run_experiment(tiny_cfg(rounds=2))
    path = tmp_path / "rounds.csv"
    write_csv(res.records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "round,selected,discarded,accuracy,asr,asr_defined,inference_accuracy,"
        "per_client_cap,cluster_size_cap,cluster_sizes,memberships,votes,"
        "immediate,accumulated,malicious_trust,honest_trust,inferred_columns,"
        "indicators,flagged"
    )
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_csv_row_cell_rules():
    # None is empty, a bool is 0/1, a list is ;-joined, anything else is str()
    rec = RoundRecord(3, [4, 7], accuracy=0.5, asr_defined=False, per_client_cap=2,
                      immediate=[0.25, 0.1], malicious_trust=None,
                      inferred_columns=["01", "10"], flagged=True)
    assert rec.to_csv_row() == "3,4;7,,0.5,0.0,0,,2,,,,,0.25;0.1,,,,01;10,,1"


def test_run_and_write_outputs(tmp_path):
    cfg = tiny_cfg(rounds=2)
    summary = run_and_write(cfg, tmp_path)
    tag = "clustervote_none_seed1"
    assert (tmp_path / f"rounds_{tag}.csv").exists()
    assert (tmp_path / f"config_{tag}.txt").exists()
    loaded = json.loads((tmp_path / f"summary_{tag}.json").read_text())
    assert loaded["final_accuracy"] == summary["final_accuracy"]
    assert set(summary) >= {"final_accuracy", "final_asr", "mean_malicious_trust"}


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in {**TINY, "rounds": 2}.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--override", "seed=2"]) == 0
    assert (out_dir / "rounds_clustervote_none_seed2.csv").exists()
    capsys.readouterr()
    assert main(["report", str(out_dir)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["run", "final_accuracy", "final_asr", "mean_inference_accuracy",
                              "mean_malicious_trust", "mean_honest_trust", "malicious_updates"]
    summary = json.loads((out_dir / "summary_clustervote_none_seed2.json").read_text())
    assert row.split() == ["clustervote_none_seed2", f"{summary['final_accuracy']:.5f}",
                           f"{summary['final_asr']:.5f}",
                           f"{summary['mean_inference_accuracy']:.5f}",
                           f"{summary['mean_honest_trust']:.5f}", "0"]
    assert summary["mean_malicious_trust"] is None  # nobody attacks: a blank cell


def test_cli_repeats_mean_summary(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in {**TINY, "rounds": 2}.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--repeats", "2"]) == 0
    mean = json.loads((out_dir / "summary_mean.json").read_text())
    assert mean["seeds"] == [1, 2]


def test_report_names_each_sweep_run_by_its_path(tmp_path, capsys):
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text("\n".join([f"{k}={v}" for k, v in {**TINY, "rounds": 1}.items()]) + "\n")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", str(cfg_path), "--param", "noniid_p", "--values", "0.0,0.8",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", str(out_dir)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    names = ["noniid_p_0.0/clustervote_none_seed1", "noniid_p_0.8/clustervote_none_seed1"]
    assert [row.split()[0] for row in rows] == names
    # the name column is as wide as the longest name
    assert header.index("final_accuracy") == len(names[0]) + 1


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in {**TINY, "rounds": 2}.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", str(cfg_path), "--param", "noniid_p",
                 "--values", "0.0,0.8", "--out", str(out_dir)]) == 0
    rows = json.loads((out_dir / "sweep_noniid_p.json").read_text())
    assert [row["noniid_p"] for row in rows] == ["0.0", "0.8"]


@pytest.mark.parametrize("param, values, names", [
    ("rounds", "1, 2", ["1", "2"]),
    ("aggregator", " fedavg , median", ["fedavg", "median"]),
])
def test_cli_sweep_strips_each_value(tmp_path, capsys, param, values, names):
    # like an --override value, a sweep value is taken without its surrounding spaces
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text("".join(f"{k}={v}\n" for k, v in {**TINY, "rounds": 1}.items()))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", str(cfg_path), "--param", param, "--values", values,
                 "--out", str(out_dir)]) == 0
    rows = json.loads((out_dir / f"sweep_{param}.json").read_text())
    assert [row[param] for row in rows] == names
    assert sorted(p.name for p in out_dir.iterdir() if p.is_dir()) == [f"{param}_{v}" for v in names]
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == [f"{param}={v}" for v in names]


def _counting_draws(monkeypatch, seeds):
    """The config seeds of the training sets harness draws from now on, in draw order."""
    from fedsim import harness
    train_seeds = {harness.derive_seed(seed, harness._TRAIN): seed for seed in seeds}
    draws = []
    real = harness.gen_dataset

    def counting(m, r_in, per_class, seed, means):
        if seed in train_seeds:
            draws.append(train_seeds[seed])
        return real(m, r_in, per_class, seed, means)

    monkeypatch.setattr(harness, "gen_dataset", counting)
    return draws


@pytest.mark.parametrize("aggregator, attack", [("clustervote", "alternate"), ("fltrust", "dba")])
def test_a_run_on_a_shared_world_matches_one_that_draws_its_own(monkeypatch, aggregator, attack):
    from dataclasses import replace

    from fedsim import harness
    cfg = tiny_cfg(aggregator=aggregator, attack=attack, rounds=2)
    draws = _counting_draws(monkeypatch, [cfg.seed, cfg.seed + 1])

    def run(c):
        result = run_experiment(c)
        return [r.to_csv_row() for r in result.records], result.final_params.flat.tobytes()

    with harness.shared_worlds():
        run(replace(cfg, seed=cfg.seed + 1))
        drawn = run(cfg)  # right after another seed, so it draws its own world
        run(replace(cfg, aggregator="median"))
        shared = run(cfg)  # on the world that two runs have used
        assert draws == [cfg.seed + 1, cfg.seed]
        (world,) = harness._last_world.values()
        with pytest.raises(ValueError, match="read-only"):
            world.partitions[0].samples[0, 0] = 0.0
    assert shared == drawn
    # the block keeps no world past its end, and a run outside one draws its own
    assert harness._last_world is None
    assert run(cfg) == drawn and run(cfg) == drawn
    assert draws == [cfg.seed + 1, cfg.seed, cfg.seed, cfg.seed]


def test_a_sweep_over_aggregators_draws_each_seeds_world_once(tmp_path, monkeypatch, capsys):
    import contextlib

    from fedsim import cli
    cfg_path = tmp_path / "t.cfg"
    settings = {**TINY, "attack": "basic", "rounds": 1}
    cfg_path.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    draws = _counting_draws(monkeypatch, [1, 2])

    def sweep(out):
        draws.clear()
        assert main(["sweep", str(cfg_path), "--param", "aggregator", "--values", "fedavg,median",
                     "--seeds", "1,2", "--out", str(out)]) == 0
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        return list(draws), capsys.readouterr().out, files

    shared = sweep(tmp_path / "shared")
    # a sweep that shares nothing: every run draws its own world
    monkeypatch.setattr(cli, "shared_worlds", contextlib.nullcontext)
    fresh = sweep(tmp_path / "fresh")
    assert shared[0] == [1, 2]
    assert fresh[0] == [1, 1, 2, 2]
    assert len(shared[2]) == 4 * 3 + 1  # each run's CSV, summary and config, and the means
    assert shared[1:] == fresh[1:]


def test_cli_bad_override_exit_code(tmp_path):
    assert main(["run", "--override", "bogus_key=1", "--out", str(tmp_path)]) == 2


def test_cli_zero_batch_size_is_one_config_error(tmp_path, capsys):
    assert main(["run", "--override", "batch_size=0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "batch_size" in err[0]


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--param", "seed", "--values", "3,4"], "--seeds"),
    (["run", "--repeats", "0"], "--repeats"),
    (["sweep", "--param", "noniid_p", "--values", "0.1", "--seeds", "1,x"], "--seeds"),
    (["sweep", "--param", "noniid_p", "--values", ","], "--values"),
    (["sweep", "--param", "noniid_p", "--values", "0.1,7"], "noniid_p"),
    (["run", "--override", "hidden_dims=3;x"], "hidden_dims"),
    (["run", "--override", "rounds"], "--override"),          # no '='
    (["run", "--override", "out_dir=runs#1"], "out_dir"),     # --out alone sets the directory
    # a repeat would run again into the same files
    (["sweep", "--param", "noniid_p", "--values", "0.5", "--seeds", "1,1"], "--seeds"),
    (["sweep", "--param", "noniid_p", "--values", "0.0,0.0"], "--values"),
    (["sweep", "--param", "out_dir", "--values", "a,b"], "out_dir"),  # no config key
    # a config file that cannot be read names its path and why ({tmp} is the test's directory)
    (["run", "{tmp}/missing.cfg"], "missing.cfg: No such file"),
    (["sweep", "{tmp}/missing.cfg", "--param", "rounds", "--values", "1"],
     "missing.cfg: No such file"),
    (["run", "{tmp}/configs"], "configs: Is a directory"),
    (["run", "{tmp}/latin1.cfg"], "latin1.cfg: not UTF-8 text"),
    # sweep values are stripped before the empty-item and repeat checks
    (["sweep", "--param", "noniid_p", "--values", " , "], "--values names no value"),
    (["sweep", "--param", "noniid_p", "--values", "0.5, 0.5"], "--values"),
    (["run", "--override", "rounds=" + "1" * 401], "rounds must be finite"),  # no float holds it
])
def test_cli_bad_arguments_are_one_config_error(tmp_path, capsys, monkeypatch, argv, flag):
    # a seed sweep used to run the config's own seed under every label
    from fedsim import cli
    def no_run(*args, **kw):
        raise AssertionError("ran an experiment")
    monkeypatch.setattr(cli, "run_and_write", no_run)
    (tmp_path / "configs").mkdir()
    (tmp_path / "latin1.cfg").write_bytes("attack=basic # café\n".encode("latin-1"))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and flag in err[0]


def test_cli_repeats_check_every_config_before_the_first_run(tmp_path, monkeypatch):
    # like sweep, run --repeats builds (and so checks) every seed's config
    # before the first run starts
    from fedsim import cli
    built = []
    real_apply = cli.apply_overrides
    def recording_apply(cfg, overrides):
        built.append(overrides["seed"])
        return real_apply(cfg, overrides)
    def no_run(*args, **kw):
        assert built == ["1", "2", "3"]
        raise ShapeError("stop")
    monkeypatch.setattr(cli, "apply_overrides", recording_apply)
    monkeypatch.setattr(cli, "run_and_write", no_run)
    assert main(["run", "--repeats", "3", "--out", str(tmp_path)]) == 1


def test_cli_bad_config_fails_before_training(tmp_path, monkeypatch):
    from fedsim import harness
    def no_training(*args, **kw):
        raise AssertionError("trained a client")
    monkeypatch.setattr(harness, "local_train", no_training)
    argv = ["run", "--override", "aggregator=krum", "--override", "agg_f=5", "--out", str(tmp_path)]
    assert main(argv) == 2


def test_poison_count_beyond_attacker_data_fails_before_training(monkeypatch):
    from fedsim import harness
    def no_training(*args, **kw):
        raise AssertionError("trained a client")
    monkeypatch.setattr(harness, "local_train", no_training)
    # one attacker holds 100 records, fewer than the 150 it must poison with
    with pytest.raises(ConfigError, match="exceeds the attackers' pool of 100 records"):
        run_experiment(tiny_cfg(attack="basic", num_malicious=1, pool_size=500, poison_count=150))


def test_cli_client_without_records_fails_before_training(tmp_path, capsys, monkeypatch):
    # 40 records over 50 clients leave some clients none; that used to fail mid-round 0
    from fedsim import harness
    def no_training(*args, **kw):
        raise AssertionError("trained a client")
    monkeypatch.setattr(harness, "local_train", no_training)
    monkeypatch.setattr(harness, "sgd_train", no_training)
    assert main(["run", "--override", "per_class=4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: client ")
    assert "holds no records: per_class, num_classes, n_clients, noniid_p and shards " in err[0]


def test_a_shared_world_with_an_empty_client_fails_every_run(monkeypatch):
    from fedsim import harness
    cfg = SimConfig(per_class=4)
    draws = _counting_draws(monkeypatch, [cfg.seed])
    with harness.shared_worlds():
        for _ in range(2):
            with pytest.raises(ConfigError, match="holds no records"):
                run_experiment(cfg)
    assert draws == [cfg.seed]  # the second run failed on the first one's world


def test_cli_run_failure_is_one_line(tmp_path, capsys, monkeypatch):
    overrides = [f"--override={k}={v}" for k, v in TINY.items()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", *overrides, "--override", "lr_client=1e200",
                     "--out", str(tmp_path)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("run failed: round 0, client ")
    assert np.geterr()["over"] == "warn"  # the library keeps numpy's defaults

    from fedsim import cli
    def malformed(*args, **kw):
        raise ShapeError("bad shape")
    monkeypatch.setattr(cli, "run_and_write", malformed)
    assert main(["run", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "run failed: bad shape\n"


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--param", "rounds", "--values", "1"]])
def test_cli_uncreatable_output_is_one_line(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*argv, "--out", str(blocker / "x")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("run failed: ") and "Not a directory" in err[0]


@pytest.mark.parametrize("text", ["rounds=1\n", "[1, 2]\n"])
def test_report_on_a_summary_that_is_no_json_object_is_one_line(tmp_path, capsys, text):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "summary_good.json").write_text(json.dumps({"final_accuracy": 0.5}))
    bad = tmp_path / "b" / "summary_bad.json"
    bad.parent.mkdir()
    bad.write_text(text)
    assert main(["report", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no table is started
    assert err == f"{bad} is not a JSON object\n"


def test_dba_global_trigger_beats_parts():
    # assembling the full trigger at evaluation time succeeds more often
    # than any attacker's individual slice
    from fedsim.harness import _TEST, derive_seed
    cfg = SimConfig(aggregator="fedavg", attack="dba", seed=2)
    res = run_experiment(cfg)
    trig = TriggerPattern(cfg.trigger_indices, cfg.trigger_values, cfg.trigger_target)
    means = class_means(cfg.num_classes, cfg.input_dim, cfg.seed)
    test = gen_dataset(cfg.num_classes, cfg.input_dim, cfg.test_per_class,
                       derive_seed(cfg.seed, _TEST), means)
    global_asr = res.records[-1].asr
    for k in range(cfg.dba_parts):
        part_asr = evaluate(res.final_params, test,
                            trig.part(cfg.dba_parts, k), cfg.base_count)[1]
        assert global_asr > part_asr


def test_cli_determinism_byte_identical(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in {**TINY, "rounds": 3, "attack": "basic"}.items()]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "rounds_clustervote_basic_seed1.csv").read_bytes()
    csv_b = (out_b / "rounds_clustervote_basic_seed1.csv").read_bytes()
    assert csv_a == csv_b
