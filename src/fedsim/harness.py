"""Round-loop orchestration: selection, training, aggregation, metrics.

A run is a pure function of its SimConfig. Every random draw comes from a
stream derived from (config seed, purpose tag, round, client), so repeated
runs produce byte-identical CSV output. Inside `shared_worlds`, runs that agree
on the fields their data are drawn from share one read-only draw of them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import attacks, baselines, clustering, inference, trust
from .config import SimConfig
from .data import (
    LabeledDataset,
    TriggerPattern,
    concat_datasets,
    class_means,
    gen_dataset,
    ground_truth_abstract,
    partition_noniid,
    stack_datasets,
)
from .errors import ConfigError, TrainingError
from .model import (
    ModelParams,
    forward,
    init_model,
    local_train,
    representation,
    sgd_train,
)

# stream tags for seed derivation
_TRAIN, _TEST, _AUX, _PART, _INIT, _SELECT, _CLIENT, _BENIGN, _POOL, _SERVER = range(10)


def derive_seed(*parts: int) -> int:
    """Stable scalar seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def select_clients(n: int, ratio: float, round_index: int, seed: int) -> List[int]:
    """Uniform sample without replacement of round(ratio*n) clients, per (seed, round)."""
    count = int(round(ratio * n))
    rng = np.random.default_rng([seed, _SELECT, round_index])
    return sorted(int(c) for c in rng.choice(n, size=count, replace=False))


def evaluate(
    params: ModelParams,
    test: LabeledDataset,
    trigger: TriggerPattern,
    base_count: int,
) -> Tuple[float, float, bool]:
    """(accuracy, attack success rate, asr_defined).

    Accuracy covers the whole test set. ASR is measured on the first
    base_count test records whose true label differs from the trigger
    target: among those the clean model classifies correctly, the fraction
    that flip to the target once the trigger is applied. With no clean-
    correct base records the ASR is reported as 0 and flagged undefined.
    """
    logits, _ = forward(params, test.samples)
    pred = logits.argmax(axis=1)
    accuracy = float(np.mean(pred == test.labels))

    eligible = np.flatnonzero(test.labels != trigger.target_label)[:base_count]
    correct = eligible[pred[eligible] == test.labels[eligible]]
    if correct.size == 0:
        return accuracy, 0.0, False
    logits_trig, _ = forward(params, trigger.apply(test.samples[correct]))
    asr = float(np.mean(logits_trig.argmax(axis=1) == trigger.target_label))
    return accuracy, asr, True


@dataclass
class RoundRecord:
    """Everything the metrics sink keeps about one round.

    The fields after `selected` default to empty: only the cluster-vote
    defense fills in its own, and accuracy and ASR are set once the round
    has been evaluated. Each field is one rounds-CSV column, in field order.
    """

    round: int
    selected: List[int]
    discarded: List[int] = field(default_factory=list)
    accuracy: float = 0.0
    asr: float = 0.0
    asr_defined: bool = True
    inference_accuracy: Optional[float] = None
    per_client_cap: Optional[int] = None
    cluster_size_cap: Optional[int] = None
    cluster_sizes: List[int] = field(default_factory=list)
    memberships: List[int] = field(default_factory=list)
    votes: List[int] = field(default_factory=list)
    immediate: List[float] = field(default_factory=list)
    accumulated: List[float] = field(default_factory=list)
    malicious_trust: Optional[float] = None
    honest_trust: Optional[float] = None
    inferred_columns: List[str] = field(default_factory=list)
    indicators: List[str] = field(default_factory=list)
    flagged: bool = False

    def to_csv_row(self) -> str:
        return ",".join(_csv_cell(getattr(self, f.name)) for f in fields(self))


def _csv_cell(value: object) -> str:
    """None is empty, a bool is 0 or 1, a list is ;-joined, anything else is str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


CSV_HEADER = ",".join(f.name for f in fields(RoundRecord))


@dataclass
class ExperimentResult:
    config: SimConfig
    records: List[RoundRecord]
    final_params: ModelParams

    def summary(self) -> Dict[str, object]:
        last = self.records[-1]
        inf_acc = [r.inference_accuracy for r in self.records if r.inference_accuracy is not None]
        mal = [r.malicious_trust for r in self.records if r.malicious_trust is not None]
        hon = [r.honest_trust for r in self.records if r.honest_trust is not None]
        mal_ids = set(self.config.malicious_ids)
        return {
            "rounds": len(self.records),
            "final_accuracy": last.accuracy,
            "final_asr": last.asr,
            "final_asr_defined": last.asr_defined,
            "mean_inference_accuracy": float(np.mean(inf_acc)) if inf_acc else None,
            "mean_malicious_trust": float(np.mean(mal)) if mal else None,
            "mean_honest_trust": float(np.mean(hon)) if hon else None,
            # attacker updates that reached the aggregator; 0 means the attack was inert
            "malicious_updates": sum(len(mal_ids.intersection(r.selected)) for r in self.records),
            "aggregator": self.config.aggregator,
            "attack": self.config.attack,
            "seed": self.config.seed,
        }


def write_csv(records: Sequence[RoundRecord], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.to_csv_row() + "\n")


# One round of server-side aggregation: (theta, the (n, d) update matrix whose
# row i is selected[i]'s update, selected ids, round) -> (the (d,) step the
# round adds to theta, the round's record before evaluation).
Aggregator = Callable[[ModelParams, np.ndarray, List[int], int],
                      Tuple[np.ndarray, RoundRecord]]


class _World(NamedTuple):
    """The data of a run, drawn from its seed and data fields; every array is read-only.

    `train` is held although the run reads only its partitions: dropping it after the
    partition made later runs' allocations fault in fresh pages, which cost more than
    the memory it holds.
    """

    train: LabeledDataset
    test: LabeledDataset
    aux: LabeledDataset
    partitions: Tuple[LabeledDataset, ...]
    ground_truth: np.ndarray


def _draw_world(seed: int, num_classes: int, input_dim: int, per_class: int,
                test_per_class: int, aux_per_class: int, aux_classes: int, n_clients: int,
                noniid_p: float, shards: int, tau: int) -> _World:
    """The one draw of a run's data; its parameters are the config fields the data depend on."""
    m, r_in = num_classes, input_dim
    means = class_means(m, r_in, seed)
    train = gen_dataset(m, r_in, per_class, derive_seed(seed, _TRAIN), means)
    test = gen_dataset(m, r_in, test_per_class, derive_seed(seed, _TEST), means)
    aux_full = gen_dataset(m, r_in, aux_per_class, derive_seed(seed, _AUX), means)
    aux = aux_full.subset(np.flatnonzero(aux_full.labels < aux_classes))
    partitions = tuple(partition_noniid(train, n_clients, noniid_p, shards,
                                        derive_seed(seed, _PART)))
    world = _World(train, test, aux, partitions, ground_truth_abstract(partitions, tau))
    for ds in (train, test, aux, *partitions):
        ds.samples.flags.writeable = ds.labels.flags.writeable = False
    world.ground_truth.flags.writeable = False
    return world


# the memo's key: the config fields _draw_world reads, named by its own parameters
_WORLD_FIELDS = tuple(inspect.signature(_draw_world).parameters)
# inside `shared_worlds`, the last world drawn, keyed by its fields' values; else None
_last_world: Optional[Dict[tuple, _World]] = None


@contextlib.contextmanager
def shared_worlds() -> Iterator[None]:
    """Runs inside the block that agree on their world's fields share one draw of it.

    The block keeps one world at a time: it releases the last one before it draws the
    next, and when it ends. A world kept past the block made every later sweep of the
    process fault its temporaries in afresh, at about 25 times the page faults.
    """
    global _last_world
    _last_world = {}
    try:
        yield
    finally:
        _last_world = None


def _world(cfg: SimConfig) -> _World:
    """cfg's world: inside `shared_worlds` the last one drawn if cfg shares its fields."""
    key = tuple(getattr(cfg, name) for name in _WORLD_FIELDS)
    if _last_world is None:
        return _draw_world(*key)
    if key not in _last_world:
        _last_world.clear()  # the old world goes before the new one is drawn: never two at once
        _last_world[key] = _draw_world(*key)
    return _last_world[key]


def run_experiment(cfg: SimConfig) -> ExperimentResult:
    """Execute the configured federation end to end; fully deterministic."""
    world = _world(cfg)
    empty = [cid for cid, part in enumerate(world.partitions) if part.size == 0]
    if empty:
        raise ConfigError(f"client {empty[0]} holds no records: per_class, num_classes, "
                          "n_clients, noniid_p and shards leave its share of the data empty")
    trigger = TriggerPattern(cfg.trigger_indices, cfg.trigger_values, cfg.trigger_target)
    clients = _Clients(cfg, world.partitions, trigger)

    theta = init_model(cfg.layer_dims, derive_seed(cfg.seed, _INIT), zero_last=True)
    aggregate: Aggregator = (
        ClusterVote(cfg, world.ground_truth, world.aux) if cfg.aggregator == "clustervote"
        else functools.partial(_baseline_round, cfg, world.aux))

    records: List[RoundRecord] = []
    for t in range(cfg.rounds):
        selected = select_clients(cfg.n_clients, cfg.selection_ratio, t, cfg.seed)
        step, record = aggregate(theta, clients.updates(theta, selected, t), selected, t)
        theta = ModelParams(theta.flat + step, theta.shapes)
        record.accuracy, record.asr, record.asr_defined = evaluate(
            theta, world.test, trigger, cfg.base_count)
        records.append(record)
    return ExperimentResult(cfg, records, theta)


def _build_attack_pools(
    cfg: SimConfig,
    trigger: TriggerPattern,
    partitions: Sequence[LabeledDataset],
) -> Dict[int, LabeledDataset]:
    """Each attacker's poison pool, keyed by client id: the triggered records it trains on.

    All malicious clients poison from one fixed set of base records drawn from their
    combined clean data: the first poison_count of a shuffled draw of pool_size. For the
    distributed trigger each attacker gets them stamped with only its own trigger slice;
    the part index cycles over attackers in id order.
    """
    mal = cfg.malicious_ids
    base_union = concat_datasets([partitions[cid] for cid in mal])
    pool_size = min(cfg.pool_size, base_union.size)
    if cfg.poison_count > pool_size:
        raise ConfigError(f"poison_count {cfg.poison_count} exceeds the attackers' "
                          f"pool of {pool_size} records")
    rng = np.random.default_rng([cfg.seed, _POOL])
    drawn = rng.choice(base_union.size, size=pool_size, replace=False)
    base = base_union.subset(drawn[:cfg.poison_count])
    if cfg.attack == "dba":
        pools = [attacks.make_poison_pool(base, trigger.part(cfg.dba_parts, k))
                 for k in range(cfg.dba_parts)]
    else:
        pools = [attacks.make_poison_pool(base, trigger)]
    return {cid: pools[rank % len(pools)] for rank, cid in enumerate(mal)}


class _Clients:
    """Local training of the selected clients, honest or attacking, for one run."""

    def __init__(self, cfg: SimConfig, partitions: Sequence[LabeledDataset],
                 trigger: TriggerPattern):
        self.cfg = cfg
        self.partitions = partitions
        # attacker id -> its poison pool; empty when nobody attacks
        self.pools = _build_attack_pools(cfg, trigger, partitions) if cfg.malicious_ids else {}

    def updates(self, theta: ModelParams, selected: Sequence[int], t: int) -> np.ndarray:
        """The round's update matrix: row i is client selected[i]'s update, shape (n, d).

        The selected clients train in groups, one `_train` call each; every row is byte
        for byte its client's update trained alone. A row that is not finite fails the
        round, naming the client of the first such row in `selected` order; any other
        training failure keeps its own message.
        """
        groups: Dict[Tuple[str, int], List[int]] = {}
        for i, cid in enumerate(selected):
            groups.setdefault(self._group(cid), []).append(i)
        trained = []
        for (kind, _), rows in groups.items():
            trained.append((rows, self._train(kind, theta, [selected[i] for i in rows], t)))
        # allocated once every group's training buffers are freed, so they never coexist
        U = np.empty((len(selected), theta.dim))
        for rows, block in trained:
            U[rows] = block
        return _finite_rows(U, selected, t)

    def _group(self, cid: int) -> Tuple[str, int]:
        """(kind, key) of client cid; the clients that share both train in one call.

        Honest clients whose data fit in one batch group by data size, and attackers by the
        size of their clean data: basic and dba share one kind (dba differs only in its
        pools' trigger slices), alternate and adaptive have their own. All sybil colluders
        form one group. An honest client with more than one batch trains alone.
        """
        cfg, size = self.cfg, self.partitions[cid].size
        if cid not in self.pools:
            return ("honest", size) if size <= cfg.batch_size else ("local", cid)
        if cfg.attack in ("basic", "dba"):
            return "basic", size
        return cfg.attack, (0 if cfg.attack == "sybil" else size)

    def _train(self, kind: str, theta: ModelParams, ids: Sequence[int], t: int) -> np.ndarray:
        """The updates of one group: one row per client of `ids`, or the (d,) update of an
        honest client that trains alone. A group that draws nothing derives no seed."""
        cfg = self.cfg
        if kind == "sybil":  # every selected colluder submits a copy of the first one's update
            return attacks.sybil_updates(self._train("alternate", theta, ids[:1], t), ids)
        cleans = [self.partitions[cid] for cid in ids]
        if kind == "honest":
            # the stacked data are built inside the call, so they are freed once it returns
            return sgd_train(theta, *stack_datasets(cleans), cfg.epochs, cfg.lr_client,
                             cfg.batch_size, None)
        seeds = [derive_seed(cfg.seed, _CLIENT, t, cid) for cid in ids]
        if kind == "local":
            return local_train(theta, cleans[0], cfg.epochs, cfg.lr_client, cfg.batch_size,
                               seeds[0])
        poisoned = [concat_datasets([clean, self.pools[cid]]) for clean, cid in zip(cleans, ids)]
        if kind == "basic":
            return attacks.basic_attack(theta, poisoned, cfg, seeds)
        # the alternate family: each attacker is anchored on its own honest update
        benign = [np.random.default_rng(derive_seed(cfg.seed, _BENIGN, t, cid)) for cid in ids]
        anchors = _finite_rows(sgd_train(theta, *stack_datasets(cleans), cfg.epochs,
                                         cfg.lr_client, cfg.batch_size, benign), ids, t)
        if kind == "adaptive":
            return attacks.adaptive_attack(theta, cleans, poisoned, anchors, cfg, seeds)
        return attacks.alternate_attack(theta, cleans, poisoned, anchors, cfg, seeds)


def _finite_rows(rows: np.ndarray, ids: Sequence[int], t: int) -> np.ndarray:
    """`rows` itself, once each is finite; else the first row that is not names its client."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise TrainingError(f"round {t}, client {ids[int(np.argmin(finite))]}: non-finite update")
    return rows


class ClusterVote:
    """The four-stage defense as a stateful aggregator.

    Each round runs inference, clustering, voting, trust, discard and
    weighted aggregation into the round's step. Indicator vectors are summed over each client's
    past selections: one local update carries heavy sample noise, but the
    class-count signal is persistent, so the running estimate sharpens the
    inferred sufficiency columns as the run progresses.
    """

    def __init__(self, cfg: SimConfig, ground_truth: np.ndarray, aux: LabeledDataset):
        self.cfg = cfg
        self.ground_truth = ground_truth
        # representation features use one fixed auxiliary class
        self.aux_rep = aux.subset(np.flatnonzero(aux.labels == 0))
        self.ledger = trust.TrustLedger(cfg.n_clients, cfg.gamma)
        self.indicator_sum = np.zeros((cfg.n_clients, cfg.num_classes))
        self.indicator_obs = np.zeros(cfg.n_clients, dtype=np.int64)

    def observe(self, selected: np.ndarray, indicators: np.ndarray) -> np.ndarray:
        """Fold one round's indicators, row i for selected[i], into the running estimates.

        Raw sums weight observations by their gradient scale, so the
        high-signal early rounds (large residuals) dominate and later
        near-converged rounds barely perturb the estimate. Client data is
        static, so the profile freezes once the cap is reached. Relative
        threshold modes are scale-free and read the sum directly; the
        absolute mode gets the per-observation mean since its threshold
        carries units. Returns the selected clients' estimates, one row each.
        """
        fresh = self.indicator_obs[selected] < self.cfg.indicator_obs_cap
        self.indicator_sum[selected[fresh]] += indicators[fresh]
        self.indicator_obs[selected[fresh]] += 1
        if self.cfg.threshold_mode == "absolute":
            return self.indicator_sum[selected] / self.indicator_obs[selected, None]
        return self.indicator_sum[selected]

    def __call__(self, theta: ModelParams, U: np.ndarray,
                 selected: List[int], t: int) -> Tuple[np.ndarray, RoundRecord]:
        cfg = self.cfg
        ids = np.asarray(selected)
        indicators = inference.class_indicator(
            inference.recover_last_layer_gradient(U, theta.shapes, cfg.lr_client))
        smoothed = self.observe(ids, indicators)
        A_hat = inference.infer_column(smoothed, cfg.threshold_mode, cfg.beta).T
        inf_acc = inference.distribution_accuracy(self.ground_truth[:, ids], A_hat)

        per_client, per_cluster = clustering.compute_thresholds(A_hat)
        x = clustering.greedy_cluster(A_hat, (per_client, per_cluster))
        k_vote = max(1, per_cluster // 2)

        votes = np.zeros(len(selected), dtype=np.int64)
        if "gradient" in cfg.voting_metrics:
            votes += trust.cluster_votes(x, U, k_vote)
        if "representation" in cfg.voting_metrics:
            reps = representation(ModelParams(theta.flat + U, theta.shapes), self.aux_rep)
            votes += trust.cluster_votes(x, reps, k_vote)

        # the discard reads last round's trust, which update() then overwrites
        discard = trust.median_discard(self.ledger.immediate, ids)
        accumulated = self.ledger.update(ids, votes)
        kept = ~discard
        sign = -1.0 if cfg.strict_paper_sign else 1.0
        step = sign * cfg.lr_server * trust.aggregate(U[kept], accumulated[kept])

        sizes, memberships = clustering.membership_histograms(x)
        mal = np.isin(ids, cfg.malicious_ids)
        record = RoundRecord(
            round=t,
            selected=list(selected),
            discarded=ids[discard].tolist(),
            inference_accuracy=inf_acc,
            per_client_cap=per_client,
            cluster_size_cap=per_cluster,
            cluster_sizes=sizes.tolist(),
            memberships=memberships.tolist(),
            votes=votes.tolist(),
            immediate=self.ledger.immediate[ids].tolist(),
            accumulated=accumulated.tolist(),
            malicious_trust=float(np.mean(accumulated[mal])) if mal.any() else None,
            honest_trust=float(np.mean(accumulated[~mal])) if not mal.all() else None,
            inferred_columns=["".join(str(b) for b in column) for column in A_hat.T],
            indicators=["|".join(f"{v:.9g}" for v in u) for u in indicators],
            flagged=not kept.any(),
        )
        return step, record


def _baseline_round(
    cfg: SimConfig,
    aux: LabeledDataset,
    theta: ModelParams,
    updates: np.ndarray,
    selected: List[int],
    t: int,
) -> Tuple[np.ndarray, RoundRecord]:
    """The step of one of the five reference aggregators; its record has no defense fields."""
    if cfg.aggregator == "fedavg":
        step = baselines.fedavg(updates)
    elif cfg.aggregator == "krum":
        step = baselines.krum(updates, cfg.agg_f)
    elif cfg.aggregator == "median":
        step = baselines.coordinate_median(updates)
    elif cfg.aggregator == "trim":
        step = baselines.trimmed_mean(updates, cfg.agg_f)
    else:  # fltrust, anchored on the server's own update on the auxiliary set
        server = local_train(theta, aux, cfg.epochs, cfg.lr_client, cfg.batch_size,
                             derive_seed(cfg.seed, _SERVER, t))
        if not np.isfinite(server).all():
            raise TrainingError(f"round {t}, server: non-finite update")
        step = baselines.fltrust(updates, server)
    return step, RoundRecord(t, selected)


def run_and_write(cfg: SimConfig, out_dir: Path | str) -> Dict[str, object]:
    """Run one experiment and write rounds CSV, summary JSON, resolved config under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_experiment(cfg)
    tag = f"{cfg.aggregator}_{cfg.attack}_seed{cfg.seed}"
    write_csv(result.records, out / f"rounds_{tag}.csv")
    summary = result.summary()
    (out / f"summary_{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    cfg.write(out / f"config_{tag}.txt")
    return summary
