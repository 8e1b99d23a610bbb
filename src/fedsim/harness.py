"""Round-loop orchestration: selection, training, aggregation, metrics.

A run is a pure function of its SimConfig. Every random draw comes from a
stream derived from (config seed, purpose tag, round, client), so repeated
runs produce byte-identical CSV output.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
)
from .errors import ConfigError, ShapeError, TrainingError
from .model import (
    ModelParams,
    finite_update,
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
    ground_truth: np.ndarray
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


def run_experiment(cfg: SimConfig) -> ExperimentResult:
    """Execute the configured federation end to end; fully deterministic."""
    m, r_in = cfg.num_classes, cfg.input_dim
    means = class_means(m, r_in, cfg.seed)
    train = gen_dataset(m, r_in, cfg.per_class, derive_seed(cfg.seed, _TRAIN), means)
    test = gen_dataset(m, r_in, cfg.test_per_class, derive_seed(cfg.seed, _TEST), means)
    aux_full = gen_dataset(m, r_in, cfg.aux_per_class, derive_seed(cfg.seed, _AUX), means)
    aux = aux_full.subset(np.flatnonzero(aux_full.labels < cfg.aux_classes))

    partitions = partition_noniid(train, cfg.n_clients, cfg.noniid_p, cfg.shards,
                                  derive_seed(cfg.seed, _PART))
    ground_truth = ground_truth_abstract(partitions, cfg.tau)
    trigger = TriggerPattern(cfg.trigger_indices, cfg.trigger_values, cfg.trigger_target)
    clients = _Clients(cfg, partitions, trigger)

    theta = init_model(cfg.layer_dims, derive_seed(cfg.seed, _INIT), zero_last=True)
    aggregate: Aggregator = (
        ClusterVote(cfg, ground_truth, aux) if cfg.aggregator == "clustervote"
        else functools.partial(_baseline_round, cfg, aux))

    records: List[RoundRecord] = []
    for t in range(cfg.rounds):
        selected = select_clients(cfg.n_clients, cfg.selection_ratio, t, cfg.seed)
        step, record = aggregate(theta, clients.updates(theta, selected, t), selected, t)
        theta = ModelParams(theta.flat + step, theta.shapes)
        record.accuracy, record.asr, record.asr_defined = evaluate(
            theta, test, trigger, cfg.base_count)
        records.append(record)
    return ExperimentResult(cfg, records, ground_truth, theta)


def _build_attack_pools(
    cfg: SimConfig,
    trigger: TriggerPattern,
    partitions: Sequence[LabeledDataset],
) -> Dict[int, LabeledDataset]:
    """Each attacker's poison pool, keyed by client id.

    All malicious clients poison from one fixed pool of base records drawn
    from their combined clean data. For the distributed trigger each
    attacker gets the pool stamped with only its own trigger slice; the
    part index cycles over attackers in id order.
    """
    mal = cfg.malicious_ids
    base_union = concat_datasets([partitions[cid] for cid in mal])
    pool_size = min(cfg.pool_size, base_union.size)
    if cfg.poison_count > pool_size:
        raise ConfigError(f"poison_count {cfg.poison_count} exceeds the attackers' "
                          f"pool of {pool_size} records")
    rng = np.random.default_rng([cfg.seed, _POOL])
    base = base_union.subset(rng.choice(base_union.size, size=pool_size, replace=False))
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

        The stacks train first, one per kind and data size: honest clients whose data
        fit in one batch as one `sgd_train` stack, and basic or dba attackers, by the
        size of their clean data, as one `attacks.basic_attack` stack. Each row is byte
        for byte that client trained alone. Sybil colluders all submit copies of one
        update, trained when the first of them comes up. Every row is checked to be
        finite, and a failure names the client whose row it is; a stack that fails
        names its first client.
        """
        cfg = self.cfg
        trained = []
        for poisoned, rows in self._stacks(selected):
            ids = [selected[i] for i in rows]
            with _naming(t, ids[0]):
                block = self._poisoners(theta, ids, t) if poisoned else self._honest(theta, ids)
            trained.append((rows, block))
        # allocated once the stacks' training buffers are freed, so they never coexist
        U = np.empty((len(selected), theta.dim))
        filled = np.zeros(len(selected), dtype=bool)
        for rows, block in trained:
            U[rows] = block
            filled[rows] = True
        for i, cid in enumerate(selected):
            with _naming(t, cid):
                if filled[i]:
                    pass  # stacked, or a sybil copy made with its leader's update
                elif cid not in self.pools:
                    U[i] = local_train(theta, self.partitions[cid], cfg.epochs, cfg.lr_client,
                                       cfg.batch_size, derive_seed(cfg.seed, _CLIENT, t, cid))
                elif cfg.attack == "sybil":
                    leader = self._attack("alternate", theta, cid, t)
                    rows = [j for j, c in enumerate(selected) if c in self.pools]
                    U[rows] = attacks.sybil_updates(leader, rows)
                    filled[rows] = True
                else:
                    U[i] = self._attack(cfg.attack, theta, cid, t)
                finite_update(U[i])
        return U

    def _stacks(self, selected: Sequence[int]) -> List[Tuple[bool, List[int]]]:
        """(poisoned, rows of `selected`) of each stack, in the order of its first row.

        Honest clients whose data fit in one batch stack by data size, and so do basic
        and dba attackers (dba differs only in its pools' trigger slices) by the size of
        their clean data. Nobody else stacks.
        """
        cfg = self.cfg
        stacks: Dict[Tuple[bool, int], List[int]] = {}
        for i, cid in enumerate(selected):
            poisoned, size = cid in self.pools, self.partitions[cid].size
            if cfg.attack in ("basic", "dba") if poisoned else 1 <= size <= cfg.batch_size:
                stacks.setdefault((poisoned, size), []).append(i)
        return [(poisoned, rows) for (poisoned, _), rows in stacks.items()]

    def _honest(self, theta: ModelParams, ids: Sequence[int]) -> np.ndarray:
        """The updates of honest clients `ids`, whose data share a size and fit one batch."""
        cfg = self.cfg
        # the stacked data are built inside the call, so they are freed once it returns
        return sgd_train(theta, np.stack([self.partitions[cid].samples for cid in ids]),
                         np.stack([self.partitions[cid].labels for cid in ids]),
                         cfg.epochs, cfg.lr_client, cfg.batch_size, None)

    def _poisoners(self, theta: ModelParams, ids: Sequence[int], t: int) -> np.ndarray:
        """The basic or dba updates of attackers `ids`, whose clean data share a size, one row each."""
        cfg = self.cfg
        return attacks.basic_attack(theta, [self.partitions[cid] for cid in ids],
                                    [self.pools[cid] for cid in ids], cfg,
                                    [derive_seed(cfg.seed, _CLIENT, t, cid) for cid in ids])

    def _attack(self, kind: str, theta: ModelParams, cid: int, t: int) -> np.ndarray:
        """One alternate-family attacker's update, anchored on its own honest update."""
        cfg, clean, pool = self.cfg, self.partitions[cid], self.pools[cid]
        benign = local_train(theta, clean, cfg.epochs, cfg.lr_client, cfg.batch_size,
                             derive_seed(cfg.seed, _BENIGN, t, cid))
        seed = derive_seed(cfg.seed, _CLIENT, t, cid)
        if kind == "alternate":
            return attacks.alternate_attack(theta, clean, pool, benign, cfg, seed)
        return attacks.adaptive_attack(theta, clean, pool, benign, cfg, seed)


@contextlib.contextmanager
def _naming(t: int, cid: int) -> Iterator[None]:
    """Prefix a shape or training failure inside the block with the round and the client."""
    try:
        yield
    except (ShapeError, TrainingError) as exc:
        raise type(exc)(f"round {t}, client {cid}: {exc}") from exc


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

    def observe(self, selected: Sequence[int], indicators: np.ndarray) -> np.ndarray:
        """Fold one round's indicators, row i for selected[i], into the running estimates.

        Raw sums weight observations by their gradient scale, so the
        high-signal early rounds (large residuals) dominate and later
        near-converged rounds barely perturb the estimate. Client data is
        static, so the profile freezes once the cap is reached. Relative
        threshold modes are scale-free and read the sum directly; the
        absolute mode gets the per-observation mean since its threshold
        carries units. Returns the selected clients' estimates, one row each.
        """
        selected = np.asarray(selected)
        fresh = self.indicator_obs[selected] < self.cfg.indicator_obs_cap
        self.indicator_sum[selected[fresh]] += indicators[fresh]
        self.indicator_obs[selected[fresh]] += 1
        if self.cfg.threshold_mode == "absolute":
            return self.indicator_sum[selected] / self.indicator_obs[selected, None]
        return self.indicator_sum[selected]

    def __call__(self, theta: ModelParams, U: np.ndarray,
                 selected: List[int], t: int) -> Tuple[np.ndarray, RoundRecord]:
        cfg = self.cfg
        indicators = inference.class_indicator(
            inference.recover_last_layer_gradient(U, theta.shapes, cfg.lr_client))
        smoothed = self.observe(selected, indicators)
        A_hat = inference.infer_column(smoothed, cfg.threshold_mode, cfg.beta).T
        inf_acc = inference.distribution_accuracy(self.ground_truth[:, selected], A_hat)

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
        discard = trust.median_discard(self.ledger.immediate, selected)
        accumulated = self.ledger.update(selected, votes)
        kept = ~discard
        sign = -1.0 if cfg.strict_paper_sign else 1.0
        step = sign * cfg.lr_server * trust.aggregate(U[kept], accumulated[kept])

        sizes, memberships = clustering.membership_histograms(x)
        ids = np.asarray(selected)
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
        step = baselines.fltrust(updates, server)
    return step, RoundRecord(t, selected)


def run_and_write(cfg: SimConfig, out_dir: Path | str | None = None) -> Dict[str, object]:
    """Run one experiment and write rounds CSV, summary JSON, resolved config."""
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_experiment(cfg)
    tag = f"{cfg.aggregator}_{cfg.attack}_seed{cfg.seed}"
    write_csv(result.records, out / f"rounds_{tag}.csv")
    summary = result.summary()
    (out / f"summary_{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    cfg.write(out / f"config_{tag}.txt")
    return summary
