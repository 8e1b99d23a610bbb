"""Acceptance suite: desk-scale end-to-end criteria.

Each test prints one [PASS]/[FAIL] line (run with `pytest -v -s` to see them
live). Desk scale: 50 clients x 200 records, 10 classes, 32 features,
hidden width 64, 60 rounds, 10 selected per round, 5 malicious, seeds 1-3.
Experiments are cached module-wide so criteria share runs.
"""

import itertools

import numpy as np

from fedsim.baselines import coordinate_median, fedavg, krum, trimmed_mean
from fedsim.clustering import active_columns, compute_thresholds, greedy_cluster
from fedsim.config import SimConfig
from fedsim.harness import run_experiment, write_csv
from fedsim.model import init_model, loss_and_grad

SEEDS = (1, 2, 3)


_CACHE = {}


def get_run(aggregator, attack, seed, p=0.4):
    key = (aggregator, attack, seed, p)
    if key not in _CACHE:
        cfg = SimConfig(aggregator=aggregator, attack=attack, seed=seed, noniid_p=p)
        _CACHE[key] = run_experiment(cfg)
    return _CACHE[key]


def defense_runs():
    for (agg, attack, seed, p), res in _CACHE.items():
        if agg == "clustervote":
            yield res


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, text


def mean_inference_accuracy(res):
    vals = [r.inference_accuracy for r in res.records if r.inference_accuracy is not None]
    return float(np.mean(vals))


def final_asr(res):
    return res.records[-1].asr


def test_criterion_1_inference_fidelity():
    at_04 = [mean_inference_accuracy(get_run("clustervote", "none", s, p=0.4)) for s in SEEDS]
    at_06 = [mean_inference_accuracy(get_run("clustervote", "none", s, p=0.6)) for s in SEEDS]
    at_08 = [mean_inference_accuracy(get_run("clustervote", "none", s, p=0.8)) for s in SEEDS]
    ok = np.mean(at_04) >= 0.95 and np.mean(at_06) >= 0.98 and np.mean(at_08) >= 0.98
    report(1, ok,
           f"inference accuracy p=0.4: {np.mean(at_04):.3f} (>=0.95), "
           f"p=0.6: {np.mean(at_06):.3f}, p=0.8: {np.mean(at_08):.3f} (>=0.98)")


def test_criterion_2_defense_efficacy():
    fed = [final_asr(get_run("fedavg", "basic", s)) for s in SEEDS]
    cv_basic = [final_asr(get_run("clustervote", "basic", s)) for s in SEEDS]
    cv_alt = [final_asr(get_run("clustervote", "alternate", s)) for s in SEEDS]
    cv_dba = [final_asr(get_run("clustervote", "dba", s)) for s in SEEDS]
    floor = [final_asr(get_run("clustervote", "none", s)) for s in SEEDS]
    ok = (all(a > 0.5 for a in fed)
          and all(a < 0.05 for a in cv_basic)
          and all(a < 0.10 for a in cv_alt)
          and all(a < 0.10 for a in cv_dba)
          and all(a < 0.05 for a in floor))
    report(2, ok,
           f"basic ASR fedavg={[f'{a:.3f}' for a in fed]} (>0.5), "
           f"defense={[f'{a:.3f}' for a in cv_basic]} (<0.05); "
           f"alternate={[f'{a:.3f}' for a in cv_alt]}, dba={[f'{a:.3f}' for a in cv_dba]} (<0.10); "
           f"no-attack floor={[f'{a:.3f}' for a in floor]} (<0.05)")


def test_criterion_3_attack_free_parity():
    cv = np.mean([get_run("clustervote", "none", s).records[-1].accuracy for s in SEEDS])
    fed = np.mean([get_run("fedavg", "none", s).records[-1].accuracy for s in SEEDS])
    gap = abs(cv - fed)
    report(3, gap < 0.02,
           f"attack-free accuracy defense={cv:.4f} vs fedavg={fed:.4f}, gap={gap:.4f} (<0.02)")


def test_criterion_4_trust_separation():
    ok = True
    details = []
    for attack in ("basic", "alternate"):
        for s in SEEDS:
            res = get_run("clustervote", attack, s)
            mal = [r.malicious_trust for r in res.records[10:] if r.malicious_trust is not None]
            hon = [r.honest_trust for r in res.records[10:] if r.honest_trust is not None]
            m, h = float(np.mean(mal)), float(np.mean(hon))
            details.append(f"{attack}/s{s}: {m:.4f}<{h:.4f}")
            ok = ok and m < h
    report(4, ok, "post-round-10 mean trust malicious < honest in every run: "
           + "; ".join(details))


def test_criterion_5_sybil_resistance():
    asrs = [final_asr(get_run("clustervote", "sybil", s)) for s in SEEDS]
    ok = all(a < 0.05 for a in asrs)
    # collusion cap, exact assertion on a constructed coalition cluster
    from fedsim.trust import cluster_votes
    rng = np.random.default_rng(0)
    for s_size in (2, 3, 4):
        c = 6
        coalition = rng.standard_normal(20)
        vecs = [coalition.copy() for _ in range(s_size)] + [
            rng.standard_normal(20) for _ in range(c - s_size)]
        for k_vote in (1, 2, 3):
            votes = cluster_votes(np.ones((1, c), dtype=np.uint8), vecs, k_vote)
            votes_solo = cluster_votes(np.ones((1, c - s_size + 1), dtype=np.uint8),
                                       [vecs[0]] + vecs[s_size:], k_vote)
            intra = int(votes[0]) - int(votes_solo[0])
            cap_ok = intra <= s_size * min(k_vote, s_size - 1)
            ok = ok and cap_ok
    # vote totals in real sybil rounds stay within the membership budget
    for s in SEEDS:
        res = get_run("clustervote", "sybil", s)
        for r in res.records:
            cap = r.cluster_size_cap
            for i in range(len(r.selected)):
                bound = 2 * r.memberships[i] * max(cap - 1, 0)
                ok = ok and r.votes[i] <= bound
    report(5, ok, f"sybil ASR={[f'{a:.3f}' for a in asrs]} (<0.05); "
           "intra-coalition votes within s*min(k,s-1); per-round vote budgets hold")


def test_criterion_6_adaptive_resistance():
    ok = True
    for s in SEEDS:
        res = get_run("clustervote", "adaptive", s)
        for r in res.records:
            for i, cid in enumerate(r.selected):
                if cid < 5:  # malicious ids
                    ok = ok and r.memberships[i] <= r.per_client_cap
    adaptive = np.mean([final_asr(get_run("clustervote", "adaptive", s)) for s in SEEDS])
    alternate = np.mean([final_asr(get_run("clustervote", "alternate", s)) for s in SEEDS])
    gap = abs(adaptive - alternate)
    ok = ok and gap < 0.05
    report(6, ok, f"forger memberships capped every round; "
           f"ASR adaptive={adaptive:.3f} vs alternate={alternate:.3f}, gap={gap:.3f} (<0.05)")


def exact_max_kept(A, per_client, per_cluster):
    m, n = A.shape
    frontier = {(0,) * m: 0}
    for j in range(n):
        avail = list(np.flatnonzero(A[:, j]))
        subsets = []
        for r in range(0, min(per_client, len(avail)) + 1):
            subsets.extend(itertools.combinations(avail, r))
        new = {}
        for state, kept in frontier.items():
            for sub in subsets:
                st = list(state)
                feasible = True
                for i in sub:
                    st[i] += 1
                    if st[i] > per_cluster:
                        feasible = False
                        break
                if not feasible:
                    continue
                key, val = tuple(st), kept + len(sub)
                if new.get(key, -1) < val:
                    new[key] = val
        frontier = new
    return max(frontier.values())


def test_criterion_7_clustering_structure():
    ok = True
    for res in defense_runs():
        for r in res.records:
            ok = ok and all(sz <= r.cluster_size_cap for sz in r.cluster_sizes)
            ok = ok and all(mb <= r.per_client_cap for mb in r.memberships)
    rng = np.random.default_rng(2024)
    max_gap = 0
    count = 0
    while count < 200:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        A = (rng.random((m, n)) < 0.6).astype(np.uint8)
        if not active_columns(A).any():
            continue
        th = compute_thresholds(A)
        x = greedy_cluster(A, th)
        ok = ok and bool(np.all(x <= A))
        greedy_removed = int(A.sum()) - int(x.sum())
        act = active_columns(A)
        opt_removed = int(A.sum()) - int(A[:, ~act].sum()) - exact_max_kept(A[:, act], *th)
        ok = ok and greedy_removed >= opt_removed
        max_gap = max(max_gap, greedy_removed - opt_removed)
        count += 1
    ok = ok and max_gap <= 0  # recorded empirical slack for this instance set
    report(7, ok, f"budgets hold in every recorded round; greedy within "
           f"recorded slack of brute force on 200 instances (max gap {max_gap})")


def test_criterion_8_numerical_core():
    # analytic gradients vs central finite differences, 100 probes
    rng = np.random.default_rng(123)
    model = init_model([32, 64, 10], seed=11)
    x, y = rng.standard_normal((16, 32)), rng.integers(0, 10, size=16)
    _, grad = loss_and_grad(model, x, y)
    h = 1e-5
    worst = 0.0
    for idx in rng.choice(model.dim, size=100, replace=False):
        theta = model.copy()
        theta.flat[idx] += h
        up, _ = loss_and_grad(theta, x, y)
        theta.flat[idx] -= 2 * h
        down, _ = loss_and_grad(theta, x, y)
        fd = (up - down) / (2 * h)
        rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
        worst = max(worst, rel)
    ok = worst < 1e-4

    # robust aggregators vs brute-force oracles, 50 random instances
    for _ in range(50):
        n = int(rng.integers(7, 12))
        ups = [rng.standard_normal(6) for _ in range(n)]
        f = int(rng.integers(0, (n - 3) // 2 + 1))
        mat = np.stack(ups)
        med = np.sort(mat, axis=0)
        mid = med[(n - 1) // 2] if n % 2 else (med[n // 2 - 1] + med[n // 2]) / 2
        ok = ok and np.array_equal(coordinate_median(ups), mid)
        if n > 2 * f:
            # with f=0 nothing is trimmed and the definition is the plain mean
            trim_expect = mat.mean(axis=0) if f == 0 else (
                np.sort(mat, axis=0)[f:n - f]).mean(axis=0)
            ok = ok and np.array_equal(trimmed_mean(ups, f), trim_expect)
        if n >= 2 * f + 3:
            scores = []
            for i in range(n):
                d = sorted(float(np.sum((ups[i] - ups[j]) ** 2)) for j in range(n) if j != i)
                scores.append(sum(d[: n - f - 2]))
            ok = ok and np.array_equal(krum(ups, f), ups[int(np.argmin(scores))])
        ok = ok and np.allclose(fedavg(ups), mat.mean(axis=0), atol=1e-12)

    # softmax trust sums to one in every recorded defense round
    for res in defense_runs():
        for r in res.records:
            ok = ok and abs(sum(r.immediate) - 1.0) < 1e-9
    report(8, ok, f"gradients match finite differences (worst rel err {worst:.2e} < 1e-4); "
           "robust aggregators equal oracles; trust sums to 1 +/- 1e-9")


def test_criterion_9_determinism(tmp_path):
    cached = get_run("clustervote", "basic", 1)
    fresh = run_experiment(SimConfig(aggregator="clustervote", attack="basic", seed=1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(cached.records, a)
    write_csv(fresh.records, b)
    ok = a.read_bytes() == b.read_bytes()
    report(9, ok, "two runs of the same config+seed produce byte-identical CSV")
