"""Pinned sha256 digests of the rounds CSV: any change in behaviour shows here.

Every aggregator x attack pair runs at the desk-scale defaults for four
rounds, plus clustervote against the adaptive attack under each threshold
mode, gradient-only voting and the paper's sign rule. The digests were
taken with one and with two BLAS threads and did not differ. A digest may
change only with a reason recorded in CHANGES.md.
"""

import hashlib

import pytest

from fedsim.config import SimConfig
from fedsim.harness import run_experiment, write_csv

AGGREGATORS = ("fedavg", "krum", "median", "trim", "fltrust", "clustervote")
ATTACKS = ("none", "basic", "alternate", "dba", "sybil", "adaptive")
VARIANTS = {
    "threshold_mode=absolute": {"threshold_mode": "absolute"},
    "threshold_mode=mean_plus_std": {"threshold_mode": "mean_plus_std"},
    "voting_metrics=gradient": {"voting_metrics": ("gradient",)},
    "strict_paper_sign=true": {"strict_paper_sign": True},
}

CASES = {f"{agg}-{attack}": {"aggregator": agg, "attack": attack}
         for agg in AGGREGATORS for attack in ATTACKS}
CASES.update({f"clustervote-adaptive-{name}": {"aggregator": "clustervote", "attack": "adaptive", **kw}
              for name, kw in VARIANTS.items()})

DIGESTS = {
    "fedavg-none": "722df556899095c09eddb98de3a90f1b76d49e4a6811669fe15353248141cfe5",
    "fedavg-basic": "d16d397ac7d2149835277ac8499669b496bed89d686707ee5a8a680a6d9609ee",
    "fedavg-alternate": "049f0eec909b6d3563c0078062f9232671969af4bb01b3aafb0dbd16b49bcb40",
    "fedavg-dba": "630ac9e7a0c758fc7616d0f716157db556a24e960c76e97b44f053a113770bcb",
    "fedavg-sybil": "85e132304b726142c405eb03a9c6a2619c55e1d3b1b507cc89d1b19c57b95b0c",
    "fedavg-adaptive": "049f0eec909b6d3563c0078062f9232671969af4bb01b3aafb0dbd16b49bcb40",
    "krum-none": "e78efa638135a4c8c9fe9b0737b0b320d9a2fa95e886e4e07bd29b0d7fe9894a",
    "krum-basic": "5e2471675b33d9085baeee9cc579c7cebde4a7f47c37babf3e7323859857128f",
    "krum-alternate": "5e2471675b33d9085baeee9cc579c7cebde4a7f47c37babf3e7323859857128f",
    "krum-dba": "5e2471675b33d9085baeee9cc579c7cebde4a7f47c37babf3e7323859857128f",
    "krum-sybil": "5e2471675b33d9085baeee9cc579c7cebde4a7f47c37babf3e7323859857128f",
    "krum-adaptive": "5e2471675b33d9085baeee9cc579c7cebde4a7f47c37babf3e7323859857128f",
    "median-none": "dcc6472cef52e1a412d109aca337b62cb5058eb19d9d94f65d9380caa6e06ca3",
    "median-basic": "2d5f66c1660c10c4c8317370bf27c85e81a9b6b70a793b49e9e58a9f3f92a7ea",
    "median-alternate": "e327c5a0949184d1dc29f26f4e36a4a535cc2fde09ee65e3d42b7cf05a340e9b",
    "median-dba": "589c8ec76e0b6740f2f6ca28bc5a77c2e16e757ad330118cc0135392da7121b9",
    "median-sybil": "38daf38162be685e2b60a99506196144d3f31c3256d7543b137ee27049190c57",
    "median-adaptive": "c2fdcdd6ca35df124038fffd38b0499dd8bb3c6a4a7c93aee22c691b26367e25",
    "trim-none": "d829f7bb05278110dd439501c727e9956a0359cc8e1b0a89ce5b6e215602c9a7",
    "trim-basic": "018961938d0cdc9704c940ed2f004b6280335cc2a1143dab70e38aa650997c1f",
    "trim-alternate": "fa940e88e969d8e3ff1ed60335200a77993d7bddf72a25b81af96630cdbf8ab5",
    "trim-dba": "a061f52e65773345b3bdfdaf0f61dbfd549d5569675e722bc6646e46a7931b0c",
    "trim-sybil": "9fa0bae3761ad0da71ad441d4e0d881c63afd37e130c3a8e7b12bac2b03a2470",
    "trim-adaptive": "6010cdcd53a2cc160579f63b6c2a3b0733abaa48752c18e21199d8327358279a",
    "fltrust-none": "1d0667bed2007146979388325122b655883c309be4d349086866d734a4c7277b",
    "fltrust-basic": "6c7f17b772ac471028fc08fea32977bdfb498579dcdf19d513dc4a287bc746a3",
    "fltrust-alternate": "43c7b20af59660abac86f46ad9d24f0bedfb87f9613b97988b9aab04d38f9ebb",
    "fltrust-dba": "41f500e31bc896c9038a113592b4ca5cd725f0cc33a7dcb738caa7b8d6171154",
    "fltrust-sybil": "dae6a2ceb5c294343d1f22b29a882e937075aaee56b2a96a0b3dc707ce6da211",
    "fltrust-adaptive": "516daf6574664e598726573e66547f2d4052de43bcc90111691b609af64321f1",
    "clustervote-none": "d5cb98788cc999775c204c2b65113be1d7a26f4b68557e0d1cfd75664627e521",
    "clustervote-basic": "287be1f5536ff9ef2d5ab5511e76c9d2be6e88681f0039898c608c6b467d9621",
    "clustervote-alternate": "aa452bc4992c8fc4440f0c867f86695051aa5c80191b4a9a65acc248a798e696",
    "clustervote-dba": "5a54a105f1727e6a924e1fb93b3b7714e0456378653290981d5f5a5db63449d4",
    "clustervote-sybil": "0794dcccc3706f0fa345f6a306cb45d083cab2cc959a4eeaa2dc0deadc62f3de",
    "clustervote-adaptive": "d5a5e75ea0d26d71c7586f55580d065fb6ca6c230c57250a07e7b7b259790100",
    "clustervote-adaptive-threshold_mode=absolute": "4ec30eeca7333b5732e157cdc57d88aaef6bde94e1065508ed187a512a8fcb03",
    "clustervote-adaptive-threshold_mode=mean_plus_std": "4291a9b57bf08e9264d11064c8bca29f3ebe43015297b29340e4ea33f53138e9",
    "clustervote-adaptive-voting_metrics=gradient": "6921d07b239e022cfdc65ba969424065705085f943ff7377de8d158551dc3441",
    "clustervote-adaptive-strict_paper_sign=true": "4a9e5c698705029d405bc7ed06bf762efec12c86ba728beb50d8b3fda9fcf5a1",
}


def test_every_case_is_pinned():
    assert list(DIGESTS) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_rounds_csv_digest(name, tmp_path):
    path = tmp_path / "rounds.csv"
    write_csv(run_experiment(SimConfig(rounds=4, **CASES[name])).records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
