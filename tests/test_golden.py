"""Pinned sha256 digests of the rounds CSV and of the final parameters.

Every aggregator x attack pair runs at the desk-scale defaults for four
rounds, plus clustervote against the adaptive attack under each threshold
mode, gradient-only voting and the paper's sign rule. Three many-client cases
pin clients that train as one stacked model: 500 clients of 20 records (one
honest stack per round, and one stack of basic or, with its two trigger
slices, dba attackers, each of three batches), and 300 clients of 33 and 34
records under sybil (two stacks per round beside the leader's own
training). The rounds CSV holds
only accuracy and ASR for a baseline aggregator, so two attacks that move no
argmax give the same CSV; the final-parameter digest tells them apart. Two
cases, one desk defense run and one 500-client stacked run, are checked at one
and at two BLAS threads in fresh processes, since the kernels hand BLAS their
own output buffers. A digest may change only with a reason recorded in
CHANGES.md.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim
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
CASES.update({
    "scale-fedavg-basic": {"n_clients": 500, "shards": 500, "num_malicious": 50,
                           "aggregator": "fedavg", "attack": "basic", "rounds": 3},
    "scale-clustervote-sybil": {"n_clients": 300, "shards": 300, "num_malicious": 30,
                                "aggregator": "clustervote", "attack": "sybil", "rounds": 3},
    "scale-fedavg-dba": {"n_clients": 500, "shards": 500, "num_malicious": 50,
                         "aggregator": "fedavg", "attack": "dba", "rounds": 3},
})

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
    "scale-fedavg-basic": "3bfb9d29d84532aaf83f7e05ed43f52d0f709472fdcdeb2f514e0eb3ffacf9ba",
    "scale-clustervote-sybil": "05318e22e6268aa33adffad2492d8aabbea4d40e1490905feda9ff0f6908edc4",
    "scale-fedavg-dba": "ed2c395ea06752852c3337ac9935981de852ca748c4a354246ef5a1597ab9d17",
}

# sha256 of result.final_params.flat.tobytes(). The five attacked krum cases
# share one digest: Krum picks the same honest update in every round.
PARAMS_DIGESTS = {
    "fedavg-none": "ef74104403cf9fb0e48a1d1afd00300c009bcc28c6923725e267658d0607f596",
    "fedavg-basic": "102ef47fff992e4693bbe2d6d729d6af33dd9efa6bb5c7d7f607e40b483a174b",
    "fedavg-alternate": "8d3e68ef040b71a366b502a01060383d1fe47ee51ea8583c8baece11ead1a86e",
    "fedavg-dba": "a256cbdf9f2c364599136a53a491bb468b64970f39bc99ac4b7248de71e2b03b",
    "fedavg-sybil": "552aee791dd6669fe8c3fca7cff5119210509fab34a34ed6477864b42cc81e1c",
    "fedavg-adaptive": "4eeee75bec20728112c214ba511fc5dc320d7594718fc1d27571f688f8c3424d",
    "krum-none": "ba8bf136865f5a9c24aae8009fe7f345e89fb728eab63520f0fc59b3a9d31954",
    "krum-basic": "23b785a60ff5214ae1ecb8337b237a259a5d6afb685fc8ed903ccee129fd4a74",
    "krum-alternate": "23b785a60ff5214ae1ecb8337b237a259a5d6afb685fc8ed903ccee129fd4a74",
    "krum-dba": "23b785a60ff5214ae1ecb8337b237a259a5d6afb685fc8ed903ccee129fd4a74",
    "krum-sybil": "23b785a60ff5214ae1ecb8337b237a259a5d6afb685fc8ed903ccee129fd4a74",
    "krum-adaptive": "23b785a60ff5214ae1ecb8337b237a259a5d6afb685fc8ed903ccee129fd4a74",
    "median-none": "eb97d4c9d6a2f07a1fd631b7a9749db4383252e6df021fa3783500c9df6d7428",
    "median-basic": "d78190f050518635acf08975551ee4a139e5a55e92fe6afbe4c9996f4e6ae0a0",
    "median-alternate": "a47ff1b9b23ff20889e49865e0e22a1d752089489b15ab6f9fa1632ce8294fab",
    "median-dba": "8881ae651cb565416821807bd41d79ec7174e7c7cc26f3e9a071b0a0cb51f95b",
    "median-sybil": "fc7d0bafdf3fa3174fa9ea0a085b8ca2aaa50e0d90868b379f053743698b20d2",
    "median-adaptive": "31db6f61d8ac0c05bf2fa1cc101a4ddf329dfa9e4c6aa260af78f5da0e504f91",
    "trim-none": "d0a22446b9e14d7c984f741eefe4cb6c4215d4719c7f999be0f249da9dfb64ee",
    "trim-basic": "9dfffc347b8bd036793b23073c06e39df00a5f8069569e35e596b9b641e33d58",
    "trim-alternate": "c3debba63c32e540d4df39b0fce9ba8911ae09fd210503136c130be754a6596f",
    "trim-dba": "bda66611f88c6f44487987ece27a8799261e0d3629a2d6facc2f85bd62bb2e2d",
    "trim-sybil": "5e6b3565fb4ca53276c42bfdfce6628861ae7e9462fa243e3b0ffd7932d31091",
    "trim-adaptive": "f2c37a7f4a8c80411fdb4eec990fbe1e59146f6c7634952e7afb194cfc92793a",
    "fltrust-none": "235fb44519f586459b63bf3ce0099a322311ef72758fcce58e0ab64b8103feb3",
    "fltrust-basic": "2d1a5b31a6d720163e9b973e308499927fa898026bbbaf602c90eaa093d59e5c",
    "fltrust-alternate": "7fb6f9bec9bca5fe89b7f4e9cce448acaf18d330cd9d1567484d9b2d64bf47fa",
    "fltrust-dba": "349e2cb50c04dfc8abd9bc911d2a19f4a800e4b068786c87b467d09a031279a8",
    "fltrust-sybil": "db2789552ec552a2ed6794975eeaaa20fc395137eca4e406067e3173e3ff81e7",
    "fltrust-adaptive": "040df604041e72aef5f2889a0c08945ed36d67972992f6e59d0f8c47c616aae0",
    "clustervote-none": "97720d4f2e147808033ce4f5ee075ca77be6ece8dc1b256a01b8844f2ef19417",
    "clustervote-basic": "8f3ab05ac77ff5dfbe69098b80f37162b802d22cf18626d8c25cbb29b1245487",
    "clustervote-alternate": "fdbcd4db5e64e5ee95babb2e86840efed5a09415251f49d6146b5c4f0a4547d3",
    "clustervote-dba": "d37631713f28ce72b3b0e6bb71525f2f6f238c300552abd74294216cb4a287bd",
    "clustervote-sybil": "d60faa14d48dd07ffb91b62fe41285327e422216be6429a03aca46f93aad7e64",
    "clustervote-adaptive": "2a0704251ee0f4cb2f3af442f7b10b21232830bd0e9b537d2363bbbac6f4dd45",
    "clustervote-adaptive-threshold_mode=absolute": "d48f7899dacd9a30884ba8078ec548f0f2085363ff62e777da0b68d10810d990",
    "clustervote-adaptive-threshold_mode=mean_plus_std": "c6b6e6b923fa29b25235c3f2b93e6d937664d7656c65646ddd5c2932dc494753",
    "clustervote-adaptive-voting_metrics=gradient": "0014996cb8a2463565a1b8b640b76138ee3e4fd2596581cf2c2f2b8e57bf944c",
    "clustervote-adaptive-strict_paper_sign=true": "59a9269c803ccfbb896a8075f88cae4adba655d082c1e120ab0e205af35d01b6",
    "scale-fedavg-basic": "1970142c2baa3dcce7467095f4f8729d39d21b558b2661236a1007135ac84b22",
    "scale-clustervote-sybil": "4c7e9504cd927a16c68e05d25664e92e0fe01c949dff03049be7016ff32b7971",
    "scale-fedavg-dba": "1f59913ccefe22552d0189bdd95f3e68b3b78d4fabc5ff11078596d1c61231f9",
}


@functools.lru_cache(maxsize=None)
def _run(name):
    return run_experiment(SimConfig(**{"rounds": 4, **CASES[name]}))


def test_every_case_is_pinned():
    assert list(DIGESTS) == list(CASES)
    assert list(PARAMS_DIGESTS) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_rounds_csv_digest(name, tmp_path):
    path = tmp_path / "rounds.csv"
    write_csv(_run(name).records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", list(CASES))
def test_final_params_digest(name):
    flat = _run(name).final_params.flat
    assert hashlib.sha256(flat.tobytes()).hexdigest() == PARAMS_DIGESTS[name]


# prints the final-parameter digest of each config, given as JSON keyword lists
_DIGEST_SCRIPT = """
import hashlib, json, sys
from fedsim.config import SimConfig
from fedsim.harness import run_experiment
for kw in json.loads(sys.argv[1]):
    flat = run_experiment(SimConfig(**kw)).final_params.flat
    print(hashlib.sha256(flat.tobytes()).hexdigest())
"""


def test_final_params_digest_at_one_and_two_blas_threads():
    # the BLAS thread count is read once, when numpy loads, so each count needs its own process
    names = ["clustervote-alternate", "scale-fedavg-dba"]
    configs = json.dumps([{"rounds": 4, **CASES[name]} for name in names])
    src = str(Path(fedsim.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                               threads)}
        out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, configs], env=env,
                             capture_output=True, text=True, timeout=300, check=True).stdout
        assert out.split() == [PARAMS_DIGESTS[name] for name in names], f"{threads} BLAS threads"
