"""Golden exports: the same seed must keep giving the same bytes.

Each grid point maps one field and forwards one round of messages under
every strategy; the sha256 of every exported file is pinned.  `rics`
also writes its event trace.  A digest may change only with a behaviour
change, and CHANGES.md must then say which bytes moved and why.
"""

import hashlib
import os

import pytest

from icroute.baselines import STRATEGIES
from icroute.experiments import ExperimentConfig, generate_scenario, run_experiment
from icroute.topology import build_topology

TRACED = "rics"

GOLDEN = {
    ("square", 5): {
        "topology.json": "17bbcfbed014f70cfb06ea71bab21d107b1b45a1d04ecd27cef0511926ff7435",
        "rics/messages.csv": "5adc0c4be1d4e216585fb1ebdb591e638c78bdee29d21baa404ffeffca510481",
        "rics/summary.json": "ba9786bb4c65a353644f3b5778459fc7ddb471ba097301b54f870a8ad0f39b2a",
        "rics/trace.ndjson": "faa19252e61c95590446e5ce652a342f323df6bf72a08e619b210fd0a45d7924",
        "fxcs/messages.csv": "b84b9230a8d4dafdc3631e20381c5eed1ab13873d7bb2ba91795d9fbee454d94",
        "fxcs/summary.json": "7c7e048e9770ee00b05bde297305b75a78e783ec0e6a0ffe33f7497eb0517330",
        "rncs/messages.csv": "a5884b707dae754603fa47652684c7339e981d8e925fc7131d68c63ec01bfa4a",
        "rncs/summary.json": "60d7bb84fd002d1ef453b97aa01ae11b8ca871ed694c5b65b400b5e485dae148",
        "otps/messages.csv": "16c8096e510ff5cb2a501b4dc70cebf14bd3e3ac6332a2d48015f59c6183950a",
        "otps/summary.json": "12d1b709bad2a13af3bd6c31931c1f49ee378eafbc781ad3ba977cd943670576",
    },
    ("square", 50): {
        "topology.json": "ab337581efb8d5083d9217249eeb9546d2e03494fcd9866816dd87fcf5a9c8c9",
        "rics/messages.csv": "ace2005e7cf3bc6d8dad3aeb9001fc13122f8ff4ca1464e52eada6f2932ba148",
        "rics/summary.json": "ca6da0e58d4c043c36566c0aef5f64a8e31117c716fe92367d574d9499509104",
        "rics/trace.ndjson": "bd6172a785535220256a0e06e3af3327d22560807e19191f47dc84554b43845a",
        "fxcs/messages.csv": "01209a32b10fccb8954471351b18cb899d6ccbc8d0e6dc7e7ca5bef32c4ea0b9",
        "fxcs/summary.json": "790c6f5c55fb9aeb174e2df26fcb52f1e2cf7114307be4d6ab18184e09373e96",
        "rncs/messages.csv": "911b1c94633c34af06e411e4124ff267ee93b3a138e02ebdb9f68498e0c1f145",
        "rncs/summary.json": "1592df838e16f75144cac8e77706b608ce9549612f0362afeb29ef85a6eff2bb",
        "otps/messages.csv": "f56b7dae5aa630b4c85e8c434d3bb6acb3ab2c7c0c184c1cd5bff11ef407c4bb",
        "otps/summary.json": "d9b55af5e05439095a890a68e599be75b7a76bfdfabc52fcf07adf4cc29f529a",
    },
    ("rectangle", 5): {
        "topology.json": "5892b258cbd058b3d067a4dc34413c3bfa2f76bd5b55de33e43c22d770fff44c",
        "rics/messages.csv": "e452829db04774413189d0f77f8c4c02b9fd9278bbaa68be46a84ebd8545335d",
        "rics/summary.json": "9bdfb0c06c485a79b6c1c8cc0319baf3c070fb02e99342f22c878d8de3117eac",
        "rics/trace.ndjson": "0c287f01b52674b631813f4565bd0408b2a987911d0daefe7d885d81927510d2",
        "fxcs/messages.csv": "cd982c4379c044177f907d7845db98e6f94edb00ed0bab8f85494ca2535aab25",
        "fxcs/summary.json": "008946375a39c7b82cf5a377c28448d50c8f1726e4dfc6f5d7ebf3148188f44b",
        "rncs/messages.csv": "28f38f8da6839310a3fb5f846a04b9f4dbd4900af6ac216509bbef7f1bdfa3fc",
        "rncs/summary.json": "eb4650f3b470144f285e2a5c49d1de5224bdafc4954a8be54f865495204f4407",
        "otps/messages.csv": "f9ef140f7a7aca9767047c2f3d9df7f9ad7a65399a7f7e65419a04739d4e6fb0",
        "otps/summary.json": "ef1d2e718d1b3995b6acdff7ab235ae15c3393f99709ccde3421d7103a6d652c",
    },
    ("rectangle", 50): {
        "topology.json": "36a3b070e4a1bd7721f71051fe15be7cc3a24a90b9d228ac62cee9948249ab7e",
        "rics/messages.csv": "c648f702b9d83dd2a7f82a292e00bbbb82c6518ab87086d51fb20c8ed060c180",
        "rics/summary.json": "484e7ae814a63cf2bdc8441f6036f69208a9bb7711c2394b5692c9db637fa6c0",
        "rics/trace.ndjson": "b81286b666be806b8354a099c1638ed1c067c72f9726e0f26abefb3dda44d764",
        "fxcs/messages.csv": "3e0f11b33221a81a9b0ce0e27b3bb87265a2db37e89ed193f07bae2880d525cf",
        "fxcs/summary.json": "06cc4d24c04b493273a0f4f982ef63d19cd1cd87a0d15e942c4c3e56a9d008f2",
        "rncs/messages.csv": "ccf79d446cb9e3987338f730489e0c8476c1492a3ed10512af6652802540bba8",
        "rncs/summary.json": "beba4caa45c4bb03c3083b739fc10e62d6f3e6ffd8da54130933a236c47863ca",
        "otps/messages.csv": "c648f702b9d83dd2a7f82a292e00bbbb82c6518ab87086d51fb20c8ed060c180",
        "otps/summary.json": "005d5448716ebafbb171b0f29710de257c8b9466a4091cfde0e65c87cae1ca84",
    },
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("shape,t", sorted(GOLDEN))
def test_exports_match_golden_digests(tmp_path, shape, t):
    config = ExperimentConfig(shape=shape, n_nodes=50, t=t, rounds=1, seed=11)
    scenario = generate_scenario(config)
    topo = build_topology(scenario)
    got = {}
    for strategy in STRATEGIES:
        cfg = ExperimentConfig(shape=shape, n_nodes=50, t=t, strategy=strategy,
                               rounds=1, seed=11)
        result = run_experiment(cfg, scenario=scenario, topo=topo,
                                trace=strategy == TRACED)
        for path in result.export(str(tmp_path)):
            name = os.path.basename(path)
            key = name if name == "topology.json" else f"{strategy}/{name}"
            digest = _sha256(path)
            # every strategy exports the one shared topology
            assert got.setdefault(key, digest) == digest, key
    assert got == GOLDEN[(shape, t)]
