"""Golden exports: the same seed must keep giving the same bytes.

Each grid point (shape, nodes, t, rounds) maps one field and forwards
`rounds` messages per node under every strategy; the sha256 of every
exported file is pinned.  The grid is square/rectangle x (n50 t5, n50
t50, n100 t5, n50 t120) at one round, plus square n50 t500, the sparsest
wakes; at t=120 and t=500 listening nodes sit out the most slots.  One
round never fills a queue, so square n100 t5 also runs 10 rounds, the
benchmark's busy_relay shape, where senders miss, fail and find full
queues (`EXERCISED` checks that they do).  The
mapping phase's event trace is pinned as `topology/trace.ndjson`, and
`rics` also writes its forwarding trace.  A digest may change only with a behaviour
change, and CHANGES.md must then say which bytes moved and why.

Generated fields are connected and lose no node, so two hand-built
fields pin the mapping paths the grid never reaches (`HAND_BUILT`): a
node out of everyone's range never learns a hop, so it never transmits
or holds up the run, and ends unreachable; and a relay dies in its echo,
while it is parked, so the engine drops it from the calendar
mid-mapping and the run still converges once the live nodes retire.
The same field with a death during 40 rounds of forwarding pins where
that run ends: when no node is scheduled to wake, or at the horizon
while a node still scans toward its dead next hop.

`PLACEMENTS` pins the generated fields themselves: every node's id,
exact coordinates and offset for acceptance 1's 200 layouts and for the
benchmark workloads' fields at seeds 0-3, drawn as
`scripts/map_gates.py` draws them.
"""

import dataclasses
import hashlib
import importlib.util
import os

import pytest

from icroute.baselines import STRATEGIES, build_policies
from icroute.core import ChargingSpec, NodePlacement, Scenario
from icroute.experiments import ExperimentConfig, generate_scenario, run_experiment
from icroute.forwarding import run_forwarding
from icroute.radio import EventTrace
from icroute.topology import build_topology

TRACED = "rics"

GOLDEN = {
    ("square", 50, 5, 1): {
        "topology/trace.ndjson": "cfe6929b5838d92687af75638ae6ef974aa97c0dde1bcfa5299db5516afa5e61",
        "topology.json": "17bbcfbed014f70cfb06ea71bab21d107b1b45a1d04ecd27cef0511926ff7435",
        "rics/messages.csv": "674d6cde40c58b4bf2ba4183da7dfef902ef1fcd61cab60556c79da98d10db3e",
        "rics/summary.json": "abd81cc8e0046db1e451d1e8b7a15d730fa15f371d3d196cdde0a0d057aa4ae0",
        "rics/trace.ndjson": "e8b8f5b6238b712c3122697a8beaa22f96f2f85a83da179e29c6c496037048e5",
        "fxcs/messages.csv": "b84b9230a8d4dafdc3631e20381c5eed1ab13873d7bb2ba91795d9fbee454d94",
        "fxcs/summary.json": "7c7e048e9770ee00b05bde297305b75a78e783ec0e6a0ffe33f7497eb0517330",
        "rncs/messages.csv": "a5884b707dae754603fa47652684c7339e981d8e925fc7131d68c63ec01bfa4a",
        "rncs/summary.json": "60d7bb84fd002d1ef453b97aa01ae11b8ca871ed694c5b65b400b5e485dae148",
        "otps/messages.csv": "16c8096e510ff5cb2a501b4dc70cebf14bd3e3ac6332a2d48015f59c6183950a",
        "otps/summary.json": "12d1b709bad2a13af3bd6c31931c1f49ee378eafbc781ad3ba977cd943670576",
    },
    ("square", 50, 50, 1): {
        "topology/trace.ndjson": "325f1ebd7c7633cf23fcec2ea2eb6d9378a188204030e7133d094d84e283e00f",
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
    ("rectangle", 50, 5, 1): {
        "topology/trace.ndjson": "07e296d670c028cbabacf4671bef7a9836d5ed9d4a1cf8f9f6fb3f57b01dc459",
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
    ("rectangle", 50, 50, 1): {
        "topology/trace.ndjson": "70ff7fde88674e8564a046ccfa9eeb9c56d9c9e2ae5de5d06a8a05eddadaaa7a",
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
    ("square", 100, 5, 1): {
        "topology/trace.ndjson": "f08c6f6da6fe6af7ce3b3545226067e027652f8196b8563b1ab6c0c2a2db23c1",
        "topology.json": "f67bb542f6bbc2867a6c7ad8c7ef3e17a88094079217126dc6ddbfcf5b7666ba",
        "rics/messages.csv": "d58071d63e16fc8df29caca0bd968603bb4ea25b945c7079994dfb9a56ab6b57",
        "rics/summary.json": "f762557e81354cfba7b736252fb89e6070c3f988f161c74472b3f415aafee7ea",
        "rics/trace.ndjson": "72e51713954e35bb46bd713d37f15bb17ab0a82b4f7eea171953f06cef46d6b7",
        "fxcs/messages.csv": "12ee23cad8d3512bafeeeaad6cdc0a0beed37cbc73375c6cb4efafc67acf69f7",
        "fxcs/summary.json": "c401524eb341ab511cf1a4127c0fde27edb18c01dd0dafba8d098ab1a9e40e88",
        "rncs/messages.csv": "16de0b83bfc65926770c4a36bf13a5d99246256cc7af0cd2af8372795ac629fe",
        "rncs/summary.json": "300cd825a92965d3b6f298de717823321f089937978936174bf6c772772c1dbe",
        "otps/messages.csv": "6e22d42f09c218f749c4281efe514074bbbd585d00b945add529d4516f8547e1",
        "otps/summary.json": "690788198ebbfa33fab84883f893e5808dbd1517fb59c66ba43a6d62d8d190cc",
    },
    ("square", 50, 120, 1): {
        "topology/trace.ndjson": "69e94bab5df3572a6511573331df06edcddfd371d40dc72408b25516698fcf95",
        "topology.json": "5e30d864a4b3f20debebd132338cd22d698065428763698b17e2290c29a16523",
        "rics/messages.csv": "1da40b4b302e03719a7e974234bf299376b22cedb2cac8cfee16ea105489991c",
        "rics/summary.json": "8c053a785ba4a42a6e05ef21ef7b191c67c7e630e8af515cd35a3f5f19a2a457",
        "rics/trace.ndjson": "37c992465c38e5ac49b682506408fc683500075f234e1d1081ad9be206f317c8",
        "fxcs/messages.csv": "bc71829159c63e54330292e2c0e6289b8e7f84373b03fe66642098688a9899fb",
        "fxcs/summary.json": "c7d522e935765ae05d1595bce9965d88636ca0f64c45e2948c881eba491738c6",
        "rncs/messages.csv": "72bf12cbc38296010e6f5d34c9785616dec8298e5aa1d1962bd2b7ba72a1a35b",
        "rncs/summary.json": "babe43aaa821b1b49100d58d64c1bd0add7c0a8cdd29830caac4d6d99681e48a",
        "otps/messages.csv": "1c93b39075f134c0a47a015fd4039b946c79c935c8971822e3fee38191806645",
        "otps/summary.json": "edcff7dc03a41b4315b16315b9899655afbe368901c797dcf07c0f4dcfb0edf6",
    },
    ("square", 50, 500, 1): {
        "topology/trace.ndjson": "2a2ba9055a41e1e0d236b03d0b02b11d34a788db2063e6c0e7f35fa9e1b2646b",
        "topology.json": "e42dd5e7af3c95a7e39394ed44776e0e34653f79630259230d31ce17b20aa755",
        "rics/messages.csv": "aba44e0fbb9884f204db8f396c66fc53e1d9596a6ef444b3d9065c0c14524588",
        "rics/summary.json": "1537d5e96e1b1d2f1b4c173c72bbfa34a21fdf36c2b8f42df386b3e8111e8b20",
        "rics/trace.ndjson": "b0baab5824192a69bd5e8e3d1fe1e44f946e7d893f5d2903da9f8797b259aabb",
        "fxcs/messages.csv": "47e277d46fc0891a131a5e43721dd0a2767c807e02d170703caef37b31d6b2a9",
        "fxcs/summary.json": "881b71925406dfa3c9a92e6dc70feaf1424799849d27ed771378098c4cf592e0",
        "rncs/messages.csv": "907ccdf5710365ecbf71303b47dea83338ea45371886fd67bad07a97da9da7f2",
        "rncs/summary.json": "75db409f783af9a958c18730eac966d97d697b526466ea40596fa9b9d922283c",
        "otps/messages.csv": "68a21fa13839566254dab951e78b3d3e00d58b874755b9a146dedc5285aa377e",
        "otps/summary.json": "78fafee6f143e1472f287e7c848de8caf134f2b7b7b1e546dcf3b1bbb6c3bd85",
    },
    ("rectangle", 100, 5, 1): {
        "topology/trace.ndjson": "05fd6a408dfa56e22ce72e20ae496271dc42a98855740913d4d0c9b19ab0184d",
        "topology.json": "36e5091b641f022dd3d9b0df4ce2611162ffd84bb9f7e39cba4f61ce3d8b92ca",
        "rics/messages.csv": "a8b1b0093ba78b6a64f19e47a829cb226c4e7dd41d81f62ceec7b2110e55dfe2",
        "rics/summary.json": "e1ec9fff3dfe070d4b18c2f3652d9c416c8cc99493d7b011cfe72543f2176eb1",
        "rics/trace.ndjson": "59075f37ca27df5f0bcbcb7ef294b13f4a7fa77aa6af73315a1cc27f8f953631",
        "fxcs/messages.csv": "50691621ae58bbd03ce6411584f8196a298c01dcf8bb4284133ab2d459a8bcb1",
        "fxcs/summary.json": "8e91a855fcfb53159963079e32866f6738795775aa1d749e6fcc21c0b8ad6a9d",
        "rncs/messages.csv": "0bf516efeab6108144840cf00ee0a650d9afbecb70b647041380224d21073795",
        "rncs/summary.json": "52a83fcf431856f3b0093c253732de0884d99b04bcf8dcb671eb17e35d9648d7",
        "otps/messages.csv": "83da79bc7f7324ea52ec50043c1cb2803bf5cb4c337300ebccc4a48ba59ed70a",
        "otps/summary.json": "db6ac261d8187590e1e6e34bdccc08b5c202b88793d9fa12652ea802b6a6ed98",
    },
    ("rectangle", 50, 120, 1): {
        "topology/trace.ndjson": "2b4dd787d7fdb5eb97923aa3c387080bc76aae162288454e22b8647c7c3a4981",
        "topology.json": "2eb1128fb6f92e7de50832644827f54a9e0b58f39f43563de848eba421b98f50",
        "rics/messages.csv": "65cdb39ce052f41e1c95287aaabcaea46816d2fc7d0efad12f487864509c5d1c",
        "rics/summary.json": "194e8f3f95e12ce12a37f11a0e95ddf2c6363c7f36f81d9a7159918de173bb83",
        "rics/trace.ndjson": "2fe50b40799f5e7b0c3a7a0c7876db3018a93ca6229ab1ed194137e73260a1b5",
        "fxcs/messages.csv": "30b92e6bda65c19235c856cba5a04ab88e5130e473f9c52ac49a7d15d881ad8e",
        "fxcs/summary.json": "60a6932f26b67f96045b5e59ad9e7a2fa08cb14d0f3ff720003b65f307fca8f8",
        "rncs/messages.csv": "99aa7eb1c76f8f69322f0f23545e07f4393dd029fdfad9307b36e78d2610bad3",
        "rncs/summary.json": "26ab6c3bb44b45ae91185cc9398d63b581e704731b92666eeedb538e3371a292",
        "otps/messages.csv": "65cdb39ce052f41e1c95287aaabcaea46816d2fc7d0efad12f487864509c5d1c",
        "otps/summary.json": "e5d8f8e1c79950a0a1b4bd4a53b0560f1c8dcd8ec05640fbcd798dd46fcf51f2",
    },
    ("square", 100, 5, 10): {
        "topology/trace.ndjson": "f08c6f6da6fe6af7ce3b3545226067e027652f8196b8563b1ab6c0c2a2db23c1",
        "topology.json": "f67bb542f6bbc2867a6c7ad8c7ef3e17a88094079217126dc6ddbfcf5b7666ba",
        "rics/messages.csv": "1e294c96a55e83a6717a9c43b5891cbfb90b61cdf8685c084317dd8058a2e39c",
        "rics/summary.json": "041a92ea013f861299dfb1300d9e3935a7fe2ad50c2a17c9743df4352a6f8190",
        "rics/trace.ndjson": "83397150851a0dd064a4ce90347c40fc3d0d2e8d2a117ac06fd9c3e30be817b1",
        "fxcs/messages.csv": "ab8d434b935187e96ecb6f6bccab4d9cb477a2e7f05b64b2115b0ce895f3a074",
        "fxcs/summary.json": "1e2ff2a8cbc4af57190954a137054472870914ec0450c4cb6658abc1a220ca21",
        "rncs/messages.csv": "f2020e7738658a419b3fce3fa8a5ebe467837256fb2fe2d502ff2fec47d94825",
        "rncs/summary.json": "076e345aa718d2f3467ef7f3b8aa3e638a6f9301eb667c78cf08d41caa0aa576",
        "otps/messages.csv": "0ee482e2593e93dd17c3d65c26c867f38b4b0ada02b175dd1902725a56bda619",
        "otps/summary.json": "b25023d71a470aa957dacefc1b6fcf58b0fd7e00ce95baa3c9a2746a06c19260",
    },
}

# Forwarding counters that must be nonzero at a grid point, so that its
# digests cover the sender's miss, failure and full-queue paths.
EXERCISED = {
    ("square", 100, 5, 10): {
        "rics": ("failures", "stale_breaks", "forced_exits", "dropped_full"),
        "fxcs": ("forced_exits",),
    },
}


# field set of `scripts/map_gates.py` -> sha256 of its placements
PLACEMENTS = {
    "acc1": "b0168b5bc5d9cd83176f39ba13b5781035e44890ef0313d57290f9035b653638",
    "busy_relay:0-3": "fb53b6bf5cbc3eda552c1d8f6197277c32729ea2381dbfc42a5defd163b30717",
    "map_sweep:0-3": "3f07453dcfffceb08c3d246e0e5a96e94701c6c94aa2554b70163dd303142dc2",
}


def _map_gates():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "map_gates.py")
    spec = importlib.util.spec_from_file_location("map_gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fieldset", sorted(PLACEMENTS))
def test_generated_placements_match_golden_digests(fieldset):
    digest = hashlib.sha256()
    for shape, n, t, seed, _ in _map_gates().gate_fields(fieldset):
        scenario = generate_scenario(ExperimentConfig(shape=shape, n_nodes=n,
                                                      t=t, seed=seed))
        digest.update(f"{shape}-n{n}-t{t}-s{seed}\n".encode())
        for p in scenario.nodes:
            digest.update(
                f"{p.node_id} {p.x.hex()} {p.y.hex()} {p.offset}\n".encode())
    assert digest.hexdigest() == PLACEMENTS[fieldset]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _grid_param(shape, n, t, rounds):
    # the n50 and one-round points keep their original ids
    name = f"{shape}-{t}" if n == 50 else f"{shape}-n{n}-{t}"
    return pytest.param(shape, n, t, rounds,
                        id=name if rounds == 1 else f"{name}-r{rounds}")


@pytest.mark.parametrize("shape,n,t,rounds",
                         [_grid_param(*p) for p in sorted(GOLDEN)])
def test_exports_match_golden_digests(tmp_path, shape, n, t, rounds):
    config = ExperimentConfig(shape=shape, n_nodes=n, t=t, rounds=rounds,
                              seed=11)
    scenario = generate_scenario(config)
    topo_trace = EventTrace()
    topo = build_topology(scenario, trace=topo_trace)
    got = {"topology/trace.ndjson":
           hashlib.sha256(topo_trace.ndjson().encode()).hexdigest()}
    for strategy in STRATEGIES:
        cfg = ExperimentConfig(shape=shape, n_nodes=n, t=t, strategy=strategy,
                               rounds=rounds, seed=11)
        result = run_experiment(cfg, scenario=scenario, topo=topo,
                                trace=strategy == TRACED)
        for counter in EXERCISED.get((shape, n, t, rounds), {}).get(strategy, ()):
            assert getattr(result.forward, counter) > 0, (strategy, counter)
        for path in result.export(str(tmp_path)):
            name = os.path.basename(path)
            key = name if name == "topology.json" else f"{strategy}/{name}"
            digest = _sha256(path)
            # every strategy exports the one shared topology
            assert got.setdefault(key, digest) == digest, key
    assert got == GOLDEN[(shape, n, t, rounds)]


def _isolated_field():
    # node 1 hears nobody: it stays parked, silent and unreachable
    nodes = [NodePlacement(0, 8.0, 0.0, 1), NodePlacement(1, 60.0, 0.0, 2)]
    return Scenario(ChargingSpec(2), nodes, sink_xy=(0.0, 0.0), range_m=10.0,
                    seed=5)


def _dying_relay_field():
    # two hop-1 relays in front of a chain; relay 1, node 2's next hop,
    # dies at slot 60, parked in its echo
    nodes = [NodePlacement(0, 7.0, 3.0, 2), NodePlacement(1, 7.0, -3.0, 4),
             NodePlacement(2, 14.0, 0.0, 0), NodePlacement(3, 21.0, 0.0, 3)]
    return Scenario(ChargingSpec(5), nodes, sink_xy=(0.0, 0.0), range_m=9.0,
                    seed=7, deaths={1: 60})


HAND_BUILT = {
    "isolated": (_isolated_field, {
        "topology/trace.ndjson": "044f0cb0543ffebfae1ff7d0f8f27e3baa321a80c55203d1fcd3881b62f63a02",
        "topology.json": "ba223330e489b94080b516189676043ddec062984e9c115a9754aa7fae92ce49",
    }),
    "dying-relay": (_dying_relay_field, {
        "topology/trace.ndjson": "54a481322aef76d1085370e8d3e5ebbb456f29d6e3bf96c314ebee71d536e898",
        "topology.json": "67c7ace54dcc0b4bfb6e538c99f0a17ef28ef663f3775ad338b6fe5a2f704a7a",
    }),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_mapping_matches_golden_digests(tmp_path, name):
    make, want = HAND_BUILT[name]
    scenario = make()
    topo_trace = EventTrace()
    topo = build_topology(scenario, trace=topo_trace)
    config = ExperimentConfig(t=scenario.spec.charge_slots, rounds=1,
                              seed=scenario.seed)
    result = run_experiment(config, scenario=scenario, topo=topo)
    exported = {os.path.basename(p): p for p in result.export(str(tmp_path))}
    assert {
        "topology/trace.ndjson":
            hashlib.sha256(topo_trace.ndjson().encode()).hexdigest(),
        "topology.json": _sha256(exported["topology.json"]),
    } == want


def test_dying_relay_mapping_converges():
    # the engine drops the dead relay with its schedule, so mapping
    # quiesces well inside its horizon once the live nodes retire
    topo = build_topology(_dying_relay_field())
    assert topo.converged_at is not None
    assert topo.run.last_slot < 3234  # the field's `max_slots`


@pytest.mark.parametrize("deaths,delivered,last_slot", [
    # node 3, the chain's leaf, dies holding readings it never sends: the
    # delivery countdown never reaches zero, but the survivors park with
    # nothing left to send, and the run ends there
    pytest.param({3: 150}, (137, 120), {"rics": 866, "otps": 688},
                 id="leaf-dies"),
    # node 2, node 3's only next hop, dies: node 3 keeps scanning toward
    # it with readings queued, so the run still reaches the horizon
    pytest.param({2: 150}, (114, 80), {"rics": 3096, "otps": 3096},
                 id="relay-dies"),
])
def test_forwarding_with_a_death_ends_when_no_node_is_scheduled(
        deaths, delivered, last_slot):
    scenario = dataclasses.replace(_dying_relay_field(), deaths=deaths)
    topo = build_topology(scenario)
    horizon = 3096  # `run_forwarding`'s default for this field at 40 rounds
    for strategy in ("rics", "otps"):
        res = run_forwarding(scenario, topo.hops, rounds=40,
                             policies=build_policies(strategy, scenario, topo))
        assert (res.created, res.delivered) == delivered, strategy
        assert res.run.last_slot == last_slot[strategy], strategy
        assert res.run.converged == (last_slot[strategy] < horizon), strategy
