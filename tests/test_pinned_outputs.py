"""Pinned outputs: a change that keeps the answers keeps these bytes.

The values were recorded from the packaged scenarios, last with event
log schema 2: the `localize` record carries the cell and cluster counts,
`metrics.json` has no `localization_ms` key, and each cycle starts where
the one before it closed. A change that alters them on purpose must say
why and record the new values here.
"""

import hashlib
import json

import pytest

from berrypick.cli import apply_sweep_value, resolve_config_arg, run_one
from berrypick.config import config_hash, resolve_config

CONFIG_HASHES = {
    "paper9": "90e8c347384b64598fe7f6318c16047480240ea3fa08502c2b12e311f360b22a",
    "robustness": "a3a2e7e41fee2bfc3577b5beb1a576d2069fe1900f23e06045122705ed11f286",
    "bench": "511824b8805fc0f0b62cca9db84be4fd52afd71a0473b7baaa9e879853c879d0",
}

PAPER9_SEED1_MANIFEST = {
    "config_hash": CONFIG_HASHES["paper9"],
    "files": {
        "cycles.csv": "2ccc20bb72f2500898012207e39220072693478560bac031a84846dd9d79c65f",
        "events.jsonl": "c97ce5249f8e130ddd8089fc442a2bfe731c6635a36e9eca7fad107cd2c6a8c2",
        "metrics.json": "3b1c9d7ef099a97291cc3c98d946933a9a25d3f8d8c6c520114d17ef2f5f2f7c",
    },
    "seed": 1,
}

# `berrypick sweep --config robustness --axis offset`, point offset_5_seed1
ROBUSTNESS_OFFSET5_SEED1_MANIFEST = {
    "config_hash": "9532d1cf793d2609de3a6edbebf4c1e9616add45976331a52cc82a5cf0390ca7",
    "files": {
        "cycles.csv": "6d2af2a3af08208eb6f19d324ce999cd76232e0e7e5a2077d015057df0cce792",
        "events.jsonl": "4e74c29132224b61b064baf90080572a28c35578dd21ae371cf9b05812999626",
        "metrics.json": "7abcdcbe98721a66b7af6707634ed1e6d50a5272839a3c87ede87450b0541516",
    },
    "seed": 1,
}


# point offset_20_seed1 of the same sweep: every trap misses
ROBUSTNESS_OFFSET20_SEED1_MANIFEST = {
    "config_hash": "4abd167a3ebc48fe9e6d99dc2eacc743699f1c046957acfc6ec3019b10d9a058",
    "files": {
        "cycles.csv": "a0df31b11c15ca126a0e6e5c1d0a5a1d1ad0d0441f65c9064d76665240cdb817",
        "events.jsonl": "cde027822250711e1aa1bf0fca2a29a40caf965b48b6efa5cebf6f87918955ea",
        "metrics.json": "b059863848dfa75505e0e4701afa7e9430afea6bba53c0cf2f21e4ea4bcf69f5",
    },
    "seed": 1,
}

# `paper9` with `cut.laser_timeout: 2.0`, seed 1: every cut times out
PAPER9_TIMEOUT2_SEED1_MANIFEST = {
    "config_hash": "3a5a83f5f561756373c1d6ca297444abb5e5f37870aad8b86492d3e191b1b27f",
    "files": {
        "cycles.csv": "c67619d336fba2be3f2914669d75855d90de342a19e63aa9f5054c82960e197e",
        "events.jsonl": "2ad9e54be55e16176f1a808a8bb396ddb7c5b672eb75b3ebeca8194643ae69d9",
        "metrics.json": "868d6c8a9346b49dba042f5d562593778815236d28c84eeb83cf4fb97f9a9718",
    },
    "seed": 1,
}

# `berrypick sweep --config noise --axis noise`, point noise_0.03_seed1:
# clustering finds 27 clusters and drops 18 of them as too small
NOISE_003_SEED1_MANIFEST = {
    "config_hash": "02e286fa31ae26b88aea0198e18f0a321eaa732e60b9d0fa8ee114352eee2bfe",
    "files": {
        "cycles.csv": "1586de2d6f4a880ba8c6daa2738a3ac7ce746af1808232c6e9dcddc283110c03",
        "events.jsonl": "ae1a39ffad2f5b211257bf8875d5bc6b057d5da0ad1adede7d73d45b32f23cd2",
        "metrics.json": "615041ef0545e330ffbad284b60f68166d43f75a708f6d95828740a20b88503e",
    },
    "seed": 1,
}

# `berrypick run --config paper9 --seed 1 --dump-clouds DIR`
PAPER9_SEED1_CLOUDS = {
    "cam1.txt": "2ce43b2965a2cbad3bce3caf91c7f461bfe82ff24e4a6fd96904be10f0b8f1f1",
    "cam2.txt": "574033925e6d84d6d5aa73e09bb317bf79a9d8da5ce00855bfd2043110f574fa",
    "merged_base.txt": "c329e80b28aa23ccfd937e3b0c24b49a49eafd43092742b210145670fef549c9",
}


def _paper9_timeout2():
    cfg = resolve_config_arg("paper9")
    return resolve_config({**cfg, "cut": {**cfg["cut"], "laser_timeout": 2.0}})


def test_default_config_hash():
    assert config_hash(resolve_config({})) == "f3d7208f3a52ed90da343aad4b71368d5111426be4b3287a7509ef36c0648556"


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_packaged_config_hash(name):
    assert config_hash(resolve_config_arg(name)) == CONFIG_HASHES[name]


@pytest.mark.parametrize("cfg_point, expected, manifest_sha, clouds", [
    (lambda: resolve_config_arg("paper9"), PAPER9_SEED1_MANIFEST,
     "f1d3a66409fd57b0e527310e999a6be221710af8f048a95c8c7ce8273e4166c6", None),
    (lambda: apply_sweep_value(resolve_config_arg("robustness"), "offset", 5), ROBUSTNESS_OFFSET5_SEED1_MANIFEST,
     "b02eddc4f8317da9676d342efe77e37f8c87cfab6ec4765774be160184598eed", None),
    (lambda: apply_sweep_value(resolve_config_arg("robustness"), "offset", 20), ROBUSTNESS_OFFSET20_SEED1_MANIFEST,
     "e1d264d54c5cf5fd8b3334a9bdb3fd6177206c35a8b6b2356e7cefa68b594ccd", None),
    (_paper9_timeout2, PAPER9_TIMEOUT2_SEED1_MANIFEST,
     "415cc3d38ce0caea2edd9fb4cbe50ebd7e254c8b5b73964f1671a791cb30d5ad", None),
    (lambda: resolve_config_arg("paper9"), PAPER9_SEED1_MANIFEST,
     "f1d3a66409fd57b0e527310e999a6be221710af8f048a95c8c7ce8273e4166c6", PAPER9_SEED1_CLOUDS),
    (lambda: apply_sweep_value(resolve_config_arg("noise"), "noise", 0.03), NOISE_003_SEED1_MANIFEST,
     "c1ffd74af4b4eebc981ace1845b10166a323ef80b7370ee3ba035fae7160c597", None),
], ids=["paper9_seed1", "robustness_offset5_seed1", "robustness_offset20_seed1",
        "paper9_timeout2_seed1", "paper9_seed1_dump_clouds", "noise_003_seed1"])
def test_manifest(tmp_path, cfg_point, expected, manifest_sha, clouds):
    run_one(cfg_point(), 1, tmp_path / "run", tmp_path / "clouds" if clouds else None)
    data = (tmp_path / "run" / "manifest.json").read_bytes()
    assert json.loads(data) == expected
    assert hashlib.sha256(data).hexdigest() == manifest_sha
    if clouds:
        got = {name: hashlib.sha256((tmp_path / "clouds" / name).read_bytes()).hexdigest() for name in clouds}
        assert got == clouds
