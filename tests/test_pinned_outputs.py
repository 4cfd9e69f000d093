"""Pinned outputs: a change that keeps the answers keeps these bytes.

The values were recorded from the packaged scenarios. A change that
alters them on purpose must say why and record the new values here.
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
        "events.jsonl": "f8b398816c53354a0cebefe9cff972b7bf6be58fa7b0b41ac5cc5f15e597bfa4",
        "metrics.json": "49e67991d4485a6df8d828a2c30d4118b29408f9d0e15b3be5d9c606913ee0ff",
    },
    "seed": 1,
}

# `berrypick sweep --config robustness --axis offset`, point offset_5_seed1
ROBUSTNESS_OFFSET5_SEED1_MANIFEST = {
    "config_hash": "9532d1cf793d2609de3a6edbebf4c1e9616add45976331a52cc82a5cf0390ca7",
    "files": {
        "cycles.csv": "6d2af2a3af08208eb6f19d324ce999cd76232e0e7e5a2077d015057df0cce792",
        "events.jsonl": "847f6729ecacbc47b81519c1760c5e1facae9e28ea380b527eecd2f059232e30",
        "metrics.json": "c6281502cc4daeae8517965a487f8dc15a52c8581c642c948f556de1707c677e",
    },
    "seed": 1,
}


# point offset_20_seed1 of the same sweep: every trap misses
ROBUSTNESS_OFFSET20_SEED1_MANIFEST = {
    "config_hash": "4abd167a3ebc48fe9e6d99dc2eacc743699f1c046957acfc6ec3019b10d9a058",
    "files": {
        "cycles.csv": "2d67848d6d2c92f25c392b2681031d9390edf4768a9305552bf30f969b5de0a1",
        "events.jsonl": "d746fb0d9556b38158d914c8803e7ac433531bc2566609846cc635cfdc1cfc1e",
        "metrics.json": "6467624f6a918da7382473500f47c419868472561b3a80ffb73d78a20858db95",
    },
    "seed": 1,
}

# `paper9` with `cut.laser_timeout: 2.0`, seed 1: every cut times out
PAPER9_TIMEOUT2_SEED1_MANIFEST = {
    "config_hash": "3a5a83f5f561756373c1d6ca297444abb5e5f37870aad8b86492d3e191b1b27f",
    "files": {
        "cycles.csv": "0e65cbb28b70ced6a85fde13f44a2e177b302191cfe756aa67ce4e0ee6568307",
        "events.jsonl": "e1532dc06588a7c5f20a492411bc25e6a1a617e46971d44934a86fe3a61bcb91",
        "metrics.json": "08d9e06fe90f1b9e857d6a1b15812d6b136e7e0585e23844a6ec83cbbfc98d21",
    },
    "seed": 1,
}

# `berrypick sweep --config noise --axis noise`, point noise_0.03_seed1:
# clustering finds 27 clusters and drops 18 of them as too small
NOISE_003_SEED1_MANIFEST = {
    "config_hash": "02e286fa31ae26b88aea0198e18f0a321eaa732e60b9d0fa8ee114352eee2bfe",
    "files": {
        "cycles.csv": "1586de2d6f4a880ba8c6daa2738a3ac7ce746af1808232c6e9dcddc283110c03",
        "events.jsonl": "232143453cffe5a4d93206c7e3d8cb0d7a88030287447061c95f4f0b1c1b2198",
        "metrics.json": "5a623531d6368766fd514ba266c8d8d5f9e78a4e7e4701ca9d043848a37154d1",
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
     "0afe93966e87fcacd8e2c3b006d3eb607daf954f4dc8e68d4468af233aabd58e", None),
    (lambda: apply_sweep_value(resolve_config_arg("robustness"), "offset", 5), ROBUSTNESS_OFFSET5_SEED1_MANIFEST,
     "a94a2610ddfbf4c46b36bb21559c34bffc2723e7f4a5645ed2918c0893b5f309", None),
    (lambda: apply_sweep_value(resolve_config_arg("robustness"), "offset", 20), ROBUSTNESS_OFFSET20_SEED1_MANIFEST,
     "111e80d96d8472a8472fa14d266c16de73b42c43c00503defc711e51f646331d", None),
    (_paper9_timeout2, PAPER9_TIMEOUT2_SEED1_MANIFEST,
     "7df8ce4b5f2b94815a2b388e56569cbb74a29a42bcc700d72990175b764c608c", None),
    (lambda: resolve_config_arg("paper9"), PAPER9_SEED1_MANIFEST,
     "0afe93966e87fcacd8e2c3b006d3eb607daf954f4dc8e68d4468af233aabd58e", PAPER9_SEED1_CLOUDS),
    (lambda: apply_sweep_value(resolve_config_arg("noise"), "noise", 0.03), NOISE_003_SEED1_MANIFEST,
     "0d0074c5fe6d7f470acca83ff6eb1f6eb04acd624b29c5b85050cfdc1d0659c4", None),
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
