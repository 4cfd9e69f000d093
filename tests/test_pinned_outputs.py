"""Pinned outputs: a change that keeps the answers keeps these bytes.

The values were recorded from the packaged scenarios, last with event
log schema 3: the `localize` record carries the cell and cluster counts,
with `n_cell_pairs` the candidate cell pairs (occupied cells at most two
apart on every axis), `metrics.json` has no `localization_ms` key, and
each cycle starts where the one before it closed. A change that alters
them on purpose must say why and record the new values here.
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
        "events.jsonl": "9d54f300cdf4382b6a002e9ab40c5f44bb7eaf151a608342b596c51856b16b43",
        "metrics.json": "3b1c9d7ef099a97291cc3c98d946933a9a25d3f8d8c6c520114d17ef2f5f2f7c",
    },
    "seed": 1,
}

# `berrypick sweep --config robustness --axis offset`, point offset_5_seed1
ROBUSTNESS_OFFSET5_SEED1_MANIFEST = {
    "config_hash": "9532d1cf793d2609de3a6edbebf4c1e9616add45976331a52cc82a5cf0390ca7",
    "files": {
        "cycles.csv": "6d2af2a3af08208eb6f19d324ce999cd76232e0e7e5a2077d015057df0cce792",
        "events.jsonl": "e6cd239a36a0375fd21dcf9b336205ea69e70df25a5c90de7e0ed10963a4587a",
        "metrics.json": "7abcdcbe98721a66b7af6707634ed1e6d50a5272839a3c87ede87450b0541516",
    },
    "seed": 1,
}


# point offset_20_seed1 of the same sweep: every trap misses
ROBUSTNESS_OFFSET20_SEED1_MANIFEST = {
    "config_hash": "4abd167a3ebc48fe9e6d99dc2eacc743699f1c046957acfc6ec3019b10d9a058",
    "files": {
        "cycles.csv": "a0df31b11c15ca126a0e6e5c1d0a5a1d1ad0d0441f65c9064d76665240cdb817",
        "events.jsonl": "8650fa6372b9cd21e296756b47cd713b87560c487abe2f955be63f787c026bd1",
        "metrics.json": "b059863848dfa75505e0e4701afa7e9430afea6bba53c0cf2f21e4ea4bcf69f5",
    },
    "seed": 1,
}

# `paper9` with `cut.laser_timeout: 2.0`, seed 1: every cut times out
PAPER9_TIMEOUT2_SEED1_MANIFEST = {
    "config_hash": "3a5a83f5f561756373c1d6ca297444abb5e5f37870aad8b86492d3e191b1b27f",
    "files": {
        "cycles.csv": "c67619d336fba2be3f2914669d75855d90de342a19e63aa9f5054c82960e197e",
        "events.jsonl": "19c3d8343f0a6215bc4db022bd7bd3791a99a78b147c7283da5040a2b407fce6",
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
        "events.jsonl": "3c6a9874bcd93a6201df7d0f564e89ddd52a7ad9dea12c5e2ff12d091048dd86",
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
     "95c474801efc2c25469e07ce65bf922013ba7fc704783b3d5f5814aca1dd6d91", None),
    (lambda: apply_sweep_value(resolve_config_arg("robustness"), "offset", 5), ROBUSTNESS_OFFSET5_SEED1_MANIFEST,
     "ebc1f36ec26ccec3af5cc5b32c9a14867ae537277df0f4d5160701525ee847e7", None),
    (lambda: apply_sweep_value(resolve_config_arg("robustness"), "offset", 20), ROBUSTNESS_OFFSET20_SEED1_MANIFEST,
     "e07c06e1587c00cebd841564ebff193c753cd27cb99287ec57b2dbe9f4cddb80", None),
    (_paper9_timeout2, PAPER9_TIMEOUT2_SEED1_MANIFEST,
     "6390672bc05358e4bf09284c4007f61bbeefccdd138671a4f03526ef1894aec5", None),
    (lambda: resolve_config_arg("paper9"), PAPER9_SEED1_MANIFEST,
     "95c474801efc2c25469e07ce65bf922013ba7fc704783b3d5f5814aca1dd6d91", PAPER9_SEED1_CLOUDS),
    (lambda: apply_sweep_value(resolve_config_arg("noise"), "noise", 0.03), NOISE_003_SEED1_MANIFEST,
     "c57e418b4f71302497990cc5f5df2c28230e1f31900374b9324719cfb1dc64fd", None),
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
