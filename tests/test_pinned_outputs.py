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


def test_default_config_hash():
    assert config_hash(resolve_config({})) == "f3d7208f3a52ed90da343aad4b71368d5111426be4b3287a7509ef36c0648556"


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_packaged_config_hash(name):
    assert config_hash(resolve_config_arg(name)) == CONFIG_HASHES[name]


@pytest.mark.parametrize("cfg_point, expected, manifest_sha", [
    (lambda: resolve_config_arg("paper9"), PAPER9_SEED1_MANIFEST,
     "0afe93966e87fcacd8e2c3b006d3eb607daf954f4dc8e68d4468af233aabd58e"),
    (lambda: apply_sweep_value(resolve_config_arg("robustness"), "offset", 5), ROBUSTNESS_OFFSET5_SEED1_MANIFEST,
     "a94a2610ddfbf4c46b36bb21559c34bffc2723e7f4a5645ed2918c0893b5f309"),
], ids=["paper9_seed1", "robustness_offset5_seed1"])
def test_manifest(tmp_path, cfg_point, expected, manifest_sha):
    run_one(cfg_point(), 1, tmp_path)
    data = (tmp_path / "manifest.json").read_bytes()
    assert json.loads(data) == expected
    assert hashlib.sha256(data).hexdigest() == manifest_sha
