"""The recorded mutants of `mutants.py` still fit the code: each snippet
occurs exactly once in its file, and each test named to kill it exists.
Whether each mutant is killed is checked by `python tests/mutants.py`,
which runs their tests and is too slow for tier-1."""

import os
import subprocess
import sys

from mutants import MUTANTS, PACKAGE, ROOT


def test_each_snippet_occurs_once():
    for mutant in MUTANTS:
        text = (PACKAGE / mutant.file).read_text()
        assert text.count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet and mutant.tests, mutant.name


def test_each_named_test_exists():
    ids = sorted({test for mutant in MUTANTS for test in mutant.tests})
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids]
    r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stdout + r.stderr
    collected = {line.split("[")[0] for line in r.stdout.splitlines() if "::" in line}
    assert collected == set(ids)
