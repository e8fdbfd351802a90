"""The mutant register: each entry of ``mutants.json`` breaks one guarded fact
in a copy of ``src/``, and the tests it names as killers must fail there.

An entry is (id, path, old text that occurs exactly once in that file, new
text, killing test ids).  The killers run in a subprocess whose PYTHONPATH is
the copy.  Exit code 1 means tests ran and failed; a collection or usage
error (exit 2 to 5) does not count as a kill.  The real tree is never edited.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_register_is_well_formed():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m["killers"] and m["old"] != m["new"]
        assert (ROOT / m["path"]).read_text().count(m["old"]) == 1, m["id"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_killers_fail_on_the_mutant(mutant, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = tmp_path / mutant["path"]
    text = target.read_text()
    assert text.count(mutant["old"]) == 1
    target.write_text(text.replace(mutant["old"], mutant["new"]))
    env = {**os.environ, "PYTHONPATH": str(src)}
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["killers"]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    # only an import from the copy compiles the mutated module into its cache
    assert list((target.parent / "__pycache__").glob(f"{target.stem}.*.pyc"))
