"""Every script in scripts/ starts and prints its usage, so that a change to
the package API that breaks a script fails the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS                              # an empty glob would skip the check below


def _run(script: Path, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_script_help(script):
    done = _run(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_artifact_digests_repeat(tmp_path):
    # two runs of the same code hash every artifact alike
    script = ROOT / "scripts" / "artifact_digests.py"
    runs = [_run(script, tmp_path / str(i), "positivity", "newton-recovery") for i in range(2)]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    names = [line.split()[0] for line in runs[0].stdout.splitlines()]
    assert "positivity/certificate.json" in names and "newton-recovery/report.json" in names
    assert all(len(line.split()[1]) == 64 for line in runs[0].stdout.splitlines())
