"""The scripts the README lists run from a plain checkout."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_without_install(script):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join("scripts", script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_catalog_survey_runs_without_install():
    out = _run_without_install("catalog_survey.py")
    rows = [line for line in out.splitlines() if line.startswith("lemma")]
    assert len(rows) == 3 and all("Inflexible" in row for row in rows), out


def test_orientation_reversal_witness_runs_without_install():
    out = _run_without_install("orientation_reversal_witness.py")
    assert out.splitlines()[-1].endswith("orientation-reversing witness(es) re-verified"), out
