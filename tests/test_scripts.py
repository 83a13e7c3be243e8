"""The scripts the README lists run from a plain checkout."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_catalog_survey_runs_without_install():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join("scripts", "catalog_survey.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("lemma")]
    assert len(rows) == 3 and all("Inflexible" in row for row in rows), proc.stdout
