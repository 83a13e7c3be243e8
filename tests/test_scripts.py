"""The scripts the README lists, and ``python -m minmod``, run from a plain checkout."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_without_install(*argv, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_catalog_survey_runs_without_install():
    out = _run_without_install(os.path.join("scripts", "catalog_survey.py"))
    rows = [line for line in out.splitlines() if line.startswith("lemma")]
    assert len(rows) == 3 and all("Inflexible" in row for row in rows), out


def test_orientation_reversal_witness_runs_without_install():
    out = _run_without_install(os.path.join("scripts", "orientation_reversal_witness.py"))
    assert out.splitlines()[-1].endswith("orientation-reversing witness(es) re-verified"), out


def test_python_dash_m_minmod_runs_from_src():
    out = _run_without_install("-m", "minmod", "--json", "dim", "cp(n=4)",
                               cwd=os.path.join(ROOT, "src"))
    assert json.loads(out)["dimension"] == 16, out
