"""The scripts the README lists, and ``python -m minmod``, run from a plain checkout.

Fresh processes also show that sympy is loaded only by the case solver.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _spawn_without_install(*argv, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def _run_without_install(*argv, cwd=ROOT):
    proc = _spawn_without_install(*argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_catalog_survey_runs_without_install():
    out = _run_without_install(os.path.join("scripts", "catalog_survey.py"))
    rows = [line for line in out.splitlines() if line.startswith("lemma")]
    assert len(rows) == 3 and all("Inflexible" in row for row in rows), out


def test_orientation_reversal_witness_runs_without_install():
    out = _run_without_install(os.path.join("scripts", "orientation_reversal_witness.py"))
    assert out.splitlines()[-1].endswith("orientation-reversing witness(es) re-verified"), out


@pytest.mark.parametrize("params,err", [
    (["l=oops"], "catalog parameter l must be an integer\n"),
    (["oops"], "bad catalog parameter 'oops'\n"),
], ids=["not-an-integer", "no-value"])
def test_orientation_reversal_witness_reads_parameters_as_the_cli_does(params, err):
    script = os.path.join("scripts", "orientation_reversal_witness.py")
    proc = _spawn_without_install(script, "chiral2", *params)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)
    proc = _spawn_without_install("-m", "minmod", "catalog", "chiral2",
                                  *(f"--param={p}" for p in params), cwd=SRC)
    assert (proc.returncode, proc.stderr) == (3, err)


def test_orientation_reversal_witness_fails_as_the_cli_does_without_a_volume_form():
    script = os.path.join("scripts", "orientation_reversal_witness.py")
    proc = _spawn_without_install(script, "chain-fibered")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "the presentation declares no volume form\n")


def test_python_dash_m_minmod_runs_from_src():
    out = _run_without_install("-m", "minmod", "--json", "dim", "cp(n=4)",
                               cwd=SRC)
    assert json.loads(out)["dimension"] == 16, out


IMPORT_GUARD = """
import contextlib, io, json, sys
from minmod import cli
loaded = {"import": "sympy" in sys.modules}
codes = {}
for command, spec in [("check", "cp(n=4)"), ("volume", "cp(n=4)"), ("flex", "cp(n=4)"),
                      ("betti", "cp(n=4)"), ("spectrum", "lemma(i=0)")]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[command] = cli.main(["--json", command, spec])
    loaded[command] = "sympy" in sys.modules
print(json.dumps([codes, loaded]))
"""


def test_sympy_is_loaded_only_by_a_spectrum_that_splits_cases():
    codes, loaded = json.loads(_run_without_install("-c", IMPORT_GUARD, cwd=SRC))
    assert codes == dict.fromkeys(("check", "volume", "flex", "betti", "spectrum"), 0)
    assert loaded == {"import": False, "check": False, "volume": False, "flex": False,
                      "betti": False, "spectrum": True}


FIRST_SYMPY_USER = """
import sys
from fractions import Fraction
from minmod import endo
from minmod.poly import MPoly
k1, k2 = MPoly.var("k1"), MPoly.var("k2")


def ring(*args):
    from sympy.polys.rings import PolyRing
    return PolyRing(*args)


before = "sympy" in sys.modules
print(repr({expr}))
print(before, "sympy" in sys.modules)
"""


@pytest.mark.parametrize("expr,want", [
    ("sorted(str(f) for f in endo.factor_constraint(k1**2 - k2**2))", "['k1 + k2', 'k1 - k2']"),
    ("str(endo.reduce_modulo(k1**2*k2, [k1 - 2]))", "'4*k2'"),
    ("str(endo._from_ring(endo._to_ring("
     "Fraction(3, 2)*k1**2*k2 - k2 + 5, ring(['k2', 'k1'], 'QQ', 'lex'))))",
     "'5 + 3/2*k1^2*k2 - k2'"),
    ("endo.solve_monomial_system([endo.MonomialEquation(((\"a\", 3),), Fraction(-8))])",
     "({'a': -2},)"),
], ids=["factor_constraint", "reduce_modulo", "round_trip", "solve_monomial_system"])
def test_case_solver_loads_sympy_on_first_use(expr, want):
    out = _run_without_install("-c", FIRST_SYMPY_USER.format(expr=expr), cwd=SRC)
    assert out.splitlines() == [want, "False True"], out
