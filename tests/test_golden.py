"""Golden ``--json`` reports: every ``ALL_KEYS`` entry under six commands.

``tests/golden/reports.json`` maps each argv (joined with spaces) to the
exit code and the exact stdout of ``cli.main``.  It was written by running
this file as a script, ``PYTHONPATH=src python tests/test_golden.py``,
before the arithmetic kernels behind these commands were rewritten, so a
byte difference here is a change of behaviour.  Every check, volume,
spectrum and flex report in it must also replay.  Regenerate it only for a
change whose report differences are intended and explained.
"""

import contextlib
import io
import json
from pathlib import Path

from conftest import ALL_KEYS
from minmod import cli
from minmod.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
COMMANDS = ("check", "dim", "volume", "spectrum", "flex", "betti")


def _spec(key, params) -> str:
    if not params:
        return key
    return f"{key}({','.join(f'{k}={v}' for k, v in params.items())})"


def _argvs():
    return [["--json", command, _spec(key, params)]
            for key, params in ALL_KEYS for command in COMMANDS]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _record() -> dict:
    return {" ".join(argv): _run(argv) for argv in _argvs()}


def test_golden_reports_are_byte_identical():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(" ".join(a) for a in _argvs())
    for argv in _argvs():
        assert _run(argv) == golden[" ".join(argv)], argv


def test_golden_reports_replay(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report = tmp_path / "report.json"
    for argv in _argvs():
        if argv[1] not in ("check", "volume", "spectrum", "flex"):
            continue
        report.write_text(golden[" ".join(argv)]["stdout"], encoding="utf-8")
        result = _run(["replay", str(report)])
        assert result["code"] == 0, argv
        checked = ("witnesses, spectrum and flexible verify; classification and complete"
                   " are not replayed" if argv[1] == "spectrum" else "all certificates verify")
        assert result["stdout"] == f"replayed {argv[1]}: {checked}\n", argv


def test_golden_dim_and_betti_reports_replay(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report = tmp_path / "report.json"
    for argv in _argvs():
        if argv[1] in ("dim", "betti"):
            report.write_text(golden[" ".join(argv)]["stdout"], encoding="utf-8")
            result = _run(["replay", str(report)])
            replayed = f"replayed {argv[1]}: all certificates verify\n"
            assert result == {"code": 0, "stdout": replayed}, argv


def test_replay_searches_for_a_certificate_only_for_a_not_elliptic_check(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    source = tmp_path / "free.alg"
    source.write_text("gen x : 2\ngen y : 3\n")
    undecided = _run(["--json", "check", str(source)])
    assert undecided["code"] == cli.INCONCLUSIVE
    searched = []
    search = cli.ellipticity_certificate
    monkeypatch.setattr(cli, "ellipticity_certificate",
                        lambda alg: searched.append(alg.name) or search(alg))
    report = tmp_path / "report.json"
    for argv in _argvs():
        report.write_text(golden[" ".join(argv)]["stdout"], encoding="utf-8")
        assert _run(["replay", str(report)])["code"] == cli.PASS, argv
    report.write_text(undecided["stdout"], encoding="utf-8")
    assert _run(["replay", str(report)])["code"] == cli.PASS
    assert searched == [str(source)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
