"""Exit codes, report schema, and replay round-trips for the CLI."""

import json
import re
import sys
from importlib import resources

import jsonschema
import pytest

from minmod import cli
from minmod.cli import FAIL, INCONCLUSIVE, PASS, USAGE, main, validate_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    doc = json.loads(out)
    validate_report(doc)
    return code, doc


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == PASS
    assert "lemma" in out and "chiral3" in out


def test_catalog_entry_prints_presentation(capsys):
    code, out, _ = run(capsys, "catalog", "cp", "--param", "n=4")
    assert code == PASS
    assert "gen x : 2" in out and "d y = x^9" in out


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "lemma(i=0)")
    assert code == PASS
    assert "d^2 = 0: pass" in out and "x1^19 exact" in out


def test_check_inconclusive_on_non_elliptic(capsys, tmp_path):
    p = tmp_path / "free.alg"
    p.write_text("gen x : 2\n")
    code, out, _ = run(capsys, "check", str(p))
    assert code == INCONCLUSIVE
    assert "inconclusive" in out


NOT_ELLIPTIC = "gen x : 2\ngen y : 3\nvolume x*y\n"
# d w = x*a, so no power of w is a cocycle and the search for an exact one cannot apply
NOT_CLOSED = "gen x : 2\ngen y : 3\ngen a : 3\ngen w : 4\nd y = x^2\nd w = x*a\nvolume a\n"


def _inconclusive_for_every_command(capsys, tmp_path, source, generator, reason, replayed):
    alg = tmp_path / "source.alg"
    alg.write_text(source)
    identity = tmp_path / "identity.mor"
    identity.write_text("".join(f"f {g} = {g}\n" for g in re.findall(r"^gen (\w+)", source, re.M)))
    code, out, err = run(capsys, "check", str(alg))
    assert code == INCONCLUSIVE and not err
    assert f"ellipticity: inconclusive at {generator} ({reason})" in out.splitlines()
    inconclusive = (INCONCLUSIVE, "", f"ellipticity inconclusive at {generator}\n")
    for argv in (("dim",), ("volume",), ("spectrum",), ("flex",), ("verify", str(identity))):
        assert run(capsys, argv[0], str(alg), *argv[1:]) == inconclusive, argv
    # replay does not search: it stops at the carried cp(n=2) certificate,
    # which fails for this source
    for command in ("dim", "spectrum"):
        assert _replay_tampered(capsys, tmp_path, (command, "cp(n=2)"),
                                lambda doc: doc["algebra"].update(source=source)) == (
            FAIL, f"replay FAIL: {replayed}\n", "")


def test_inconclusive_ellipticity_is_inconclusive_for_every_command(capsys, tmp_path):
    _inconclusive_for_every_command(capsys, tmp_path, NOT_ELLIPTIC, "x", "bound 3",
                                    "ellipticity witnesses do not verify")


def test_non_closed_even_generator_is_inconclusive_for_every_command(capsys, tmp_path):
    _inconclusive_for_every_command(capsys, tmp_path, NOT_CLOSED, "w", "not closed",
                                    "ellipticity witnesses for ['x'], expected ['w', 'x']")


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "lemma(i=0)")
    assert code == PASS and out.strip() == "231"


def test_betti(capsys):
    code, out, _ = run(capsys, "betti", "sphere(k=6)", "--max-degree", "6")
    assert code == PASS
    assert "b_0 = 1" in out and "b_6 = 1" in out


def test_betti_lists_b0_when_the_dimension_formula_is_negative(capsys, tmp_path):
    p = tmp_path / "x4.alg"
    p.write_text("gen x : 4\n")  # dimension formula 4 - 7 = -3
    assert run(capsys, "betti", str(p)) == (PASS, "b_0 = 1\n", "")
    code, doc = run_json(capsys, "betti", str(p))
    assert (code, doc["max_degree"], doc["betti"]) == (PASS, 0, [1])
    # a negative range is as invalid in a report as on the command line
    code, out, err = _replay_tampered(capsys, tmp_path, ("betti", str(p)),
                                      lambda doc: doc.update(max_degree=-3))
    assert (code, out, err) == (USAGE, "", "invalid report: -3 is less than the minimum of 0\n")


def test_exact_pass_and_fail(capsys):
    code, out, _ = run(capsys, "exact", "lemma(i=0)", "x1^19")
    assert code == PASS and "exact: True" in out
    code, out, _ = run(capsys, "exact", "lemma(i=0)", "y1")
    assert code == FAIL and "closed: False" in out


def test_exact_on_a_non_homogeneous_expression_is_bad_input(capsys):
    assert run(capsys, "exact", "cp(n=2)", "x + x^2") == (
        USAGE, "", "expression 'x + x^2' is not homogeneous: degrees [2, 4]\n")


def test_replay_of_an_exact_report_with_a_non_homogeneous_expression_is_invalid(capsys,
                                                                                tmp_path):
    assert _replay_tampered(capsys, tmp_path, ("exact", "cp(n=2)", "x^2"),
                            lambda doc: doc.update(expression="x + x^2")) == (
        USAGE, "", "invalid report: expression 'x + x^2' is not homogeneous: degrees [2, 4]\n")


def test_volume_pass(capsys):
    code, doc = run_json(capsys, "volume", "chiral3(l=5)")
    assert code == PASS and doc["verdict"] == "pass"
    assert doc["degree"] == 47 and doc["functional"]


def test_volume_rejection(capsys, tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("gen x : 2\ngen y : 5\nd y = x^3\nvolume x^3\n")  # exact, wrong degree
    code, out, _ = run(capsys, "volume", str(p))
    assert code == FAIL and "rejected" in out


def test_spectrum_text_and_json(capsys):
    code, out, _ = run(capsys, "spectrum", "chiral3(l=5)")
    assert code == PASS and "NoOrientationReversal" in out
    code, doc = run_json(capsys, "spectrum", "chiral3(l=5)")
    assert code == PASS
    assert doc["classification"] == "NoOrientationReversal"
    assert doc["families"] == ["t^24"] and doc["complete"]
    assert doc["witnesses"]


def test_spectrum_case_depth_inconclusive(capsys):
    code, out, _ = run(capsys, "spectrum", "lemma(i=0)", "--case-depth", "0")
    assert code == INCONCLUSIVE


def test_spectrum_text_names_why_it_is_incomplete(capsys):
    code, out, _ = run(capsys, "spectrum", "lemma(i=0)", "--case-depth", "1")
    assert code == INCONCLUSIVE
    assert out.splitlines()[-1] == \
        "first unresolved case: k6 = 0, k34 = 0, k1 != 0 -- case depth exceeded"
    code, doc = run_json(capsys, "spectrum", "lemma(i=0)", "--case-depth", "1")
    assert code == INCONCLUSIVE and not doc["complete"]
    assert "first unresolved case" not in json.dumps(doc)
    code, out, _ = run(capsys, "spectrum", "lemma(i=0)")
    assert code == PASS and "unresolved" not in out


def test_flex_pass(capsys):
    code, doc = run_json(capsys, "flex", "lower-grading")
    assert code == PASS
    assert doc["scaling"]["exponent"] == 21
    assert [m["k"] for m in doc["multiples"]] == [2, 3]


def test_flex_inconclusive_without_condition(capsys):
    code, out, _ = run(capsys, "flex", "lemma(i=0)")
    assert code == INCONCLUSIVE and "no scaling certificate" in out


def test_verify_morphism(capsys, tmp_path):
    p = tmp_path / "f.mor"
    p.write_text("f x = 2*x\nf y = 512*y\n")
    code, out, _ = run(capsys, "verify", "cp(n=4)", str(p))
    assert code == PASS and "degree: 256" in out
    p.write_text("f x = 2*x\nf y = y\n")
    code, out, _ = run(capsys, "verify", "cp(n=4)", str(p))
    assert code == FAIL and "fails at y" in out


def test_verify_without_a_volume_form_states_no_degree_and_replays(capsys, tmp_path):
    alg = tmp_path / "s2.alg"
    alg.write_text("gen x : 2\ngen y : 3\nd y = x^2\n")
    mor = tmp_path / "f.mor"
    mor.write_text("f x = 2*x\nf y = 4*y\n")
    argv = ("verify", str(alg), str(mor))
    assert run(capsys, *argv) == (PASS, "valid morphism\n", "")
    code, doc = run_json(capsys, *argv)
    assert (code, doc["valid"], doc["degree"]) == (PASS, True, None)
    assert _replay_tampered(capsys, tmp_path, argv, lambda doc: None) == (
        PASS, "replayed verify: all certificates verify\n", "")
    assert _replay_tampered(capsys, tmp_path, argv, lambda doc: doc.update(degree="4")) == (
        FAIL, "replay FAIL: degree is None, the report says 4\n", "")


def test_replay_reads_a_verify_degree_as_a_rational(capsys, tmp_path):
    mor = tmp_path / "f.mor"
    mor.write_text("f x = 2*x\nf y = 512*y\n")
    assert _replay_tampered(capsys, tmp_path, ("verify", "cp(n=4)", str(mor)),
                            lambda doc: doc.update(degree="512/2")) == (
        PASS, "replayed verify: all certificates verify\n", "")


@pytest.mark.parametrize("argv", [
    ("check", "lemma(i=0)"),
    ("dim", "chiral3(l=5)"),
    ("betti", "sphere(k=6)", "--max-degree", "6"),
    ("exact", "lemma(i=0)", "x1^19"),
    ("volume", "chiral3(l=5)"),
    # no even generator, so its certificate is an empty list
    ("volume", "lower-grading"),
    ("spectrum", "chiral3(l=5)"),
    ("flex", "lower-grading"),
])
def test_replay_round_trip(capsys, tmp_path, argv):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == PASS
    p = tmp_path / "report.json"
    p.write_text(out)
    code, out, _ = run(capsys, "replay", str(p))
    assert code == PASS and out == f"replayed {argv[0]}: {_replayed(argv[0])}\n"


def _replayed(command):
    """What a successful replay says it checked."""
    if command == "spectrum":
        return ("witnesses, spectrum and flexible verify; "
                "classification and complete are not replayed")
    return "all certificates verify"


def test_replay_verify_round_trip(capsys, tmp_path):
    mor = tmp_path / "f.mor"
    mor.write_text("f x = 2*x\nf y = 512*y\n")
    code, out, _ = run(capsys, "--json", "verify", "cp(n=4)", str(mor))
    assert code == PASS
    p = tmp_path / "report.json"
    p.write_text(out)
    code, out, _ = run(capsys, "replay", str(p))
    assert code == PASS


def test_replay_detects_tampering(capsys, tmp_path):
    code, out, _ = run(capsys, "--json", "check", "lemma(i=0)")
    doc = json.loads(out)
    doc["certificates"]["ellipticity"][0]["exponent"] += 1
    p = tmp_path / "report.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "replay", str(p))
    assert code == FAIL and "replay FAIL" in out


def _replay_tampered(capsys, tmp_path, argv, tamper, emitted=PASS):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == emitted
    doc = json.loads(out)
    tamper(doc)
    p = tmp_path / "report.json"
    p.write_text(json.dumps(doc))
    return run(capsys, "replay", str(p))


def _empty_witnesses(doc):
    doc["certificates"]["ellipticity"] = []


def _empty_witnesses_and_false_checks(doc):
    _empty_witnesses(doc)
    doc["checks"].update(d_squared=False, minimal=False)


def _not_elliptic(doc):
    _empty_witnesses(doc)
    doc["checks"].update(elliptic=False)
    doc.update(verdict="inconclusive")


@pytest.mark.parametrize("tamper,reasons", [
    (_empty_witnesses, ["ellipticity witnesses for [], expected ['x']"]),
    (_empty_witnesses_and_false_checks, ["d_squared is True, the report says False",
                                         "minimal is True, the report says False",
                                         "ellipticity witnesses for [], expected ['x']",
                                         "the report's fields give verdict fail, it says pass"]),
    (_not_elliptic, ["elliptic is True, the report says False"]),
], ids=["no-witnesses", "false-checks", "not-elliptic"])
def test_replay_check_recomputes_the_checks_and_needs_every_witness(capsys, tmp_path,
                                                                     tamper, reasons):
    code, out, _ = _replay_tampered(capsys, tmp_path, ("check", "cp(n=2)"), tamper)
    assert code == FAIL
    assert out.splitlines() == [f"replay FAIL: {r}" for r in reasons]


@pytest.mark.parametrize("tamper,reason", [
    (lambda doc, other: doc["certificates"]["ellipticity"].pop(),
     "ellipticity witnesses for [], expected ['x']"),
    (lambda doc, other: doc["certificates"]["ellipticity"][0].update(exponent=10),
     "ellipticity witnesses do not verify"),
    (lambda doc, other: doc.update(certificates=other), "ellipticity witnesses do not verify"),
], ids=["generator-dropped", "exponent-raised", "another-algebras-witness"])
@pytest.mark.parametrize("argv", [
    ("check", "cp(n=4)"),
    ("dim", "cp(n=4)"),
    ("volume", "cp(n=4)"),
    ("spectrum", "cp(n=4)"),
    ("flex", "cp(n=4)"),
    ("verify", "cp(n=4)", "{morphism}"),
], ids=lambda argv: argv[0])
def test_replay_verifies_the_carried_ellipticity_certificate(capsys, tmp_path, argv, tamper,
                                                              reason):
    morphism = tmp_path / "f.mor"
    morphism.write_text("f x = 2*x\nf y = 512*y\n")
    argv = [a.format(morphism=morphism) for a in argv]
    # another algebra's certificate for the same generator: d y = x^3 in cp(n=2)
    other = run_json(capsys, "check", "cp(n=2)")[1]["certificates"]
    code, doc = run_json(capsys, *argv)
    assert (code, doc["certificates"]) == (
        PASS, {"ellipticity": [{"generator": "x", "exponent": 9, "witness": "y"}]})
    assert _replay_tampered(capsys, tmp_path, argv, lambda doc: tamper(doc, other)) == (
        FAIL, f"replay FAIL: {reason}\n", "")


def test_replay_of_an_undecided_check_searches_again(capsys, tmp_path):
    alg = tmp_path / "source.alg"
    alg.write_text(NOT_ELLIPTIC)
    assert _replay_tampered(capsys, tmp_path, ("check", str(alg)), lambda doc: None,
                            emitted=INCONCLUSIVE) == (PASS, "replayed check: all certificates verify\n", "")


@pytest.mark.parametrize("argv", [
    ("catalog",),
    ("check", "cp(n=2)"),
    ("dim", "cp(n=2)"),
    ("betti", "cp(n=2)"),
    ("exact", "cp(n=2)", "x"),
    ("volume", "cp(n=2)"),
    ("spectrum", "lemma(i=0)", "--case-depth", "0"),
    ("flex", "lower-grading"),
    ("verify", "cp(n=2)", "{morphism}"),
], ids=lambda argv: argv[0])
def test_replay_rederives_the_verdict(capsys, tmp_path, argv):
    morphism = tmp_path / "f.mor"
    morphism.write_text("f x = 2*x\nf y = y\n")
    argv = [a.format(morphism=morphism) for a in argv]
    emitted_code, out, _ = run(capsys, "--json", *argv)
    emitted = json.loads(out)["verdict"]
    assert emitted_code == {"pass": PASS, "fail": FAIL, "inconclusive": INCONCLUSIVE}[emitted]
    for verdict in sorted({"pass", "fail", "inconclusive"} - {emitted}):
        code, out, _ = _replay_tampered(capsys, tmp_path, argv,
                                        lambda doc: doc.update(verdict=verdict),
                                        emitted=emitted_code)
        assert code == FAIL
        assert out == f"replay FAIL: the report's fields give verdict {emitted}, it says {verdict}\n"


def _without_volume(doc, line):
    doc["algebra"]["source"] = re.sub(r"^volume .*\n", line, doc["algebra"]["source"],
                                      flags=re.M)


def _made_up_degrees(doc):
    for w in doc.get("witnesses", ()):
        w["degree"] = "12345"
    if "scaling" in doc:
        doc["scaling"].update(degree="8", exponent=3)
        for m in doc["multiples"]:
            m["degree"] = "5"


@pytest.mark.parametrize("argv,line,err", [
    (("spectrum", "chiral3(l=5)"), "volume x1\n",
     "volume rejected: degree 2 != formal dimension 47\n"),
    (("spectrum", "chiral3(l=5)"), "", "the presentation declares no volume form\n"),
    (("flex", "lower-grading"), "volume a\n",
     "volume rejected: degree 3 != formal dimension 18\n"),
    (("flex", "lower-grading"), "", "the presentation declares no volume form\n"),
], ids=["spectrum-broken", "spectrum-missing", "flex-broken", "flex-missing"])
def test_replay_reads_degrees_through_the_verified_volume(capsys, tmp_path, argv, line, err):
    def tamper(doc):
        _without_volume(doc, line)
        _made_up_degrees(doc)

    assert _replay_tampered(capsys, tmp_path, argv, tamper) == (FAIL, "", err)


@pytest.mark.parametrize("argv,tamper,reasons", [
    (("exact", "cp(n=2)", "x^5"), lambda doc: doc.update(witness=None),
     ["exact is True, but the report gives no witness"]),
    (("exact", "cp(n=2)", "x^5"), lambda doc: doc.update(exact=False),
     ["exact is False, but the report gives a witness"]),
    (("exact", "cp(n=2)", "x^5"), lambda doc: doc.update(exact=False, witness=None),
     ["exact is True, the report says False"]),
    (("exact", "cp(n=2)", "x^5"), lambda doc: doc.update(witness="2*y"),
     ["exactness witness does not verify"]),
    (("exact", "cp(n=2)", "y"), lambda doc: doc.update(exact=True, witness="x"),
     ["the report gives an exactness witness for an element that is not closed"]),
    (("exact", "cp(n=2)", "x^5"), lambda doc: doc.update(closed=False, verdict="fail"),
     ["closed is True, the report says False"]),
    (("verify", "cp(n=2)", "{morphism}"),
     lambda doc: doc.update(valid=False, failing="y", degree=None, verdict="fail"),
     ["valid is True, the report says False", "failing is None, the report says y",
      "degree is 16, the report says None"]),
    (("volume", "cp(n=2)"), lambda doc: doc.update(rejected="not closed", verdict="fail"),
     ["volume form verifies, the report says rejected for 'not closed'"]),
    (("spectrum", "cp(n=2)"), lambda doc: doc["witnesses"][0].update(morphism=["f x = 2*x",
                                                                               "f y = 16*y"]),
     ["morphism (t = 2) fails at y"]),
], ids=["exact-without-witness", "not-exact-with-witness", "not-exact-but-exact",
        "wrong-witness", "witness-for-non-closed", "closed-but-not-closed",
        "verify-claims-invalid", "volume-claims-rejected", "spectrum-witness-not-a-morphism"])
def test_replay_checks_exact_and_verify_claims_against_their_evidence(capsys, tmp_path, argv,
                                                                      tamper, reasons):
    morphism = tmp_path / "f.mor"
    morphism.write_text("f x = 2*x\nf y = 32*y\n")
    argv = [a.format(morphism=morphism) for a in argv]
    emitted = FAIL if argv[-1] == "y" else PASS
    code, out, _ = _replay_tampered(capsys, tmp_path, argv, tamper, emitted=emitted)
    assert code == FAIL
    assert out.splitlines() == [f"replay FAIL: {r}" for r in reasons]


def test_replay_rejected_volume_reruns_the_volume_check(capsys, tmp_path):
    alg = tmp_path / "s2.alg"
    alg.write_text("gen x : 2\ngen y : 3\nd y = x^2\nvolume x^2\n")
    code, out, _ = _replay_tampered(capsys, tmp_path, ("volume", str(alg)), lambda doc: None,
                                    emitted=FAIL)
    assert code == PASS and out == "replayed volume: all certificates verify\n"
    code, out, _ = _replay_tampered(capsys, tmp_path, ("volume", str(alg)),
                                    lambda doc: doc.update(rejected="too small"), emitted=FAIL)
    assert code == FAIL
    assert out == ("replay FAIL: volume rejected for 'degree 4 != formal dimension 2', "
                   "the report says 'too small'\n")


def test_an_exact_volume_is_rejected_and_replay_rederives_the_rejection(capsys, tmp_path):
    alg = tmp_path / "s2xs2.alg"
    alg.write_text("gen x : 2\ngen z : 2\ngen y : 3\ngen w : 3\nd y = x^2\nd w = z^2\n"
                   "volume x^2\n")
    assert run(capsys, "volume", str(alg)) == (FAIL, "rejected: exact\n", "")
    argv = ("volume", str(alg))
    assert _replay_tampered(capsys, tmp_path, argv, lambda doc: None, emitted=FAIL) == (
        PASS, "replayed volume: all certificates verify\n", "")
    assert _replay_tampered(capsys, tmp_path, argv, lambda doc: doc.update(rejected="not closed"),
                            emitted=FAIL) == (
        FAIL, "replay FAIL: volume rejected for 'exact', the report says 'not closed'\n", "")


@pytest.mark.parametrize("argv,tamper,reason", [
    (("dim", "cp(n=2)"), lambda doc: doc.update(dimension=7), "dimension is 8, the report says 7"),
    (("betti", "cp(n=2)", "--max-degree", "4"), lambda doc: doc.update(betti=[1, 0, 2, 0, 1]),
     "betti is [1, 0, 1, 0, 1], the report says [1, 0, 2, 0, 1]"),
], ids=["dim", "betti"])
def test_replay_recomputes_dim_and_betti_as_the_commands_do(capsys, tmp_path, argv, tamper,
                                                            reason):
    assert _replay_tampered(capsys, tmp_path, argv, lambda doc: None) == (
        PASS, f"replayed {argv[0]}: all certificates verify\n", "")
    assert _replay_tampered(capsys, tmp_path, argv, tamper) == (
        FAIL, f"replay FAIL: {reason}\n", "")


def _doubled_volume(doc):
    doc["algebra"]["source"] = doc["algebra"]["source"].replace("volume x^8", "volume 2*x^8")


def test_replay_of_a_catalog_entry_rebuilds_it_from_its_name(capsys, tmp_path):
    argv = ("catalog", "cp", "--param", "n=4")
    assert _replay_tampered(capsys, tmp_path, argv, lambda doc: None) == (
        PASS, "replayed catalog: all certificates verify\n", "")
    stated = "['gen x : 2', 'gen y : 17', 'd y = x^9', 'volume {}x^8']"
    assert _replay_tampered(capsys, tmp_path, argv, _doubled_volume) == (
        FAIL, f"replay FAIL: source is {stated.format('')}, "
              f"the report says {stated.format('2*')}\n", "")
    assert _replay_tampered(capsys, tmp_path, argv,
                            lambda doc: doc["algebra"].update(name="nonesuch")) == (
        USAGE, "", "invalid report: 'nonesuch' names no catalog entry\n")


def test_replay_of_the_catalog_listing_lists_it_again(capsys, tmp_path):
    code, doc = run_json(capsys, "catalog")
    entries = doc["entries"]
    assert len(entries) > 1
    assert _replay_tampered(capsys, tmp_path, ("catalog",),
                            lambda doc: doc.update(entries=entries[:1])) == (
        FAIL, f"replay FAIL: entries is {entries}, the report says {entries[:1]}\n", "")


@pytest.mark.parametrize("argv,tamper,missing", [
    (("check", "cp(n=2)"), lambda doc: [doc.pop(k) for k in ("argv", "algebra", "checks",
                                                              "certificates")], "algebra"),
    (("spectrum", "cp(n=2)"), lambda doc: doc.pop("witnesses"), "witnesses"),
    (("volume", "cp(n=2)"), lambda doc: doc.pop("functional"), "functional"),
    (("flex", "lower-grading"),
     lambda doc: [m.pop(k) for m in doc["multiples"] for k in ("degree", "classes")], "degree"),
    (("dim", "cp(n=2)"), lambda doc: doc.pop("certificates"), "certificates"),
    # the schema cannot tell that the algebra declares a volume; replay can
    (("verify", "cp(n=2)", "{morphism}"), lambda doc: doc.pop("certificates"), "certificates"),
], ids=["bare-check", "spectrum-without-witnesses", "volume-without-functional",
        "flex-multiples-without-degree-and-classes", "dim-without-certificates",
        "verify-with-a-volume-without-certificates"])
def test_replay_rejects_a_report_without_its_command_fields(capsys, tmp_path, argv, tamper,
                                                           missing):
    morphism = tmp_path / "f.mor"
    morphism.write_text("f x = 2*x\nf y = 32*y\n")
    argv = [a.format(morphism=morphism) for a in argv]
    code, out, err = _replay_tampered(capsys, tmp_path, argv, tamper)
    assert code == USAGE and not out
    assert err == f"invalid report: {missing!r} is a required property\n"


def _replay_tampered_volume(capsys, tmp_path, tamper):
    return _replay_tampered(capsys, tmp_path, ("volume", "chiral3(l=5)"), tamper)


@pytest.mark.parametrize("tamper,reason", [
    (lambda doc: doc.update(degree=7), "degree 7 != formal dimension 47"),
    # phi(x2^7*n2) = 1, but d(x2^7*n2) = x2^12
    (lambda doc: doc.update(representative="x2^7*n2"), "not closed"),
    (lambda doc: doc["functional"].append({"monomial": "x1", "value": "0"}),
     "functional has a monomial outside degree 47"),
    # phi(x2^7*n2) = 2: the representative has no x2^7*n2 term, so only phi(d) = 0 breaks
    (lambda doc: doc["functional"][0].update(value="2"), "functional does not annihilate d"),
    (lambda doc: [e.update(value=str(-int(e["value"]))) for e in doc["functional"]],
     "functional does not normalize the representative"),
], ids=["degree", "representative", "functional-degree", "functional-not-annihilating",
        "functional-not-normalizing"])
def test_replay_volume_checks_degree_and_representative(capsys, tmp_path, tamper, reason):
    code, out, _ = _replay_tampered_volume(capsys, tmp_path, tamper)
    assert (code, out) == (FAIL, f"replay FAIL: {reason}\n")


# d^2 z = d(x*y*u) = x^3*u, and x*u*z is closed, of the formal dimension 12 and
# not in the image of d, so only the d^2 check rejects it
NOT_A_COMPLEX = "gen x : 2\ngen y : 3\ngen u : 3\ngen z : 7\nd y = x^2\nd z = x*y*u\n"


NOT_ELLIPTIC_VOLUME = (INCONCLUSIVE, "", "ellipticity inconclusive at x\n")
UNVERIFIED = (FAIL, "replay FAIL: ellipticity witnesses do not verify\n", "")
# d y = x^2 in NOT_A_COMPLEX, where cp(n=2)'s certificate states d y = x^3
NOT_A_COMPLEX_CERTIFICATE = [{"generator": "x", "exponent": 2, "witness": "y"}]


@pytest.mark.parametrize("source,representative,degree,certificate,emitted,replayed", [
    ("gen x : 2\ngen y : 3\n", "x", 2, None, NOT_ELLIPTIC_VOLUME, UNVERIFIED),
    (NOT_A_COMPLEX, "x*u*z", 12, NOT_A_COMPLEX_CERTIFICATE, (FAIL, "rejected: d^2 != 0\n", ""),
     (FAIL, "replay FAIL: d^2 != 0\n", "")),
    (NOT_A_COMPLEX, "x*u*z", 12, None, (FAIL, "rejected: d^2 != 0\n", ""), UNVERIFIED),
], ids=["not-elliptic", "d-squared", "d-squared-with-cp-certificate"])
def test_replay_volume_checks_the_algebra_as_volume_does(capsys, tmp_path, source,
                                                         representative, degree, certificate,
                                                         emitted, replayed):
    alg = tmp_path / "source.alg"
    alg.write_text(source + f"volume {representative}\n")
    assert run(capsys, "volume", str(alg)) == emitted

    def tamper(doc):
        doc["algebra"]["source"] = source
        doc.update(degree=degree, representative=representative,
                   functional=[{"monomial": representative, "value": "1"}])
        if certificate is not None:
            doc["certificates"]["ellipticity"] = certificate
    assert _replay_tampered(capsys, tmp_path, ("volume", "cp(n=2)"), tamper) == replayed


def _no_scaling_family(doc):
    doc.pop("scaling")
    doc.pop("multiples")


def _structure_denied(doc):
    _no_scaling_family(doc)
    doc.update(condition=False, monomial_differentials=False, two_stage=None,
               verdict="inconclusive")


@pytest.mark.parametrize("tamper,reasons", [
    (lambda doc: doc["multiples"][0].update(degree="5"),
     ["morphism (k = 2) degree 4398046511104 != 5"]),
    (lambda doc: doc["multiples"][0].update(classes=8), ["classes is 7, the report says 8 (k = 2)"]),
    (lambda doc: doc["multiples"][1].update(failing="m"),
     ["classes is 0, the report says 7 (k = 3)",
      "the report's fields give verdict fail, it says pass"]),
    (lambda doc: doc["scaling"].update(exponent=3), ["scaling degree 2097152 != 2^3"]),
    (lambda doc: doc["scaling"].update(base=0, exponent=-1), ["scaling degree 2097152 != 0^-1"]),
    (_no_scaling_family, ["the lower-degree condition holds, but no scaling family is given"]),
    (_structure_denied, ["monomial_differentials is True, the report says False",
                         "condition is True, the report says False"]),
    (lambda doc: doc.update(two_stage={"closed": ["a"], "rest": []}),
     ["two_stage is None, the report says {'closed': ['a'], 'rest': []}"]),
    (lambda doc: doc["grading"].update(m=3),
     ["grading is {'a': 0, 'b': 0, 'n': 1, 'm': 2}, the report says "
      "{'a': 0, 'b': 0, 'n': 1, 'm': 3}"]),
], ids=["multiple-degree", "classes", "failing-multiple-classes", "scaling-exponent", "negative-exponent", "no-scaling-family",
        "structure-denied", "two-stage", "grading"])
def test_replay_flex_checks_multiples_and_exponent(capsys, tmp_path, tamper, reasons):
    code, out, _ = _replay_tampered(capsys, tmp_path, ("flex", "lower-grading"), tamper)
    assert code == FAIL
    assert out.splitlines() == [f"replay FAIL: {r}" for r in reasons]


@pytest.mark.parametrize("argv,tamper,reasons", [
    (("spectrum", "lemma(i=0)"),
     lambda doc: doc.update(witnesses=[w for w in doc["witnesses"] if w["degree"] != "-1"]),
     ["spectrum constant -1 has no witness of that degree"]),
    (("spectrum", "cp(n=2)"), lambda doc: doc["spectrum"].append("3"),
     ["spectrum constant 3 has no witness of that degree"]),
    (("spectrum", "cp(n=2)"), lambda doc: doc.update(flexible=False),
     ["flexible is True, the report says False"]),
    (("spectrum", "lemma(i=0)"), lambda doc: doc.update(flexible=True),
     ["flexible is False, the report says True"]),
], ids=["constant-without-witness", "made-up-constant", "families-not-flexible",
        "flexible-without-family"])
def test_replay_spectrum_needs_a_witness_per_constant_and_flexible_as_families(
        capsys, tmp_path, argv, tamper, reasons):
    code, out, _ = _replay_tampered(capsys, tmp_path, argv, tamper)
    assert code == FAIL
    assert out.splitlines() == [f"replay FAIL: {r}" for r in reasons]


def test_replay_spectrum_says_classification_and_complete_are_not_replayed(capsys, tmp_path):
    # a cut-off case analysis edited to a complete Inflexible one still replays,
    # since the case tree is not in the report, but the line says so
    def complete(doc):
        doc.update(classification="Inflexible", complete=True, verdict="pass")

    argv = ("spectrum", "lemma(i=0)", "--case-depth", "0")
    code, out, _ = _replay_tampered(capsys, tmp_path, argv, complete, emitted=INCONCLUSIVE)
    assert (code, out) == (PASS, f"replayed spectrum: {_replayed('spectrum')}\n")


def test_replay_never_computes_a_power_the_report_sets(capsys, tmp_path):
    # exponents this large finish only if the power is never multiplied out
    code, out, _ = _replay_tampered(
        capsys, tmp_path, ("check", "cp(n=2)"),
        lambda doc: doc["certificates"]["ellipticity"][0].update(exponent=10 ** 9))
    assert (code, out) == (FAIL, "replay FAIL: ellipticity witnesses do not verify\n")
    code, out, _ = _replay_tampered(capsys, tmp_path, ("flex", "lower-grading"),
                                    lambda doc: doc["scaling"].update(exponent=10 ** 12))
    assert (code, out) == (FAIL, "replay FAIL: scaling degree 2097152 != 2^1000000000000\n")


def test_replay_flex_needs_a_level_for_every_generator(capsys, tmp_path):
    code, out, err = _replay_tampered(capsys, tmp_path, ("flex", "lower-grading"),
                                      lambda doc: doc["grading"].pop("m"))
    assert code == USAGE and not out
    assert err == "invalid report: grading has no level for 'm'\n"


@pytest.mark.parametrize("monomial", ["x1 + x2", "2*x1"])
def test_replay_rejects_functional_entry_that_is_not_one_monomial(capsys, tmp_path, monomial):
    code, out, err = _replay_tampered_volume(
        capsys, tmp_path, lambda doc: doc["functional"][0].update(monomial=monomial))
    assert code == USAGE and not out
    assert err == f"invalid report: functional entry {monomial!r} is not one monomial\n"


@pytest.mark.parametrize("argv,tamper,text", [
    (("volume", "chiral3(l=5)"), lambda doc: doc["functional"][0].update(value="1/0"), "1/0"),
    (("spectrum", "cp(n=4)"), lambda doc: doc["witnesses"][0].update(degree="3/0"), "3/0"),
    (("flex", "lower-grading"), lambda doc: doc["scaling"].update(degree="two"), "two"),
    (("verify", "cp(n=4)", "{identity}"), lambda doc: doc.update(degree="1/0"), "1/0"),
], ids=["volume", "spectrum", "flex", "verify"])
def test_replay_rejects_a_number_that_is_not_rational(capsys, tmp_path, argv, tamper, text):
    identity = tmp_path / "identity.mor"
    identity.write_text("f x = x\nf y = y\n")
    argv = [a.format(identity=identity) for a in argv]
    code, out, err = _replay_tampered(capsys, tmp_path, argv, tamper)
    assert code == USAGE and not out
    assert err == f"invalid report: {text!r} is not a rational number\n"


def test_replay_rejects_malformed_report(capsys, tmp_path):
    p = tmp_path / "report.json"
    doc = {"schema": "minmod-report/1", "command": "nonesuch"}
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", str(p))
    assert code == USAGE and "invalid report" in err
    # the cached validator reports the error jsonschema.validate picks
    schema = json.loads(resources.files("minmod").joinpath("report.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(doc, schema)
    assert err == f"invalid report: {exc.value.message}\n"


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "nonesuch")[0] == USAGE
    assert run(capsys, "dim", str(tmp_path / "missing.alg"))[0] == USAGE
    assert run(capsys, "dim", "lemma(i=oops)")[0] == USAGE
    bad = tmp_path / "bad.alg"
    bad.write_text("gen x : 1\n")
    assert run(capsys, "check", str(bad))[0] == USAGE
    bad.write_text("gen x : 1" + "0" * 5000 + "\n")
    assert run(capsys, "check", str(bad)) == (
        USAGE, "", f"integer literal has more than {sys.get_int_max_str_digits()} digits "
                   "(line 1, column 9)\n")


def test_a_degree_past_the_digit_limit_is_a_usage_error(capsys, tmp_path):
    # it used to parse, pass check, and crash dim when printed
    p = tmp_path / "big.alg"
    p.write_text("gen x : 3\ngen y : 2^20000+1\n")
    message = f"power has more than {sys.get_int_max_str_digits()} digits (line 2, column 10)\n"
    for argv in (("dim",), ("--json", "dim"), ("check",)):
        assert run(capsys, *argv, str(p)) == (USAGE, "", message)


@pytest.mark.parametrize("command,spec,flag", [
    ("betti", "cp(n=2)", "--max-degree"),
    ("spectrum", "lemma(i=0)", "--case-depth"),
], ids=["max-degree", "case-depth"])
@pytest.mark.parametrize("value", ["-3", "x"])
def test_limits_must_be_nonnegative_integers(capsys, command, spec, flag, value):
    code, out, err = run(capsys, "--json", command, spec, flag, value)
    assert (code, out) == (USAGE, "")
    assert err.endswith(f"argument {flag}: not a nonnegative integer: '{value}'\n")
    assert run(capsys, "--json", command, spec, flag, "0")[0] != USAGE


def test_verify_rejects_a_repeated_image(capsys, tmp_path):
    p = tmp_path / "f.mor"
    p.write_text("f x = 2*x\nf y = 512*y\nf x = 3*x\n")
    code, out, err = run(capsys, "verify", "cp(n=4)", str(p))
    assert (code, out, err) == (USAGE, "", "repeated statement 'f x' (line 3, column 1)\n")


def test_unreadable_morphism_or_report_is_a_one_line_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "missing")
    code, out, err = run(capsys, "verify", "cp(n=4)", missing)
    assert (code, out, err) == (USAGE, "", f"cannot read {missing!r}: No such file or directory\n")
    code, out, err = run(capsys, "replay", missing)
    assert (code, out, err) == (USAGE, "", f"cannot read {missing!r}: No such file or directory\n")
    p = tmp_path / "report.json"
    p.write_text("verify: not json\n")
    code, out, err = run(capsys, "replay", str(p))
    assert (code, out) == (USAGE, "")
    assert err.startswith("invalid report: not JSON (") and err.count("\n") == 1
    p.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "replay", str(p))
    assert (code, out, err) == (USAGE, "", f"cannot read {str(p)!r}: not UTF-8 text\n")


@pytest.mark.parametrize("text,reason", [
    ('{"schema": ' + "1" * 5000 + "}",
     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
    ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
], ids=["long-integer", "deep-nesting"])
def test_replay_of_json_past_pythons_limits_is_an_invalid_report(capsys, tmp_path, text, reason):
    p = tmp_path / "report.json"
    p.write_text(text)
    assert run(capsys, "replay", str(p)) == (USAGE, "", f"invalid report: {reason}\n")


@pytest.mark.parametrize("argv", [
    lambda parts: ("dim", f"lemma({','.join(parts)})"),
    lambda parts: ("catalog", "lemma", *(a for p in parts for a in ("--param", p)))],
    ids=["spec", "param"])
def test_catalog_parameters_parse_alike_in_both_spellings(capsys, argv):
    def err_for(*parts):
        code, _, err = run(capsys, *argv(parts))
        assert code == USAGE
        return err

    assert err_for("i=oops") == "catalog parameter i must be an integer\n"
    assert err_for("oops") == "bad catalog parameter 'oops'\n"
    assert err_for("i=0", "i=2") == "duplicate catalog parameter 'i'\n"
    code, out, _ = run(capsys, *argv(["i = 1"]))
    assert code == PASS and out


def test_catalog_unknown_key_message_is_unquoted(capsys):
    code, out, err = run(capsys, "catalog", "nonesuch")
    assert code == USAGE and out == ""
    assert err == ("unknown catalog entry 'nonesuch'; known: ['chain-base', 'chain-fibered', "
                   "'chain-reduced', 'chiral1', 'chiral2', 'chiral3', 'cp', 'lemma', "
                   "'lower-grading', 'sphere']\n")


def test_catalog_param_without_key_is_a_usage_error(capsys):
    code, out, err = run(capsys, "catalog", "--param", "n=4")
    assert (code, out, err) == (USAGE, "", "--param needs a catalog key\n")


def test_missing_volume_reads_alike_in_every_command(capsys):
    for command in ("volume", "spectrum", "flex"):
        code, out, err = run(capsys, command, "chain-fibered")
        assert (code, out, err) == (FAIL, "", "the presentation declares no volume form\n")


def test_json_reports_validate_against_schema(capsys):
    for argv in (("catalog",), ("check", "sphere(k=6)"), ("dim", "cp(n=4)")):
        code, doc = run_json(capsys, *argv)
        assert doc["schema"] == "minmod-report/1"
        assert doc["argv"] == ["--json", *argv]


def test_repeated_calls_in_one_process_are_independent(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, "catalog", "--param", "n=4") == (
        USAGE, "", "--param needs a catalog key\n")
    code, out, _ = run(capsys, "catalog")
    assert code == PASS and "lemma" in out and "chiral3" in out
    # an appended --param list starts empty in every call
    assert run(capsys, "catalog", "cp", "--param", "n=4")[0] == PASS
    code, out, _ = run(capsys, "catalog", "cp", "--param", "n=2")
    assert code == PASS and "d y = x^5" in out
    assert run(capsys, "nonesuch")[0] == USAGE
    assert run(capsys, "check", "lemma(i=0)")[0] == PASS

    seen = []
    monkeypatch.setattr(cli, "cmd_dim", lambda args: seen.append(args.algebra) or FAIL)
    assert run(capsys, "dim", "cp(n=4)")[0] == FAIL
    assert seen == ["cp(n=4)"]
