"""Command-line front end.

Subcommands: check, dim, betti, exact, volume, spectrum, flex, verify,
replay, catalog.  Algebras come from DSL files or catalog specs like
``lemma(i=0)``.  ``--json`` emits a schema-validated report.  ``replay``
recomputes each field no certificate backs with the function the command
emitted it with, and reports each difference as ``KEY is VALUE, the report
says STATED``; it verifies the certificates a report carries (ellipticity and
exactness witnesses, the top functional, morphisms and their degrees) and
derives the verdict again.  Not-elliptic and not-exact claims, and the
ellipticity certificate a ``dim``, ``volume``, ``spectrum``, ``flex`` or
``verify`` report needs, are solved again.  A spectrum's ``classification``
and ``complete`` are not replayed.

Exit codes: 0 all checks pass, 1 a check failed, 2 inconclusive,
3 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import catalog
from .cohomology import (ExactnessWitness, TopFunctional, VolumeRejection, betti_table,
                         check_volume_representative, is_closed, is_exact, verify_volume_form)
from .dsl import (AlgebraFile, ParseError, element_str, parse_algebra, parse_element,
                  parse_morphism, print_algebra)
from .endo import SolverConfig, degree_spectrum, verify_morphism
from .flexcert import (check_prop4_condition, class_count, construct_lower_grading,
                       monomial_differential_check, multiple_family_verify,
                       scaling_certificate, scaling_images, two_stage_decomposition)
from .gca import StructureError
from .sullivan import (EllipticityCertificate, Undecided, check_d_squared, check_minimality,
                       dimension_formula, ellipticity_certificate, formal_dimension)

SCHEMA_NAME = "report.schema.json"
SCHEMA_ID = "minmod-report/1"

PASS, FAIL, INCONCLUSIVE, USAGE = 0, 1, 2, 3
ERRORS = (ParseError, StructureError, Undecided, VolumeRejection)  # reported by error_exit


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _q(x) -> str | None:
    return None if x is None else str(Fraction(x))


def _nonnegative_int(text) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return int(text)


_CATALOG_SPEC = re.compile(r"^([A-Za-z0-9-]+)(?:\((.*)\))?$")


def _parse_params(parts) -> dict:
    """``NAME=INT`` catalog parameters, from a spec's parentheses or ``--param``."""
    params = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"bad catalog parameter {part!r}")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in params:
            raise ParseError(f"duplicate catalog parameter {k!r}")
        try:
            params[k] = int(v)
        except ValueError:
            raise ParseError(f"catalog parameter {k} must be an integer")
    return params


def _build(key: str, parts) -> AlgebraFile:
    """The catalog entry ``key`` with parameters ``parts``; errors become ParseError."""
    params = _parse_params(parts)
    try:
        return catalog.build(key, **params)
    except (KeyError, ValueError) as exc:
        raise ParseError(exc.args[0])


def _read(path: str) -> str:
    """The text of a file; an unreadable one is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path!r}: not UTF-8 text")


def _catalog_entry(spec: str):
    """The catalog entry a spec like ``chiral1(l1=4,l2=2)`` names, or None."""
    m = _CATALOG_SPEC.match(spec)
    if m and m.group(1) in {e.key for e in catalog.ENTRIES}:
        return _build(m.group(1), filter(None, (m.group(2) or "").split(",")))


def load_algebra(spec: str) -> AlgebraFile:
    """A DSL file path, or a catalog spec like ``chiral1(l1=4,l2=2)``."""
    return _catalog_entry(spec) or parse_algebra(_read(spec), name=spec)


def _verdict(command, doc) -> str:
    """The verdict a report's own fields give; emitting and replaying both read it.

    A report fails when a check it states is false, and is inconclusive when
    none is false but what would decide it is missing."""
    checks = doc.get("checks", {})
    ok = {"check": checks.get("d_squared") and checks.get("minimal"),
          "exact": doc.get("closed"), "volume": "rejected" not in doc, "verify": doc.get("valid"),
          "flex": all(m.get("failing") is None for m in doc.get("multiples", ()))}.get(command, True)
    decided = {"check": checks.get("elliptic"), "flex": doc.get("condition"),
               "spectrum": doc.get("classification") != "Inconclusive"}.get(command, True)
    return "fail" if not ok else "pass" if decided else "inconclusive"


def _report(args, command, af, lines, payload) -> int:
    verdict = _verdict(command, payload)
    code = {"pass": PASS, "fail": FAIL, "inconclusive": INCONCLUSIVE}[verdict]
    if args.json:
        doc = {"schema": SCHEMA_ID, "command": command, "argv": args._argv, "verdict": verdict}
        if af is not None:
            doc["algebra"] = {"name": af.algebra.name, "source": print_algebra(af)}
        doc.update(payload)
        validate_report(doc)
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _morphism_lines(images: dict) -> list:
    return [f"f {name} = {element_str(e)}" for name, e in sorted(images.items())]


# -- subcommand bodies ------------------------------------------------------
# A ``_*_fields`` function derives the fields of a report that no certificate
# backs; the command emits them and replay recomputes them with it.


def _catalog_fields() -> dict:
    return {"entries": [{"key": k, "summary": s, "parameters": p}
                        for k, s, p in catalog.describe()]}


def cmd_catalog(args) -> int:
    if args.key:
        af = _build(args.key, args.param or ())
        return _report(args, "catalog", af, [print_algebra(af).rstrip()], {})
    if args.param:
        raise ParseError("--param needs a catalog key")
    payload = _catalog_fields()
    lines = [f"{e['key']:14s} {e['summary']:55s} {e['parameters']}" for e in payload["entries"]]
    return _report(args, "catalog", None, lines, payload)


def _check_fields(alg) -> dict:
    return {"d_squared": bool(check_d_squared(alg)), "minimal": bool(check_minimality(alg))}


def cmd_check(args) -> int:
    af = load_algebra(args.algebra)
    alg = af.algebra
    checks = _check_fields(alg)
    lines = [f"d^2 = 0: {'pass' if checks['d_squared'] else 'FAIL'}",
             f"minimal: {'pass' if checks['minimal'] else 'FAIL'}"]
    witnesses = []
    try:
        cert = ellipticity_certificate(alg)
    except Undecided as exc:
        elliptic = False
        lines.append(f"ellipticity: inconclusive at {exc.generator} ({exc.reason})")
    else:
        elliptic = True
        for name, (n, w) in sorted(cert.powers.items()):
            lines.append(f"elliptic: {name}^{n} exact")
            witnesses.append({"generator": name, "exponent": n, "witness": element_str(w)})
    payload = {"checks": {**checks, "elliptic": elliptic},
               "certificates": {"ellipticity": witnesses}}
    lines.append(_verdict("check", payload))
    return _report(args, "check", af, lines, payload)


def _dim_fields(af) -> dict:
    return {"dimension": formal_dimension(af.algebra, ellipticity_certificate(af.algebra))}


def cmd_dim(args) -> int:
    af = load_algebra(args.algebra)
    payload = _dim_fields(af)
    return _report(args, "dim", af, [str(payload["dimension"])], payload)


def _betti_fields(af, max_degree) -> dict:
    """Betti numbers up to ``max_degree``, by default to the formal dimension, 0 to 40."""
    if max_degree is None:
        max_degree = max(0, min(dimension_formula(af.algebra), 40))
    return {"max_degree": max_degree, "betti": betti_table(af.algebra, max_degree)}


def cmd_betti(args) -> int:
    af = load_algebra(args.algebra)
    payload = _betti_fields(af, args.max_degree)
    lines = [f"b_{n} = {b}" for n, b in enumerate(payload["betti"])]
    return _report(args, "betti", af, lines, payload)


def _homogeneous(alg, text, prefix=""):
    """The element ``text`` names, or ParseError when its terms have several degrees."""
    e = parse_element(alg, text)
    if e and not e.is_homogeneous():
        raise ParseError(f"{prefix}expression {text!r} is not homogeneous: "
                         f"degrees {e.degrees_present()}")
    return e


def cmd_exact(args) -> int:
    af = load_algebra(args.algebra)
    alg = af.algebra
    e = _homogeneous(alg, args.expression)
    closed = is_closed(alg, e)
    witness = is_exact(alg, e) if closed else None
    lines = [f"closed: {closed}"]
    if closed:
        lines.append(f"exact: {witness is not None}")
        if witness is not None:
            lines.append(f"witness: d({element_str(witness.preimage)})")
    return _report(args, "exact", af, lines, {
        "expression": args.expression, "closed": closed, "exact": witness is not None,
        "witness": element_str(witness.preimage) if witness else None})


def cmd_volume(args) -> int:
    af = load_algebra(args.algebra)
    try:
        vol = _volume(af)
    except VolumeRejection as exc:
        return _report(args, "volume", af, [f"rejected: {exc.reason}"], {"rejected": exc.reason})
    phi = [{"monomial": af.algebra.free.monomial_str(m), "value": _q(c)}
           for m, c in sorted(vol.functional.phi.items()) if c]
    lines = [f"volume form verified in degree {vol.degree}"]
    return _report(args, "volume", af, lines, {
        "degree": vol.degree, "representative": element_str(vol.representative), "functional": phi})


def _volume(af: AlgebraFile):
    if af.volume is None:
        raise StructureError("the presentation declares no volume form")
    return verify_volume_form(af.algebra, af.volume, ellipticity_certificate(af.algebra))


def cmd_spectrum(args) -> int:
    af = load_algebra(args.algebra)
    vol = _volume(af)
    verdict = degree_spectrum(af.algebra, vol, SolverConfig(case_depth=args.case_depth))
    witnesses = []
    for leaf in verdict.leaves:
        for morphism, degree in leaf.witnesses:
            witnesses.append({"morphism": _morphism_lines(morphism.images),
                              "degree": _q(degree), "label": morphism.label})
    lines = [verdict.describe(),
             f"complete case analysis: {verdict.complete}",
             f"verified witnesses: {len(witnesses)}"]
    unresolved = next((leaf for leaf in verdict.leaves if not leaf.resolved), None)
    if unresolved is not None:
        trail = ", ".join(unresolved.assumptions) or "no assumptions"
        lines.append(f"first unresolved case: {trail} -- {unresolved.residual[-1]}")
    return _report(args, "spectrum", af, lines, {
        "classification": verdict.classification, "spectrum": [_q(q) for q in verdict.spectrum],
        "families": [f.describe() for f in verdict.families], "flexible": verdict.flexible,
        "complete": verdict.complete, "witnesses": witnesses})


def _flex_fields(alg):
    """A flex report's structural fields, its text lines and the lower grading."""
    mono_ok, offender = monomial_differential_check(alg)
    grading = construct_lower_grading(alg)
    cond_ok, cond_off = check_prop4_condition(alg, grading)
    two = two_stage_decomposition(alg)
    levels = {g.name: l for g, l in zip(alg.generators, grading.degrees)}
    lines = [f"monomial differentials: {mono_ok}" + (f" (fails at {offender})" if offender else ""),
             "lower grading: " + ", ".join(f"{n}:{l}" for n, l in levels.items()),
             f"lower-degree condition: {cond_ok}" + (f" (fails at {cond_off})" if cond_off else ""),
             f"two-stage: {two if two else 'none'}"]
    fields = {"monomial_differentials": mono_ok, "grading": levels, "condition": cond_ok,
              "two_stage": {"closed": list(two[0]), "rest": list(two[1])} if two else None}
    return fields, lines, grading


def cmd_flex(args) -> int:
    af = load_algebra(args.algebra)
    alg = af.algebra
    vol = _volume(af)
    payload, lines, grading = _flex_fields(alg)
    if not payload["condition"]:
        lines.append("no scaling certificate")
        return _report(args, "flex", af, lines, payload)
    sc = scaling_certificate(alg, grading, vol)
    checks = multiple_family_verify(alg, grading, vol, [2, 3])
    lines.append(f"scaling degree: {sc.degree} = {sc.base}^{sc.degree_exponent()}")
    lines.append(sc.family_description())
    for c in checks:
        lines.append(f"k = {c.k}: degree {c.degree}, {c.classes_checked} classes, "
                     + ("pass" if c.ok else f"FAIL at {c.failing}"))
    payload["scaling"] = {"base": sc.base, "degree": _q(sc.degree),
                          "exponent": sc.degree_exponent(),
                          "morphism": _morphism_lines(sc.images)}
    payload["multiples"] = [{"k": c.k, "degree": _q(c.degree),
                             "classes": c.classes_checked, "failing": c.failing}
                            for c in checks]
    return _report(args, "flex", af, lines, payload)


def _verify_fields(af, images) -> dict:
    """Whether ``images`` is a morphism, where not, and its degree if there is a volume."""
    vol = _volume(af) if af.volume is not None else None
    report = verify_morphism(af.algebra, images, vol)
    return {"valid": report.valid, "failing": report.failing, "degree": _q(report.degree)}


def cmd_verify(args) -> int:
    af = load_algebra(args.algebra)
    images = parse_morphism(af.algebra, _read(args.morphism))
    payload = _verify_fields(af, images)
    if not payload["valid"]:
        lines = [f"not a morphism: fails at {payload['failing']}"]
    elif payload["degree"] is None:
        lines = ["valid morphism"]
    else:
        lines = ["valid morphism", f"degree: {payload['degree']}"]
    payload["morphism"] = _morphism_lines(images)
    return _report(args, "verify", af, lines, payload)


# -- replay -----------------------------------------------------------------


@lru_cache(maxsize=1)
def _validator():
    """The report schema's validator, loaded and checked once per process."""
    from jsonschema.validators import validator_for

    with resources.files("minmod").joinpath(SCHEMA_NAME).open(encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(doc) -> None:
    """Raise the error ``jsonschema.validate`` would raise for ``doc``."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error


# a successful replay's line, where it checks less than every claim
REPLAYED = {"spectrum": "witnesses, spectrum and flexible verify; "
                        "classification and complete are not replayed"}


def cmd_replay(args) -> int:
    import jsonschema

    try:
        doc = json.loads(_read(args.report))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report: not JSON ({exc.msg}, line {exc.lineno})")
    try:
        validate_report(doc)
    except jsonschema.ValidationError as exc:
        print(f"invalid report: {exc.message}", file=sys.stderr)
        return USAGE
    command = doc["command"]
    af = (parse_algebra(doc["algebra"]["source"], name=doc["algebra"]["name"])
          if "algebra" in doc else None)
    failures = REPLAYS[command](af, doc)
    verdict = _verdict(command, doc)
    if doc["verdict"] != verdict:
        failures.append(f"the report's fields give verdict {verdict}, it says {doc['verdict']}")
    if failures:
        for f in failures:
            print(f"replay FAIL: {f}")
        return FAIL
    print(f"replayed {command}: {REPLAYED.get(command, 'all certificates verify')}")
    return PASS


def _differ(fields, stated, tag="") -> list:
    """The one mismatch rule: each recomputed field the report states otherwise."""
    return [f"{key} is {value}, the report says {stated.get(key)}{tag}"
            for key, value in fields.items() if stated.get(key) != value]


def _replay_catalog(af, doc) -> list:
    """List the catalog again, or rebuild the entry the report's algebra names."""
    if af is None:
        return _differ(_catalog_fields(), doc)
    entry = _catalog_entry(af.algebra.name)
    if entry is None:
        raise ParseError(f"invalid report: {af.algebra.name!r} names no catalog entry")
    return _differ({"source": print_algebra(entry).splitlines()},
                   {"source": doc["algebra"]["source"].splitlines()})


def _replay_check(af, doc) -> list:
    """Recompute d^2 = 0 and minimality; replay one witness per even generator.
    A not-elliptic claim carries no certificate, so the search runs again."""
    alg = af.algebra
    checks = doc["checks"]
    failures = _differ(_check_fields(alg), checks)
    certs = doc["certificates"]["ellipticity"]
    names = sorted(c["generator"] for c in certs)
    even = sorted(g.name for g in alg.generators if not g.is_odd) if checks["elliptic"] else []
    powers = {c["generator"]: (c["exponent"], parse_element(alg, c["witness"])) for c in certs}
    if names != even:
        failures.append(f"ellipticity witnesses for {names}, expected {even}")
    elif not checks["elliptic"]:
        with suppress(Undecided):
            ellipticity_certificate(alg)
            failures += _differ({"elliptic": True}, checks)
    elif not EllipticityCertificate(alg, powers).replay():
        failures.append("ellipticity witnesses do not verify")
    return failures


def _replay_exact(af, doc) -> list:
    """Exact iff a witness is given, and it must verify; a not-exact claim
    carries no certificate, so it is solved again."""
    alg = af.algebra
    e = _homogeneous(alg, doc["expression"], "invalid report: ")
    closed, exact, witness = is_closed(alg, e), doc["exact"], doc["witness"]
    if closed != doc["closed"]:
        return _differ({"closed": closed}, doc)
    if witness is not None and not closed:
        return ["the report gives an exactness witness for an element that is not closed"]
    if exact != (witness is not None):
        return [f"exact is {exact}, but the report gives {'a' if witness else 'no'} witness"]
    if witness is None:
        return _differ({"exact": closed and is_exact(alg, e) is not None}, doc)
    if not ExactnessWitness(e, parse_element(alg, witness)).replay(alg):
        return ["exactness witness does not verify"]
    return []


def _rational(text) -> Fraction | None:
    """A rational number a report states, or ParseError; None stays None."""
    try:
        return None if text is None else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid report: {text!r} is not a rational number") from None


def _functional_monomial(alg, text):
    """The monomial a functional entry names, with no coefficient."""
    terms = parse_element(alg, text).terms
    if list(terms.values()) != [1]:
        raise ParseError(f"invalid report: functional entry {text!r} is not one monomial")
    (mono,) = terms
    return mono


def _replay_volume(af, doc) -> list:
    if "rejected" in doc:
        try:
            _volume(af)
        except VolumeRejection as exc:
            if exc.reason == doc["rejected"]:
                return []
            return [f"volume rejected for {exc.reason!r}, the report says {doc['rejected']!r}"]
        return [f"volume form verifies, the report says rejected for {doc['rejected']!r}"]
    alg = af.algebra
    rep = parse_element(alg, doc["representative"])
    try:
        top = check_volume_representative(alg, rep, ellipticity_certificate(alg))
    except VolumeRejection as exc:
        return [exc.reason]
    phi = {}
    for entry in doc["functional"]:
        phi[_functional_monomial(alg, entry["monomial"])] = _rational(entry["value"])
    failures = []
    if doc["degree"] != top:
        failures.append(f"degree {doc['degree']} != formal dimension {top}")
    if any(alg.free.monomial_degree(m) != top for m in phi):
        failures.append(f"functional has a monomial outside degree {top}")
    functional = TopFunctional(alg, phi)
    if not functional.replay_annihilates_d():
        failures.append("functional does not annihilate d")
    if functional.apply(rep) != 1:
        failures.append("functional does not normalize the representative")
    return failures


def _replay_spectrum(af, doc) -> list:
    """Re-verify each witness and its degree.  Each nonzero constant of the
    spectrum needs a witness of that degree, and ``flexible`` must say whether
    there are families.  The case analysis is not replayed, so neither are
    ``classification`` and ``complete``."""
    alg = af.algebra
    vol = _volume(af)
    # the zero map attains degree 0 in every algebra, so 0 needs no witness
    attained = {0} | {_rational(w["degree"]) for w in doc["witnesses"]}
    failures = [f"spectrum constant {q} has no witness of that degree"
                for q in doc["spectrum"] if _rational(q) not in attained]
    failures += _differ({"flexible": bool(doc["families"])}, doc)
    entries = [(_images(alg, w["morphism"]), w["degree"], w.get("label", ""))
               for w in doc["witnesses"]]
    return failures + _verify_morphisms(alg, vol, entries)


def _replay_flex(af, doc) -> list:
    """Recompute the structural fields and class counts; re-verify the scaling
    morphism and each multiple, and their degrees."""
    alg = af.algebra
    vol = _volume(af)
    missing = [g.name for g in alg.generators if g.name not in doc["grading"]]
    if missing:
        raise ParseError(f"invalid report: grading has no level for {missing[0]!r}")
    fields, _, grading = _flex_fields(alg)
    failures = _differ(fields, doc)
    entries = []
    scaling = doc.get("scaling")
    if scaling:
        entries.append((_images(alg, scaling["morphism"]), scaling["degree"], "scaling"))
        base, exponent = scaling["base"], scaling.get("exponent")
        degree = _rational(scaling["degree"])
        # a scaling degree is a non-negative power of its base; the report
        # sets the exponent, so a power with more bits than the degree,
        # |base|^e >= 2^(e*(bits(base) - 1)), fails before it is computed
        if exponent is not None and (
                exponent < 0
                or exponent * (abs(base).bit_length() - 1) > degree.numerator.bit_length()
                or Fraction(base) ** exponent != degree):
            failures.append(f"scaling degree {scaling['degree']} != {base}^{exponent}")
    if doc["condition"] and not (scaling and doc.get("multiples")):
        failures.append("the lower-degree condition holds, but no scaling family is given")
    if doc.get("multiples"):
        entries += [(scaling_images(alg, grading, 2 * m["k"]), m["degree"], f"k = {m['k']}")
                    for m in doc["multiples"]]
        count = class_count(alg, grading)
        for m in doc["multiples"]:
            failures += _differ({"classes": count if m["failing"] is None else 0}, m,
                                f" (k = {m['k']})")
    return failures + _verify_morphisms(alg, vol, entries)


def _verify_morphisms(alg, vol, entries) -> list:
    """Re-verify each ``(images, stated degree or None, label)`` of a report."""
    failures = []
    for images, degree, label in entries:
        degree = _rational(degree)
        rep = verify_morphism(alg, images, vol)
        tag = f" ({label})" if label else ""
        if not rep.valid:
            failures.append(f"morphism{tag} fails at {rep.failing}")
        elif degree is not None and rep.degree != degree:
            failures.append(f"morphism{tag} degree {rep.degree} != {degree}")
    return failures


def _images(alg, lines) -> dict:
    return parse_morphism(alg, "\n".join(lines))


# each command's replay of (the report's algebra, None for a listing; the report)
REPLAYS = {
    "catalog": _replay_catalog, "check": _replay_check, "exact": _replay_exact,
    "volume": _replay_volume, "spectrum": _replay_spectrum, "flex": _replay_flex,
    "dim": lambda af, doc: _differ(_dim_fields(af), doc),
    "betti": lambda af, doc: _differ(_betti_fields(af, doc["max_degree"]), doc),
    # a stated degree is read as a rational, so 32/2 states 16
    "verify": lambda af, doc: _differ(_verify_fields(af, _images(af.algebra, doc["morphism"])),
                                      dict(doc, degree=_q(_rational(doc["degree"])))),
}


# -- entry point ------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command line's parser, built once per process; it holds no command function."""
    parser = _Parser(prog="minmod", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def alg_cmd(name, **extra):
        p = sub.add_parser(name)
        p.add_argument("algebra", help="DSL file or catalog spec like lemma(i=0)")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        return p

    alg_cmd("check")
    alg_cmd("dim")
    alg_cmd("betti", **{"--max-degree": dict(type=_nonnegative_int, default=None)})
    alg_cmd("exact").add_argument("expression")
    alg_cmd("volume")
    alg_cmd("spectrum",
            **{"--case-depth": dict(type=_nonnegative_int, default=SolverConfig.case_depth)})
    alg_cmd("flex")
    alg_cmd("verify").add_argument("morphism", help="file of `f NAME = EXPR` lines")
    sub.add_parser("replay").add_argument("report", help="a JSON report emitted with --json")
    p = sub.add_parser("catalog")
    p.add_argument("key", nargs="?", default=None)
    p.add_argument("--param", action="append", help="NAME=INT, repeatable")
    return parser


def error_exit(exc) -> int:
    """Print one of ``ERRORS`` as the command line's one-line message; its exit code."""
    print(exc, file=sys.stderr)
    return {ParseError: USAGE, Undecided: INCONCLUSIVE}.get(type(exc), FAIL)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    args._argv = argv
    try:
        # looked up per call, so a rebound ``cli.cmd_*`` (a tracer, a test spy) is the one run
        return globals()["cmd_" + args.command](args)
    except ERRORS as exc:
        return error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
