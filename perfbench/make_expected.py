"""Regenerate ``expected.json``: the verdicts of every unit any seed can draw.

    python3 perfbench/make_expected.py

Runs each unit once through the benchmark's own runners, re-checks its
witnesses in the clean room, and refuses to write the file when a value
contradicts a fact the repository records (``certify_facts``) or one derived
from the factor spectra (``product_facts``).  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import worker  # noqa: E402
import workloads  # noqa: E402


def _params(unit):
    return {k: int(v) for k, v in re.findall(r"(\w+)=(-?\d+)", unit)}


def certify_facts(unit, obs) -> list:
    """Mismatches with recorded facts for one catalog instance."""
    family = unit.split("(")[0]
    p = _params(unit)
    bad = []

    def want(cond, what):
        if not cond:
            bad.append(f"{unit}: {what}")

    for command, summary in obs.items():
        want(summary["code"] in (0, 2), f"{command} exit code {summary['code']}")
        if command.startswith("replay-"):
            want(summary["code"] == 0, f"{command} failed")
    dims = {"lemma": lambda: 231 + 4 * p["i"], "chiral1": lambda: 4 * p["l1"] + 8 * p["l2"] + 22,
            "chiral2": lambda: 4 * p["l"] + 57, "chiral3": lambda: 4 * p["l"] + 27,
            "cp": lambda: 4 * p["n"], "sphere": lambda: p["k"], "chain-base": lambda: 64,
            "chain-reduced": lambda: 66, "lower-grading": lambda: 18}
    want(obs["dim"].get("dimension") == dims[family](), "formal dimension")
    spectrum = obs["spectrum"]
    if family == "lemma":
        i = p["i"]
        want(obs["check"]["exponents"] == {"x1": 19 + i, "x2": 25},
             "minimal exact powers x1^(19+i), x2^25")
        want(spectrum["classification"] == "Inflexible" and spectrum["complete"]
             and set(spectrum["spectrum"]) == {"0", "1", str((-1) ** (i + 1))},
             "Inflexible {0, 1, (-1)^(i+1)}")
    if family in ("chiral1", "chiral2"):
        want(spectrum["classification"] == "Flexible", "Flexible")
    if family == "chiral3":
        want(spectrum["classification"] == "NoOrientationReversal" and spectrum["complete"],
             "NoOrientationReversal")
        if p["l"] == 5:
            want(spectrum["families"] == ["t^24"], "family t^24")
    if family == "cp":
        want(spectrum["families"] == [f"t^{2 * p['n']}"], "family t^(2n)")
    if family == "lower-grading":
        want(obs["flex"]["scaling_degree"] == str(2 ** 21), "scaling degree 2^21")
    return bad


def product_facts(key, obs, certify) -> list:
    """Mismatches with product values derived from the factor spectra."""
    a, b = key.split("*")
    fams = set(obs["families"])
    bad = []
    if a.startswith("lemma") and b == "lower-grading":
        reverses = "-1" in certify[a]["spectrum"]["spectrum"]
        want = {"t1^4*t2^3"} | ({"-1*t1^4*t2^3"} if reverses else set())
        if fams != want or obs["spectrum"] != ["0"]:
            bad.append(f"{key}: expected {{0}} and {sorted(want)}")
    if a.startswith("chiral3") and b.startswith("chiral3"):
        ea, eb = (certify[x]["spectrum"]["families"][0].split("^")[1] for x in (a, b))
        base = f"t1^{ea}*t2^{eb}"
        # the factor swap exists only on a square; odd top degrees make it reverse
        want = {base, f"-1*{base}"} if a == b else {base}
        if fams != want:
            bad.append(f"{key}: expected families {sorted(want)}")
    if a == "chain-base" and b.startswith("cp"):
        base = certify[a]["spectrum"]
        if base["classification"] == "Inflexible" and set(base["spectrum"]) <= {"0", "1"}:
            want = set(certify[b]["spectrum"]["families"])
            if fams != want or obs["classification"] != "NoOrientationReversal":
                bad.append(f"{key}: expected NoOrientationReversal {sorted(want)}")
    return bad


def main() -> int:
    expected = {"certify": {}, "products": {}}
    problems = []
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as workdir:
        for unit in workloads.certify_space():
            result = workloads.run_certify(unit, workdir)
            obs = {}
            for item in result.items:
                command = item.key.split("/", 1)[1]
                if item.observed is None:
                    problems.append(f"{item.key}: raised {item.error}")
                obs[command] = item.observed
            for job in result.witnesses:
                problems += worker.check_witnesses(job)
            if all(v is not None for v in obs.values()):
                problems += certify_facts(unit, obs)
            expected["certify"][unit] = obs
            print(unit, obs["spectrum"], flush=True)
    for pair in workloads.product_space():
        result = workloads.run_product(pair)
        (item,) = result.items
        if item.observed is None:
            problems.append(f"{item.key}: raised {item.error}")
            continue
        for job in result.witnesses:
            problems += worker.check_witnesses(job)
        problems += product_facts(item.key, item.observed, expected["certify"])
        expected["products"][item.key] = item.observed
        print(item.key, item.observed, f"{item.latency:.2f}s", flush=True)
    if problems:
        for p in problems:
            print("MISMATCH", p, file=sys.stderr)
        return 1
    with open(worker.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
