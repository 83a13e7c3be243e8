"""Outside-in spans on minmod's public functions.

Each traced function is replaced, for the length of a traced pass, by a
wrapper that records calls, total time and the time of wrapped children, so
self time is total minus children.  Spans are aggregated in memory per name.
A wrapper is installed on the defining module or class and on every minmod
module that imported the function by name, because ``endo``, ``flexcert``,
``cohomology`` and ``cli`` call ``apply_algebra_map``, ``extend_derivation``,
``verify_morphism``, ``is_exact`` and friends through their own globals.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric name, module, attribute path); classes are patched once, in place.
SPANS = (
    ("gca.Element.mul", "minmod.gca", "Element.__mul__"),
    ("gca.basis_of_degree", "minmod.gca", "FreeGCA.basis_of_degree"),
    ("sullivan.extend_derivation", "minmod.sullivan", "extend_derivation"),
    ("sullivan.apply_algebra_map", "minmod.sullivan", "apply_algebra_map"),
    ("sullivan.ellipticity_certificate", "minmod.sullivan", "ellipticity_certificate"),
    ("cohomology.d_matrix", "minmod.cohomology", "d_matrix"),
    ("cohomology.is_exact", "minmod.cohomology", "is_exact"),
    ("cohomology.top_functional_from_volume", "minmod.cohomology", "top_functional_from_volume"),
    ("cohomology.top_class_coefficient", "minmod.cohomology", "top_class_coefficient"),
    ("cohomology.betti", "minmod.cohomology", "betti"),
    ("linalg.LinearSolver.add_equation", "minmod.linalg", "LinearSolver.add_equation"),
    ("poly.MPoly.mul", "minmod.poly", "MPoly.__mul__"),
    ("poly.MPoly.substitute", "minmod.poly", "MPoly.substitute"),
    ("endo.generic_ansatz", "minmod.endo", "generic_ansatz"),
    ("endo.extract_constraints", "minmod.endo", "extract_constraints"),
    ("endo.simplify", "minmod.endo", "simplify"),
    ("endo.factor_constraint", "minmod.endo", "factor_constraint"),
    ("endo.reduce_modulo", "minmod.endo", "reduce_modulo"),
    ("endo.solve_monomial_system", "minmod.endo", "solve_monomial_system"),
    ("endo.volume_degree_polynomial", "minmod.endo", "volume_degree_polynomial"),
    ("endo.verify_morphism", "minmod.endo", "verify_morphism"),
    ("flexcert.scaling_certificate", "minmod.flexcert", "scaling_certificate"),
    ("flexcert.multiple_family_verify", "minmod.flexcert", "multiple_family_verify"),
    ("flexcert.bigraded_cohomology_basis", "minmod.flexcert", "bigraded_cohomology_basis"),
    ("dsl.parse_algebra", "minmod.dsl", "parse_algebra"),
    ("dsl.parse_morphism", "minmod.dsl", "parse_morphism"),
    ("catalog.build", "minmod.catalog", "build"),
    ("cli.validate_report", "minmod.cli", "validate_report"),
    ("cli.check", "minmod.cli", "cmd_check"),
    ("cli.dim", "minmod.cli", "cmd_dim"),
    ("cli.volume", "minmod.cli", "cmd_volume"),
    ("cli.spectrum", "minmod.cli", "cmd_spectrum"),
    ("cli.flex", "minmod.cli", "cmd_flex"),
    ("cli.betti", "minmod.cli", "cmd_betti"),
    ("cli.replay", "minmod.cli", "cmd_replay"),
)

# ``MPoly.__rmul__`` is the same function as ``__mul__``; both get the wrapper.
ALIASES = {"poly.MPoly.mul": ("MPoly.__rmul__",)}

# Named counts beyond calls and self time.
COUNTS = ("endo.constraints", "endo.case_nodes", "endo.leaves", "endo.leaves_resolved",
          "endo.verify_morphism.valid")

CACHES = (
    ("gca.basis_of_degree.hit_ratio", "minmod.gca", "FreeGCA._basis_cached"),
    ("cohomology.d_matrix.hit_ratio", "minmod.cohomology", "d_matrix"),
)

# Every module-level cache in minmod.  cohomology.cache_entries is how many
# entries a traced pass adds to them; they are never evicted.
ALL_CACHES = (("minmod.gca", "FreeGCA._basis_cached"), ("minmod.cohomology", "d_matrix"),
              ("minmod.cohomology", "_rank_d"), ("minmod.cohomology", "betti"))


def _resolve(module, path):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _cache_info(module, path):
    owner, attr = _resolve(module, path)
    fn = getattr(owner, attr)
    while not hasattr(fn, "cache_info"):  # look through an installed wrapper
        fn = fn.__wrapped__
    return fn.cache_info()


def cache_stats():
    """{name: (hits, misses)} for the ratio caches, and the entries of all caches."""
    stats = {}
    for name, module, path in CACHES:
        info = _cache_info(module, path)
        stats[name] = (info.hits, info.misses)
    entries = sum(_cache_info(module, path).currsize for module, path in ALL_CACHES)
    return stats, entries


class Tracer:
    """Aggregated spans (calls, total, children) plus named counts."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._patches = []  # (owner, attr, original)

    def _wrap(self, name, fn, on_result=None):
        record = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                record[0] += 1
                record[1] += dt
                record[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, fn, on_call):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            on_call()
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Rebind ``original`` in every loaded minmod module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "minmod" and not modname.startswith("minmod."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def _on_constraints(self, result):
        self.counts["endo.constraints"] += len(result)

    def _on_verify(self, report):
        if report.valid:
            self.counts["endo.verify_morphism.valid"] += 1

    def _on_verdict(self, verdict):
        self.counts["endo.leaves"] += len(verdict.leaves)
        self.counts["endo.leaves_resolved"] += sum(1 for leaf in verdict.leaves if leaf.resolved)

    def _on_node(self):
        self.counts["endo.case_nodes"] += 1

    def install(self):
        hooks = {"endo.extract_constraints": self._on_constraints,
                 "endo.verify_morphism": self._on_verify}
        for name, module, path in SPANS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                for alias in ALIASES.get(name, ()):
                    self._patch(*_resolve(module, alias), wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        endo = sys.modules["minmod.endo"]
        self._patch(endo._Explorer, "_explore",
                    self._count(endo._Explorer._explore, self._on_node))
        spectrum = endo.degree_spectrum

        @functools.wraps(spectrum)
        def counted_spectrum(*args, **kwargs):
            verdict = spectrum(*args, **kwargs)
            self._on_verdict(verdict)
            return verdict

        self._patch_everywhere(spectrum, counted_spectrum)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, cache_before, cache_after, entries) -> dict:
        """Per-layer metrics: ``<name>.calls``/``.self_s``/``.total_s``, counts, ratios."""
        out = {}
        for name, (calls, total, children) in self.spans.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (total - children, "s")
            out[f"{name}.total_s"] = (total, "s")
        c = self.counts
        out["endo.constraints"] = (c["endo.constraints"], "count")
        out["endo.case_nodes"] = (c["endo.case_nodes"], "count")
        out["endo.leaves"] = (c["endo.leaves"], "count")
        out["endo.leaves_resolved_ratio"] = (
            _ratio(c["endo.leaves_resolved"], c["endo.leaves"]), "ratio")
        out["endo.verify_morphism.valid_ratio"] = (
            _ratio(c["endo.verify_morphism.valid"], self.spans["endo.verify_morphism"][0]), "ratio")
        for name, (hits, misses) in cache_after.items():
            h = hits - cache_before[name][0]
            m = misses - cache_before[name][1]
            out[name] = (_ratio(h, h + m), "ratio")
        out["cohomology.cache_entries"] = (entries, "count")
        return out


def _ratio(num, den):
    return num / den if den else 0.0
