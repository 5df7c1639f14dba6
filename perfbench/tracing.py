"""Span tracing around tauseq's layer functions, installed from outside the
package.

The package imports functions by name (``universe`` binds ``is_isomorphic``,
``wide`` binds ``trace`` and ``quotient``, ``verify.SUITES`` holds the suite
functions), so ``install`` rebinds every ``tauseq.*`` module attribute and
module-level dict value that is the original function object, and patches
methods on their class.  Per-scalar ``FieldSpec`` operations are not wrapped;
``linalg.rref.cells`` (the sum of rows x cols over all calls) stands in for
them.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; ``write_spans`` writes them out when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path); "Cls.meth" patches a method.
TARGETS = [
    ("quiver.build_algebra", "tauseq.quiver", "build_algebra"),
    ("linalg.rref", "tauseq.linalg", "rref"),
    ("linalg.Mat.mul", "tauseq.linalg", "Mat.mul"),
    ("modules.hom_basis", "tauseq.modules", "hom_basis"),
    ("modules.trace", "tauseq.modules", "trace"),
    ("modules.quotient", "tauseq.modules", "quotient"),
    ("modules.projective_cover", "tauseq.modules", "projective_cover"),
    ("decompose.indecomposable_parts", "tauseq.decompose", "indecomposable_parts"),
    ("decompose.is_isomorphic", "tauseq.decompose", "is_isomorphic"),
    ("decompose.EndAlgebra.core", "tauseq.decompose", "EndAlgebra.core"),
    ("ar.tau", "tauseq.ar", "tau"),
    ("ar.tau_minus", "tauseq.ar", "tau_minus"),
    ("ar.ext1_dim", "tauseq.ar", "ext1_dim"),
    ("ar.extension_cocycle_space", "tauseq.ar", "extension_cocycle_space"),
    ("ar.extension_middle", "tauseq.ar", "extension_middle"),
    ("universe.build", "tauseq.universe", "ModuleUniverse.__init__"),
    ("universe.enumerate", "tauseq.universe", "ModuleUniverse._enumerate"),
    ("universe.tables", "tauseq.universe", "ModuleUniverse._build_tables"),
    ("universe.closure", "tauseq.universe", "ModuleUniverse._check_closure"),
    ("universe.identify", "tauseq.universe", "ModuleUniverse.identify"),
    ("universe.gen_set", "tauseq.universe", "ModuleUniverse.gen_set"),
    ("universe.filtgen_contains", "tauseq.universe", "ModuleUniverse.filtgen_contains"),
    ("wide.all_torsion_classes", "tauseq.wide", "all_torsion_classes"),
    ("wide.all_wide_subcategories", "tauseq.wide", "all_wide_subcategories"),
    ("wide.context_of", "tauseq.wide", "context_of"),
    ("wide.j_in_context", "tauseq.wide", "j_in_context"),
    ("wide.rel_tau_rigid", "tauseq.wide", "rel_tau_rigid"),
    ("wide.rel_perp_tau", "tauseq.wide", "rel_perp_tau"),
    ("wide.torsion_handle", "tauseq.wide", "torsion_handle"),
    ("emap.e_map", "tauseq.emap", "EMapEngine.e_map"),
    ("emap.e_inverse", "tauseq.emap", "EMapEngine.e_inverse"),
    ("sequences.normalize", "tauseq.sequences", "normalize"),
    ("sequences.transitivity_path", "tauseq.sequences", "transitivity_path"),
    ("sequences.transposition_word", "tauseq.sequences", "transposition_word"),
    ("sequences.omega_inverse", "tauseq.sequences", "omega_inverse"),
    ("sequences.enumerate_tau_es", "tauseq.sequences", "enumerate_tau_es"),
    ("sequences.mutation_graph", "tauseq.sequences", "mutation_graph"),
    ("sequences.MutationTable", "tauseq.sequences", "MutationTable.__init__"),
    ("sequences.apply_steps", "tauseq.sequences", "apply_steps"),
    ("verify.enumeration", "tauseq.verify", "suite_enumeration"),
    ("verify.bijections", "tauseq.verify", "suite_bijections"),
    ("verify.emap", "tauseq.verify", "suite_emap"),
    ("verify.mutation", "tauseq.verify", "suite_mutation"),
    ("verify.transitivity", "tauseq.verify", "suite_transitivity"),
    ("verify.run_suites", "tauseq.verify", "run_suites"),
    ("cli.inspect", "tauseq.cli", "cmd_inspect"),
    ("cli.tes_enumerate", "tauseq.cli", "cmd_tes_enumerate"),
    ("cli.tes_mutate", "tauseq.cli", "cmd_tes_mutate"),
    ("cli.tes_path", "tauseq.cli", "cmd_tes_path"),
    ("cli.tes_graph", "tauseq.cli", "cmd_tes_graph"),
    ("cli.verify", "tauseq.cli", "cmd_verify"),
]

# Spans whose ".s" metric is inclusive wall time (a phase of the work);
# every other ".s" metric is self time.
INCLUSIVE = {
    "universe.enumerate", "universe.tables", "universe.closure",
    "wide.all_torsion_classes", "wide.all_wide_subcategories",
    "verify.enumeration", "verify.bijections", "verify.emap",
    "verify.mutation", "verify.transitivity",
    "cli.inspect", "cli.tes_enumerate", "cli.tes_mutate", "cli.tes_path",
    "cli.tes_graph", "cli.verify",
}

CALL_METRICS = [
    "modules.hom_basis", "modules.trace", "modules.quotient",
    "modules.projective_cover", "decompose.indecomposable_parts",
    "decompose.is_isomorphic", "decompose.EndAlgebra.core",
    "ar.tau", "ar.tau_minus", "ar.ext1_dim", "ar.extension_cocycle_space",
    "ar.extension_middle", "wide.context_of", "wide.j_in_context",
    "emap.e_map", "emap.e_inverse", "sequences.normalize",
    "sequences.transitivity_path", "sequences.transposition_word",
    "sequences.omega_inverse", "sequences.enumerate_tau_es",
    "sequences.mutation_graph", "linalg.rref", "linalg.Mat.mul",
]
# spans whose calls are checked against the cache they read first
HIT_METRICS = ["universe.gen_set", "universe.filtgen_contains",
               "wide.rel_tau_rigid", "wide.rel_perp_tau", "emap.e_map"]
CACHE_NAMESPACES = [
    "contexts", "torsion_handles", "rel_rigid", "rel_perp_tau",
    "rel_str_indecs", "sum_with_maps", "sum_hom_basis", "pairwise_cocycles",
    "extension_parts", "kernel_cokernel_parts", "mutation_tables",
]
BUILD_TAGS = ["a2", "a3", "a3rad2", "nakayama2_rad2", "a4rad2", "a4", "a5",
              "a3rad2_gf3", "a4_gf5", "a5_gf5", "kronecker",
              "a4_gf2", "a4_gf3", "a5_gf2", "a5_gf3"]


def _hit_gen_set(args):
    return frozenset(args[1]) in getattr(args[0], "_gen_cache", {})


def _hit_filtgen(args):
    return (frozenset(args[1]), args[2]) in getattr(args[0], "_filtgen_cache", {})


def _hit_rel(namespace):
    def hit(args):
        u, ctx, ids = args[0], args[1], args[2]
        if namespace == "rel_rigid" and not ids:
            return True
        return (ctx.members, tuple(sorted(ids))) in u.cache.get(namespace, {})
    return hit


def _hit_e_map(args):
    engine = args[0]
    return engine.key(args[1], args[2], args[3]) in engine.memo


HIT_TESTS = {
    "universe.gen_set": _hit_gen_set,
    "universe.filtgen_contains": _hit_filtgen,
    "wide.rel_tau_rigid": _hit_rel("rel_rigid"),
    "wide.rel_perp_tau": _hit_rel("rel_perp_tau"),
    "emap.e_map": _hit_e_map,
}


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        size = len(self.names)
        self.calls = [0] * size
        self.total = [0.0] * size
        self.self_time = [0.0] * size
        self.hits = Counter()
        self.pairs = Counter()      # (parent name id, child name id) -> calls
        self.counters = Counter()   # named counts and seconds
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.tag = ""               # algebra being built, for universe.build.<tag>.s
        self.universes = []
        self._suites_end = None
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, nid, fn, pre=None, post=None):
        stack = self.stack
        calls, total, self_time = self.calls, self.total, self.self_time
        pairs, hits = self.pairs, self.hits
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None and pre(args):
                hits[nid] += 1
            sid = len(s_start)
            if stack:
                parent = stack[-1]
                s_parent.append(parent[0])
                pairs[(parent[1], nid)] += 1
            else:
                s_parent.append(-1)
            s_name.append(nid)
            frame = [sid, nid, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            s_end.append(t0)
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as exc:
                counters["raised." + type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                s_end[sid] = t1
                calls[nid] += 1
                total[nid] += d
                self_time[nid] += d - frame[2]
                if stack:
                    stack[-1][2] += d
                if post is not None:
                    post(args, result, ok, t1, d)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _pre(self, name):
        if name == "linalg.rref":
            counters = self.counters

            def pre(args):
                counters["linalg.rref.cells"] += args[0].rows * args[0].cols
                return False
            return pre
        return HIT_TESTS.get(name)

    def _post(self, name):
        counters = self.counters
        if name == "decompose.is_isomorphic":
            def post(args, result, ok, t1, d):
                if result:
                    counters["decompose.is_isomorphic.matches"] += 1
            return post
        if name == "universe.enumerate":
            def post(args, result, ok, t1, d):
                if ok:
                    counters["universe.enumerate.found"] += len(result[0])
            return post
        if name == "universe.build":
            def post(args, result, ok, t1, d):
                counters["universe.build.%s.s" % self.tag] += d
                if ok:
                    self.universes.append(args[0])
            return post
        if name == "verify.run_suites":
            def post(args, result, ok, t1, d):
                self._suites_end = t1
            return post
        if name == "cli.verify":
            def post(args, result, ok, t1, d):
                if self._suites_end is not None:
                    counters["verify.counts_block.s"] += t1 - self._suites_end
                    self._suites_end = None
            return post
        return None

    def install(self):
        """Wrap every target in every tauseq module that imported it."""
        for mod_name in ("tauseq.cli", "tauseq.verify", "tauseq.transport"):
            __import__(mod_name)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tauseq" or n.startswith("tauseq."))]
        for nid, (name, mod_name, attr) in enumerate(TARGETS):
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(nid, orig, self._pre(name), self._post(name)))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(nid, orig, self._pre(name), self._post(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = wrapped
                                self._restore.append((value, k, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore = []

    # -- results ------------------------------------------------------------

    def aggregates(self):
        """Plain dict of everything the per-layer metrics are made from."""
        caches = Counter()
        for u in self.universes:
            for ns in CACHE_NAMESPACES:
                caches[ns] += len(u.cache.get(ns, {}))
            engine = u.cache.get("emap_engine")
            caches["emap_memo"] += len(engine.memo) if engine is not None else 0
            caches["gen"] += len(getattr(u, "_gen_cache", {}))
            caches["filtgen"] += len(getattr(u, "_filtgen_cache", {}))
        return {
            "calls": dict(zip(self.names, self.calls)),
            "total": dict(zip(self.names, self.total)),
            "self": dict(zip(self.names, self.self_time)),
            "hits": {self.names[i]: n for i, n in self.hits.items()},
            "pairs": {"%s>%s" % (self.names[a], self.names[b]): n
                      for (a, b), n in self.pairs.items()},
            "counters": dict(self.counters),
            "caches": dict(caches),
            "spans": len(self.span_start),
        }

    def write_spans(self, path):
        """Write the spans as tab-separated lines: name, parent span, start, end."""
        with open(path, "w") as fh:
            fh.write("# span_id\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.span_start)):
                fh.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (
                    sid, names[self.span_name[sid]], self.span_parent[sid],
                    self.span_start[sid], self.span_end[sid]))


def merge(aggs):
    """Sum several aggregate dicts (one per traced process)."""
    out = {"calls": Counter(), "total": Counter(), "self": Counter(),
           "hits": Counter(), "pairs": Counter(), "counters": Counter(),
           "caches": Counter(), "spans": 0}
    for agg in aggs:
        for key in ("calls", "total", "self", "hits", "pairs", "counters", "caches"):
            out[key].update(agg[key])
        out["spans"] += agg["spans"]
    return out


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [("quiver.build_algebra.s", "s", "lower")]
    for name in ["linalg.rref", "linalg.Mat.mul"]:
        specs += [(name + ".calls", "count", "lower"), (name + ".s", "s", "lower")]
    specs.append(("linalg.rref.cells", "count", "lower"))
    for name in CALL_METRICS:
        if name.startswith("linalg."):
            continue
        specs += [(name + ".calls", "count", "lower"), (name + ".s", "s", "lower")]
    specs += [
        ("decompose.is_isomorphic.match_frac", "ratio", "higher"),
        ("decompose.inconclusive", "count", "lower"),
        ("universe.enumerate.s", "s", "lower"),
        ("universe.tables.s", "s", "lower"),
        ("universe.closure.s", "s", "lower"),
        ("universe.enumerate.candidates", "count", "lower"),
        ("universe.enumerate.useful_frac", "ratio", "higher"),
        ("universe.identify.calls", "count", "lower"),
    ]
    specs += [("universe.build.%s.s" % tag, "s", "lower") for tag in BUILD_TAGS]
    for name in HIT_METRICS:
        if name != "emap.e_map":
            specs.append((name + ".calls", "count", "lower"))
        specs.append((name + ".hit_frac", "ratio", "higher"))
    specs += [
        ("wide.all_torsion_classes.s", "s", "lower"),
        ("wide.all_wide_subcategories.s", "s", "lower"),
        ("wide.torsion_handle.calls", "count", "lower"),
        ("emap.e_inverse.scans_per_call", "count", "lower"),
        ("sequences.MutationTable.builds", "count", "lower"),
        ("sequences.MutationTable.s", "s", "lower"),
        ("sequences.apply_steps.s", "s", "lower"),
    ]
    specs += [("verify.%s.s" % s, "s", "lower") for s in
              ("enumeration", "bijections", "emap", "mutation", "transitivity")]
    specs.append(("verify.counts_block.s", "s", "lower"))
    specs.append(("cli.import.s", "s", "lower"))
    specs += [("cli.%s.s" % c, "s", "lower") for c in
              ("inspect", "tes_enumerate", "tes_mutate", "tes_path", "tes_graph", "verify")]
    specs += [("cache.%s.entries" % ns, "count", "lower")
              for ns in CACHE_NAMESPACES + ["emap_memo", "gen", "filtgen"]]
    return specs


def layer_metrics(agg):
    """Per-layer metric values from merged aggregates (0 where a layer was idle)."""
    calls, total, self_s = agg["calls"], agg["total"], agg["self"]
    hits, pairs, counters = agg["hits"], agg["pairs"], agg["counters"]

    def seconds(name):
        return total.get(name, 0.0) if name in INCLUSIVE else self_s.get(name, 0.0)

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, _, _ in metric_specs():
        base, _, kind = metric.rpartition(".")
        if metric in counters:
            out[metric] = counters[metric]
        elif kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "s":
            out[metric] = seconds(base)
        elif kind == "hit_frac":
            out[metric] = frac(hits.get(base, 0), calls.get(base, 0))
        elif kind == "entries":
            out[metric] = agg["caches"].get(base[len("cache."):], 0)
        else:
            out[metric] = 0
    out["linalg.rref.cells"] = counters.get("linalg.rref.cells", 0)
    out["decompose.is_isomorphic.match_frac"] = frac(
        counters.get("decompose.is_isomorphic.matches", 0),
        calls.get("decompose.is_isomorphic", 0))
    out["decompose.inconclusive"] = counters.get("raised.InconclusiveTest", 0)
    candidates = pairs.get("universe.enumerate>ar.extension_middle", 0)
    out["universe.enumerate.candidates"] = candidates
    out["universe.enumerate.useful_frac"] = frac(
        counters.get("universe.enumerate.found", 0), candidates)
    out["emap.e_inverse.scans_per_call"] = frac(
        pairs.get("emap.e_inverse>emap.e_map", 0), calls.get("emap.e_inverse", 0))
    out["sequences.MutationTable.builds"] = calls.get("sequences.MutationTable", 0)
    return out


def layer_self_seconds(agg):
    """Self time summed per module, for the dominant-layer summary."""
    out = Counter()
    for name, s in agg["self"].items():
        out[name.split(".")[0]] += s
    return dict(out)


def dump(agg, path):
    with open(path, "w") as fh:
        json.dump(agg, fh)
