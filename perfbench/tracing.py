"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` replaces each layer function with a timing wrapper at
the name the pipeline looks it up by (a module global or a class
attribute), so ``src/`` stays untouched; ``restore`` puts the originals
back.  Spans (name, start, end, parent span, case id) are kept in
memory and written out once, when the run ends.  A layer's self time
is its spans' duration minus the part their child spans cover; its
busy time counts only the outermost span when the layer nests in
itself.
"""

import json
import time
from collections import defaultdict

# layer -> (unit-less counter names it reports beside calls/busy/self)
LAYERS = {
    "cli.parse_identity_file": (),
    "cli.verdict_doc": (),
    "decide.decide_all": (),
    "decide._fast_path": ("hit_ratio",),
    "decide.candidate_primes": ("forces_ratio",),
    "decide.decide_Up": ("hit_ratio",),
    "decide.decide_B": ("hit_ratio",),
    "decide._instance_member": ("member_ratio",),
    "decide._ap_flat": (),
    "decide.decide_Ap": (),
    "decide._ap_presented": (),
    "decide._normal_words": ("words",),
    "decide.presented_scan_check": (),
    "gsb.complete": ("steps", "basis_size", "limit_hits"),
    "gsb.GsBasis.normal_form": (),
    "freealg.NcPoly.substitute": (),
    "commalg.field_ideal_normal_form": (),
    "finitering.make_ring": (),
    "finitering.TabledRing.is_identity": ("tuples", "tuples_per_s",
                                          "pass_ratio"),
    "oracle.witness_search": ("families", "skipped"),
    "oracle.cross_validate": ("agree_ratio",),
}

# metric suffix -> (unit, better)
UNITS = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "forces_ratio": ("ratio", "higher"),
    "member_ratio": ("ratio", "higher"),
    "words": ("count", "lower"),
    "steps": ("count", "lower"),
    "basis_size": ("count", "lower"),
    "limit_hits": ("count", "lower"),
    "tuples": ("count", "lower"),
    "tuples_per_s": ("1/s", "higher"),
    "pass_ratio": ("ratio", "higher"),
    "families": ("count", "lower"),
    "skipped": ("count", "lower"),
    "agree_ratio": ("ratio", "higher"),
}
# ratio metric -> the counter it divides by the layer's calls
RATIO_COUNTERS = {
    "hit_ratio": "hits",
    "forces_ratio": "forces",
    "member_ratio": "members",
    "pass_ratio": "passes",
    "agree_ratio": "agrees",
}
# whole-run figures of the traced run itself
RUN_METRICS = {
    "trace.cases_per_s": ("1/s", "higher"),
    "trace.coverage_ratio": ("ratio", "higher"),
    "trace.coverage_min_ratio": ("ratio", "higher"),
}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, extra in LAYERS.items():
        for suffix in ("calls", "busy_s", "self_s") + extra:
            out.append((layer + "." + suffix,) + UNITS[suffix])
    out += [(name,) + spec for name, spec in RUN_METRICS.items()]
    return out


# ---------------------------------------------------------------------------
# counters: (counts, layer, args, result, error) after each call

def _hit(counts, layer, args, result, error):
    if error is None and result:
        counts[layer + ".hits"] += 1


def _forces(counts, layer, args, result, error):
    if error is None and not result.all_primes and not result.primes:
        counts[layer + ".forces"] += 1


def _member(counts, layer, args, result, error):
    if result is True:
        counts[layer + ".members"] += 1


def _tuples(counts, layer, args, result, error):
    if error is not None:
        return
    ring, P = args[0], args[1]
    vs = P.variables()
    s = max(vs) if vs else 1
    if result is True:
        counts[layer + ".passes"] += 1
        counts[layer + ".tuples"] += ring.size ** s
        return
    # failing tuple -> its position in scan order, counted inclusively
    k = 0
    for element in result:
        idx = 0
        for c in element:
            idx = idx * ring.char + int(c)
        k = k * ring.size + idx
    counts[layer + ".tuples"] += k + 1


def _words(counts, layer, args, result, error):
    if error is None:
        counts[layer + ".words"] += len(result)


def _completion(counts, layer, args, result, error):
    if error is not None:
        if getattr(error, "stage", None) == "gsb-completion":
            counts[layer + ".limit_hits"] += 1
        return
    counts[layer + ".steps"] += result.steps
    counts[layer + ".basis_size"] += len(result.elements)


def _oracle_ring(counts, layer, args, result, error):
    # only witness_search builds rings inside the oracle module
    counts["oracle.witness_search.families"] += 1


def _skipped(counts, layer, args, result, error):
    if error is None:
        counts[layer + ".skipped"] += len(result.skipped)


def _agree(counts, layer, args, result, error):
    if error is None and result.agree:
        counts[layer + ".agrees"] += 1


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, case id]
        self.outer = []       # per span: not nested in a same-name span
        self.stack = []
        self.case_id = None
        self.case_spans = []
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)
        self._undo = []

    # -- recording -----------------------------------------------------
    def _wrap(self, layer, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                   tracer.case_id]
            tracer.spans.append(rec)
            tracer.outer.append(tracer.depth[layer] == 0)
            tracer.stack.append(idx)
            tracer.depth[layer] += 1
            result = error = None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer.depth[layer] -= 1
                tracer.stack.pop()
                tracer.counts[layer + ".calls"] += 1
                if count is not None:
                    count(tracer.counts, layer, args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def case(self, case_id, fn, *args):
        """Run one case under a root span named ``case``."""
        self.case_id = case_id
        self.case_spans.append(len(self.spans))
        try:
            return self._wrap("case", fn, None)(*args)
        finally:
            self.case_id = None

    def _patch(self, owner, attr, layer, count=None):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self._wrap(layer, original, count))
        self._undo.append((owner, attr, original))

    def install(self, lib):
        d, o = lib.decide, lib.oracle
        self._patch(lib.cli, "parse_identity_file", "cli.parse_identity_file")
        self._patch(lib, "render", "cli.verdict_doc")
        self._patch(d, "decide_all", "decide.decide_all")
        self._patch(d, "_fast_path", "decide._fast_path", _hit)
        self._patch(d, "candidate_primes", "decide.candidate_primes", _forces)
        self._patch(d, "decide_Up", "decide.decide_Up", _hit)
        self._patch(d, "decide_B", "decide.decide_B", _hit)
        self._patch(d, "_instance_member", "decide._instance_member", _member)
        self._patch(d, "_ap_flat", "decide._ap_flat")
        self._patch(d, "decide_Ap", "decide.decide_Ap")
        self._patch(d, "_ap_presented", "decide._ap_presented")
        self._patch(d, "_normal_words", "decide._normal_words", _words)
        self._patch(d, "presented_scan_check", "decide.presented_scan_check")
        self._patch(d, "complete", "gsb.complete", _completion)
        for mod in (d, lib.theorems, o):
            self._patch(mod, "make_ring", "finitering.make_ring",
                        _oracle_ring if mod is o else None)
        for mod in (d, lib.theorems):
            self._patch(mod, "field_ideal_normal_form",
                        "commalg.field_ideal_normal_form")
        self._patch(lib.finitering.TabledRing, "is_identity",
                    "finitering.TabledRing.is_identity", _tuples)
        self._patch(lib.gsb.GsBasis, "normal_form", "gsb.GsBasis.normal_form")
        self._patch(lib.freealg.NcPoly, "substitute",
                    "freealg.NcPoly.substitute")
        self._patch(o, "witness_search", "oracle.witness_search", _skipped)
        self._patch(o, "cross_validate", "oracle.cross_validate", _agree)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def metrics(self, passes, cases_per_s):
        """Per-layer metrics per pass over the workload's cases, plus the
        traced run's own throughput."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if self.outer[i]:
                busy[name] += end - start
            own[name] += end - start - child[i]
        c = self.counts
        out = {}
        for layer, extra in LAYERS.items():
            calls = c[layer + ".calls"]
            out[layer + ".calls"] = calls / passes
            out[layer + ".busy_s"] = busy[layer] / passes
            out[layer + ".self_s"] = own[layer] / passes
            for suffix in extra:
                if suffix in RATIO_COUNTERS:
                    hits = c[layer + "." + RATIO_COUNTERS[suffix]]
                    value = hits / calls if calls else 0.0
                elif suffix == "tuples_per_s":
                    value = (c[layer + ".tuples"] / busy[layer]
                             if busy[layer] else 0.0)
                else:
                    value = c[layer + "." + suffix] / passes
                out[layer + "." + suffix] = value
        out["trace.cases_per_s"] = cases_per_s
        # share of case wall time inside top-level layer spans: summed
        # over all cases, and for the worst case
        walls = [(i, self.spans[i][2] - self.spans[i][1])
                 for i in self.case_spans]
        total = sum(w for _, w in walls)
        out["trace.coverage_ratio"] = (
            sum(child[i] for i, _ in walls) / total if total else 0.0)
        out["trace.coverage_min_ratio"] = min(
            (child[i] / w for i, w in walls), default=0.0)
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")
