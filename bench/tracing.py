"""Tracing from outside the program: wrap the public functions each confl
module calls in another, record spans in memory, and turn them into the
per-layer metrics.

Modules import names directly (``from .rewriting import reach_set_bounded``),
so a function is wrapped at the attribute of each calling module, not only
where it is defined.  Wrappers stay at search granularity: per-step helpers
such as ``step_at`` and ``match_term`` run about half a million times on one
R2 run and are never wrapped.
"""
import inspect
import json
import statistics
from collections import defaultdict
from time import perf_counter

# (calling module, attribute, span name).  A call is recorded once, at the
# boundary it crosses: rewriting.reach_bounded is wrapped in rewriting itself
# because conversion_bounded reaches it through that module's globals.
WRAPPED = (
    ("criteria", "reach_set_bounded", "rewriting.reach_set"),
    ("completion", "reach_bounded", "rewriting.reach_bounded"),
    ("reversibility", "reach_bounded", "rewriting.reach_bounded"),
    ("rewriting", "reach_bounded", "rewriting.reach_bounded"),
    ("criteria", "normalize_steps", "rewriting.normalize"),
    ("completion", "normalize_steps", "rewriting.normalize"),
    ("completion", "check_criterion", "criteria.check"),
    ("criteria", "cp", "critical_pairs.cp"),
    ("criteria", "cp_in", "critical_pairs.cp"),
    ("completion", "cp_in", "critical_pairs.cp"),
    ("certificate", "cp", "critical_pairs.cp"),
    ("certificate", "cp_in", "critical_pairs.cp"),
    ("criteria", "pcp_in", "critical_pairs.pcp_in"),
    ("certificate", "pcp_in", "critical_pairs.pcp_in"),
    ("completion", "successors", "completion.successors"),
    ("completion", "decompose", "completion.decompose"),
    ("criteria", "prove_termination", "termination"),
    ("criteria", "prove_relative_termination", "termination"),
    ("criteria", "is_reversible", "reversibility"),
    ("certificate", "parse_certificate", "certificate.parse"),
)

# The per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    "rewriting.reach_set_calls": "count",
    "rewriting.reach_set_repeat_share": "share",
    "rewriting.reach_set_s": "s",
    "rewriting.reach_set_terms": "count",
    "rewriting.reach_set_cap_hits": "count",
    "rewriting.reach_bounded_s": "s",
    "rewriting.normalize_s": "s",
    "criteria.check_s": "s",
    "criteria.join_self_s": "s",
    "criteria.pairs": "count",
    "criteria.pairs_failed": "count",
    "critical_pairs.cp_s": "s",
    "critical_pairs.pcp_in_s": "s",
    "critical_pairs.pairs": "count",
    "completion.expansions": "count",
    "completion.states": "count",
    "completion.successors_s": "s",
    "completion.decompose_s": "s",
    "termination.calls": "count",
    "termination.repeat_share": "share",
    "termination.s": "s",
    "termination.engine_lpo": "count",
    "termination.engine_poly": "count",
    "termination.engine_dp": "count",
    "reversibility.s": "s",
    "certificate.render_s": "s",
    "certificate.parse_s": "s",
    "certificate.verify_pairs_s": "s",
    "certificate.bytes": "bytes",
    "trs_format.parse_s": "s",
    "trace.untraced_prove_s": "s",
    "trace.traced_prove_s": "s",
    "trace.overhead_share": "share",
}

# Span name -> metric holding its summed duration.
_SPAN_SECONDS = {
    "rewriting.reach_set": "rewriting.reach_set_s",
    "rewriting.reach_bounded": "rewriting.reach_bounded_s",
    "rewriting.normalize": "rewriting.normalize_s",
    "criteria.check": "criteria.check_s",
    "critical_pairs.cp": "critical_pairs.cp_s",
    "critical_pairs.pcp_in": "critical_pairs.pcp_in_s",
    "completion.successors": "completion.successors_s",
    "completion.decompose": "completion.decompose_s",
    "termination": "termination.s",
    "reversibility": "reversibility.s",
    "certificate.render": "certificate.render_s",
    "certificate.parse": "certificate.parse_s",
}

class Tracer:
    """Spans and counts of one traced run.

    A span is [id, parent id, name, caller module, start, end]; id 0 is the
    root.  Counts are kept per pass in ``counts``; the (term, rules) keys that
    make up the repeat shares are forgotten at every input, since a memo would
    live for one prover run.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack = [0]
        self._installed: list = []
        self._reach_seen: set = set()
        self._term_seen: set = set()
        self._rule_keys: dict = {}
        self._reach_set_cap = None  # reach_set_bounded's default cap

    # --- spans ----------------------------------------------------------------
    def open(self, name: str, caller: str = "bench"):
        record = [len(self.spans) + 1, self._stack[-1], name, caller, perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def close(self, record):
        record[5] = perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float, caller: str = "bench"):
        """A span that has already ended, under the open one."""
        self.spans.append([len(self.spans) + 1, self._stack[-1], name, caller, start, end])

    def new_pass(self) -> int:
        """Forget the counts; returns the index of the pass's first span."""
        self.counts.clear()
        return len(self.spans)

    def new_input(self):
        self._reach_seen.clear()
        self._term_seen.clear()
        self._rule_keys.clear()

    def _wrap(self, fn, name: str, caller: str):
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            record = self.open(name, caller)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(record)
            if note is not None:
                note(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """Wrap every WRAPPED attribute; `modules` maps short names to modules."""
        reach_set = inspect.signature(modules["rewriting"].reach_set_bounded)
        self._reach_set_cap = reach_set.parameters["cap"].default
        for mod_name, attr, span in WRAPPED:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._installed.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span, mod_name))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # --- counts taken at the boundaries -----------------------------------------
    def _rules_key(self, trs):
        hit = self._rule_keys.get(id(trs))
        if hit is None or hit[0] is not trs:
            hit = (trs, trs.key())
            self._rule_keys[id(trs)] = hit
        return hit[1]

    def _note_rewriting_reach_set(self, args, kwargs, out):
        term, trs, depth = args[:3]
        cap = kwargs.get("cap", args[3] if len(args) > 3 else self._reach_set_cap)
        key = (term, self._rules_key(trs), depth, cap)
        c = self.counts
        c["rewriting.reach_set_calls"] += 1
        c["reach_set_repeats"] += key in self._reach_seen
        self._reach_seen.add(key)
        c["rewriting.reach_set_terms"] += len(out)
        c["rewriting.reach_set_cap_hits"] += len(out) >= cap

    def _note_criteria_check(self, args, kwargs, out):
        self.counts["completion.states"] += 1
        self.counts["criteria.pairs"] += len(out.evidence) + len(out.failing)
        self.counts["criteria.pairs_failed"] += len(out.failing)

    def _note_critical_pairs_cp(self, args, kwargs, out):
        self.counts["critical_pairs.pairs"] += len(out)

    _note_critical_pairs_pcp_in = _note_critical_pairs_cp

    def _note_completion_successors(self, args, kwargs, out):
        self.counts["completion.expansions"] += 1

    def _note_termination(self, args, kwargs, out):
        s_trs = args[0]
        p_key = self._rules_key(args[1]) if len(args) > 1 else None
        key = (self._rules_key(s_trs), p_key)
        c = self.counts
        c["termination.calls"] += 1
        c["termination_repeats"] += key in self._term_seen
        self._term_seen.add(key)
        cert = out[0]
        if cert is not None and cert.method in ("lpo", "poly", "dp"):
            c["termination.engine_" + cert.method] += 1

    # --- per-layer metrics --------------------------------------------------------
    def layer_metrics(self, first_span: int = 0) -> dict:
        """Metrics of the spans from index `first_span` on, and of `counts`."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for _sid, parent, _name, _caller, t0, t1 in spans:
            child[parent] += t1 - t0
        out = {m: 0.0 for m in LAYER_METRICS if not m.startswith("trace.")}
        for sid, _parent, name, caller, t0, t1 in spans:
            dur = t1 - t0
            if name in _SPAN_SECONDS:
                out[_SPAN_SECONDS[name]] += dur
            if name == "criteria.check":
                out["criteria.join_self_s"] += dur - child[sid]
            if name.startswith("critical_pairs.") and caller == "certificate":
                out["certificate.verify_pairs_s"] += dur
        c = self.counts
        for name in out:
            if name in c:
                out[name] = c[name]
        out["rewriting.reach_set_repeat_share"] = _share(
            c["reach_set_repeats"], c["rewriting.reach_set_calls"])
        out["termination.repeat_share"] = _share(c["termination_repeats"], c["termination.calls"])
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        keys = ("id", "parent", "name", "caller", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def median_metrics(per_pass: list) -> dict:
    return {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
