"""confl benchmark: time to a verdict and time to replay its certificate.

    python3 bench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Runs the prover in this process, in a closed loop with one client: the
inputs of the workload go in sequence, each only after the previous verdict.
Each input is fed as (VAR ...)(RULES ...) text through parse_trs, decided by
check_confluence with the command line defaults, rendered by
certificate_text, and, when the verdict is YES, replayed by
verify_certificate against the parsed problem.  Passes over the inputs repeat
while another pass fits in --seconds (at least one pass).

The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics (tracing.py) with --trace 1.  The exit
status is 0 only if every answer passed the correctness gate.
"""
import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from inputs import NON_CONFLUENT, WORKLOADS, workload_texts  # noqa: E402
from tracing import LAYER_METRICS, Tracer, median_metrics  # noqa: E402

# A short input is decided (and a short certificate replayed) again within a
# pass until its samples add up to MIN_INPUT_S, and every time reported is a
# median of samples taken all through the run.
MIN_INPUT_S = 0.5
MAX_REPEATS = 5
SETUP_SAMPLES_PER_PASS = 4

# Shared machines change speed by up to a factor of two, for fractions of a
# second and for minutes.  So a fixed calibration loop runs before and after
# every timed call, and the call's seconds are scaled by REFERENCE_PROBE_S
# over the loop's median time around the call: times read as seconds on a
# machine where the loop takes REFERENCE_PROBE_S (its median within benchmark
# runs on the 2-vCPU Xeon the baseline was measured on).
REFERENCE_PROBE_S = 0.0125

# The values the confl command line passes to check_confluence by default.
CLI_DEFAULTS = dict(max_steps=20, timeout=60.0, depth=10, rev_bound=10, hook=None)

END_TO_END = {
    "setup_s": "s",
    "prove_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "decided": "count",
}


def _is_confl(module_name: str) -> bool:
    return module_name == "confl" or module_name.startswith("confl.")


class Confl:
    """The confl modules the benchmark drives, from one fresh import."""

    MODULES = ("certificate", "completion", "criteria", "critical_pairs", "reversibility",
               "rewriting", "termination", "trs_format")

    def __init__(self):
        for name in [m for m in sys.modules if _is_confl(m)]:
            del sys.modules[name]
        self.modules = {m: importlib.import_module("confl." + m) for m in self.MODULES}
        completion = self.modules["completion"]
        self.criteria = completion.COMPLETION_CRITERIA
        self.check_confluence = completion.check_confluence
        self.certificate_text = self.modules["certificate"].certificate_text
        self.verify_certificate = self.modules["certificate"].verify_certificate
        self.parse_trs = self.modules["trs_format"].parse_trs
        self.clear_cache = self.modules["termination"].clear_cache
        # the reach-set call count is one of the counts that must repeat; one
        # increment a call costs nothing next to the reach-set search itself
        self.reach_set_calls = 0
        criteria = self.modules["criteria"]
        reach_set_bounded = criteria.reach_set_bounded

        def counted(*args, **kwargs):
            self.reach_set_calls += 1
            return reach_set_bounded(*args, **kwargs)

        criteria.reach_set_bounded = counted


def _tree(depth: int, k: int):
    return ("f", (_tree(depth - 1, k), _tree(depth - 1, k + 1))) if depth else ("c", k)


def _size(t) -> int:
    return 1 + sum(_size(a) for a in t[1]) if isinstance(t[1], tuple) else 1


def calibration_loop() -> int:
    """Fixed work of the kind term rewriting does, independent of confl so that
    a change to the prover cannot move it: nested tuples built and walked,
    then a few megabytes of them hashed into a dict and looked up."""
    total = 0
    for k in range(20):
        total += _size(_tree(8, k))
    seen = {_tree(6, k): k for k in range(200)}
    for k in range(200):
        total += seen[_tree(6, k)]
    return total


class Clock:
    """Times calls, and turns their intervals into seconds at the reference
    machine speed."""

    REUSE_S = 0.005  # a probe that ended this recently still describes the machine
    MIN_WINDOW_S = 0.1

    def __init__(self):
        self.probes: list = []  # seconds the calibration loop took, in order
        self._mid: list = []  # the probes' mid-points
        self._last_end = float("-inf")

    def probe(self):
        if perf_counter() - self._last_end <= self.REUSE_S:
            return
        # the loop makes no cycles; with the collector off its time does not
        # depend on how large the prover's heap has grown
        gc.disable()
        try:
            t0 = perf_counter()
            calibration_loop()
            t1 = perf_counter()
        finally:
            gc.enable()
        self.probes.append(t1 - t0)
        self._mid.append((t0 + t1) / 2)
        self._last_end = t1

    def time(self, fn, *args):
        """(fn's result, (start, end) of the call), with probes around it."""
        self.probe()
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        self.probe()
        return out, (t0, t1)

    def seconds(self, interval) -> float:
        """The interval's length at the reference speed: scaled by the loop's
        median over a window that reaches as far as the call lasted on either
        side, so a long call is judged by the speed around all of it."""
        t0, t1 = interval
        pad = max(t1 - t0, self.MIN_WINDOW_S)
        lo = bisect_left(self._mid, t0 - pad)
        hi = bisect_right(self._mid, t1 + pad)
        return (t1 - t0) * REFERENCE_PROBE_S / statistics.median(self.probes[lo:hi])


def set_up(workload: str, seed: int):
    """Import confl afresh, make the inputs and parse them.

    Returns (confl, [(problem, trs)], seconds spent parsing).
    """
    confl = Confl()
    texts = workload_texts(workload, seed)
    t0 = perf_counter()
    inputs = [(problem, confl.parse_trs(text)) for problem, text in texts]
    return confl, inputs, perf_counter() - t0


def judge(confl: Confl, problem, trs, result, cert: str, clock: Clock):
    """((start, end) of the replay or None, failure or None) for one answer.

    A YES must come with a certificate that verify_certificate accepts against
    the parsed problem, and an input known to be non-confluent is never YES.
    A reason starting with "timed out" is a failure too.
    """
    if result.reason.startswith("timed out"):
        return None, "timed out"
    if result.verdict != "YES":
        return None, None
    if problem.known == NON_CONFLUENT:
        return None, "YES on an input known to be non-confluent"
    (ok, problems), interval = clock.time(confl.verify_certificate, cert, trs)
    if not ok:
        return interval, "certificate rejected: " + "; ".join(problems[:3])
    return interval, None


def counts_of(result, reach_calls: int) -> dict:
    """The per-input counts that must repeat exactly on the same code."""
    families: dict = {}
    if result.report is not None:
        for ev in result.report.evidence:
            families[ev.condition] = families.get(ev.condition, 0) + 1
        for f in result.report.failing:
            families[f.origin] = families.get(f.origin, 0) + 1
    return {
        "verdict": result.verdict,
        "explored": result.explored,
        "history": len(result.history),
        "pairs": dict(sorted(families.items())),
        "reach_set_calls": reach_calls,
    }


def prove_once(confl: Confl, trs):
    """(result, certificate text, (start, end) of rendering)."""
    result = confl.check_confluence(trs, criteria=confl.criteria, **CLI_DEFAULTS)
    t1 = perf_counter()
    cert = confl.certificate_text(trs, result)
    return result, cert, (t1, perf_counter())


def _enough(intervals: list, repeat: bool) -> bool:
    return (not repeat or len(intervals) >= MAX_REPEATS
            or sum(t1 - t0 for t0, t1 in intervals) >= MIN_INPUT_S)


def decide(confl: Confl, problem, trs, clock: Clock, repeat: bool, tracer: Tracer | None):
    """Decide one input (again while `repeat` asks for more samples) and
    replay its certificate likewise.

    Returns (prove intervals, verify intervals, counts, failure or None).
    """
    prove, verify, counts = [], [], None
    while True:
        confl.clear_cache()  # a command line run starts with an empty cache
        confl.reach_set_calls = 0
        if tracer is not None:
            tracer.new_input()
        (result, cert, rendering), interval = clock.time(prove_once, confl, trs)
        prove.append(interval)
        if tracer is not None:
            tracer.record("certificate.render", *rendering)
            tracer.counts["certificate.bytes"] += len(cert.encode())
        got = counts_of(result, confl.reach_set_calls)
        if counts is not None and got != counts:
            return prove, verify, counts, "counts differ between repetitions"
        counts = got
        if _enough(prove, repeat):
            break
    while True:
        interval, failure = judge(confl, problem, trs, result, cert, clock)
        if failure is not None or result.verdict != "YES":
            return prove, verify, counts, failure
        verify.append(interval)
        if _enough(verify, repeat):
            return prove, verify, counts, None


class Measurement:
    """Samples of one run: times per input, set-up times, per-pass answers."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.prove = defaultdict(list)
        self.verify = defaultdict(list)
        self.traced_prove = defaultdict(list)
        self.setup: list = []
        self.parse: list = []
        self.passes: list = []  # per pass: {"counts", "failures", "decided"}
        self.layers: list = []  # per traced pass: per-layer metrics
        self.clock = Clock()

    def sample_set_up(self):
        """Time more set-ups; the confl modules in use are restored after each."""
        in_use = {k: v for k, v in sys.modules.items() if _is_confl(k)}
        for _ in range(SETUP_SAMPLES_PER_PASS):
            (_, _, parse), interval = self.clock.time(set_up, self.workload, self.seed)
            self.setup.append(interval)
            self.parse.append(parse)
            for name in [m for m in sys.modules if _is_confl(m)]:
                del sys.modules[name]
            sys.modules.update(in_use)

    def run_pass(self, confl: Confl, inputs, tracer: Tracer | None = None):
        """One pass over the inputs in sequence; a traced pass repeats nothing,
        so its per-layer metrics describe one decision per input."""
        repeat = tracer is None
        prove = self.prove if tracer is None else self.traced_prove
        counts, failures, decided = {}, {}, 0
        for problem, trs in inputs:
            root = tracer.open("input", problem.name) if tracer is not None else None
            try:
                p, v, c, failure = decide(confl, problem, trs, self.clock, repeat, tracer)
            except Exception:  # one input's crash is a failed answer, not a crashed benchmark
                traceback.print_exc(file=sys.stderr)
                failures[problem.name] = "exception"
                continue
            finally:
                if root is not None:
                    tracer.close(root)
            prove[problem.name] += p
            if tracer is None:
                self.verify[problem.name] += v
            counts[problem.name] = c
            if failure is not None:
                failures[problem.name] = failure
            elif c["verdict"] == "YES":
                decided += 1
        self.passes.append({"counts": counts, "failures": failures, "decided": decided})
        print(f"pass {len(self.passes)}{' traced' if tracer else ''}: "
              f"prove_s {self.total(prove):.3f}", file=sys.stderr)

    def total(self, intervals: dict) -> float:
        """Each input's median time at the reference speed, summed over the inputs."""
        return sum(statistics.median(self.clock.seconds(iv) for iv in ivs)
                   for ivs in intervals.values() if ivs)

    def measure(self, confl: Confl, inputs, seconds: float, tracer: Tracer | None = None):
        """Passes while another one fits in `seconds`, at least one.  With a
        tracer, each pass is an untraced pass followed by a traced one."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.sample_set_up()
            self.run_pass(confl, inputs)
            if tracer is not None:
                tracer.install(confl.modules)
                try:
                    first_span = tracer.new_pass()
                    self.run_pass(confl, inputs, tracer)
                    self.layers.append(tracer.layer_metrics(first_span))
                finally:
                    tracer.uninstall()
            if perf_counter() - start + (perf_counter() - t0) > seconds:
                return


def reference_counts(m: Measurement) -> dict:
    """The counts every pass must repeat: those an earlier run of the same code
    on this workload recorded in out/, else this run's first pass."""
    fingerprint = source_fingerprint()
    path = OUT / f"counts-{m.workload}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    if earlier.get("fingerprint") == fingerprint:
        return earlier["counts"]
    first = m.passes[0]["counts"]
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps({"fingerprint": fingerprint, "counts": first},
                               indent=1, sort_keys=True))
    return first


def source_fingerprint() -> str:
    """A hash of the prover's sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "confl").glob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "confl" / "__init__.py").is_file():
        print(f"no confl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    m = Measurement(args.workload, args.seed)
    (confl, inputs, parse), interval = m.clock.time(set_up, args.workload, args.seed)
    m.setup.append(interval)
    m.parse.append(parse)
    tracer = Tracer() if args.trace else None
    m.measure(confl, inputs, args.seconds, tracer)

    expected = reference_counts(m)
    attempted = failed = 0
    for i, p in enumerate(m.passes):
        for problem, _trs in inputs:
            attempted += 1
            why = p["failures"].get(problem.name)
            if why is None and p["counts"][problem.name] != expected.get(problem.name):
                why = "counts differ from those of an earlier pass or run of the same code"
            if why is not None:
                failed += 1
                print(f"FAILED {args.workload}/{problem.name} pass {i + 1}: {why}",
                      file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median(m.clock.seconds(iv) for iv in m.setup),
            "prove_s": m.total(m.prove),
            "verify_s": m.total(m.verify),
            "peak_rss_mb": peak_rss_mb(),
            "decided": min(p["decided"] for p in m.passes),
        }
        units = END_TO_END
    else:
        values = median_metrics(m.layers)
        values["trs_format.parse_s"] = statistics.median(m.parse)
        values["trace.untraced_prove_s"] = m.total(m.prove)
        values["trace.traced_prove_s"] = m.total(m.traced_prove)
        values["trace.overhead_share"] = (
            values["trace.traced_prove_s"] / values["trace.untraced_prove_s"] - 1)
        units = LAYER_METRICS
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(f"{args.workload}: {len(m.passes)} pass(es), {attempted} answers, {failed} failed, "
          f"failed_share {failed / attempted:.4f}; calibration loop median "
          f"{statistics.median(m.clock.probes) * 1e3:.2f} ms over "
          f"{len(m.clock.probes)} probes "
          f"(reference {REFERENCE_PROBE_S * 1e3:.2f} ms)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
