"""The names the benchmark wraps or patches must exist on the confl modules.

bench/tracing.py wraps functions at the attribute of each calling module, and
bench/run.py patches criteria.reach_set_bounded to count reach sets.  A
refactor that stops calling through those names leaves the traced benchmark
silent instead of failing, so the seams are checked here.
"""
import importlib
import importlib.util
from pathlib import Path

from confl import certificate, completion

from systems import R5

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def confl_modules(names):
    return {name: importlib.import_module("confl." + name) for name in names}


def test_wrapped_and_patched_names_exist():
    tracing = load_tracing()
    seams = [(mod, attr) for mod, attr, _span in tracing.WRAPPED]
    seams += [("termination", "clear_cache"), ("criteria", "reach_set_bounded")]
    modules = confl_modules({mod for mod, _attr in seams})
    missing = [f"confl.{mod}.{attr}" for mod, attr in seams
               if not callable(getattr(modules[mod], attr, None))]
    assert not missing


def test_traced_run_records_pcp_in_from_prover_and_verifier():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(confl_modules({mod for mod, _attr, _span in tracing.WRAPPED}))
    try:
        result = completion.check_confluence(R5)
        assert result.verdict == "YES"
        ok, problems = certificate.verify_certificate(
            certificate.certificate_text(R5, result), R5)
        assert ok, problems
    finally:
        tracer.uninstall()
    callers = {caller for _id, _parent, name, caller, _t0, _t1 in tracer.spans
               if name == "critical_pairs.pcp_in"}
    assert {"criteria", "certificate"} <= callers
