"""Termination engines and certificate replay."""
import math
import os
import stat
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confl import termination
from confl.completion import check_confluence, decompose
from confl.rewriting import Rule, Trs, empty_trs
from confl.run import Run, TimedOut
from confl.termination import (
    MalformedCertificate,
    TerminationCertificate,
    _find_interpretation,
    _shapes_strict,
    _shapes_weak,
    dependency_pairs,
    dp_graph,
    homeomorphic_embeds,
    lpo_gt,
    prove_relative_termination,
    prove_termination,
    replay_certificate,
    run_external_prover,
)
from confl.terms import App, fun_subterms, signature, subterm_at
from confl.trs_format import parse_trs

from systems import (ALL_SYSTEMS, CHAIN4, R6, R7, R8, RA, RC, SWAP, A, C, P_CA, S3, S6, dbl, f2,
                     g1, h1, plus, s, x, y, zero)


def test_empty_system_is_trivially_terminating():
    cert, why = prove_termination(empty_trs())
    assert cert is not None and cert.method == "trivial"
    assert replay_certificate(empty_trs(), empty_trs(), cert)


def test_add_rules_terminate_and_replay():
    cert, why = prove_termination(S3)
    assert cert is not None, why
    assert replay_certificate(S3, empty_trs(), cert)


def test_self_embedding_rule_fails_with_reason():
    loop = Trs([Rule(g1(x), g1(g1(x)), "exp")])
    cert, why = prove_termination(loop)
    assert cert is None
    assert why  # a structural explanation, not just silence
    assert "exp" in why or "right" in why or "embed" in why


def test_duplicating_rule_needs_poly_or_dp():
    dup = Trs([Rule(App("dbl", (x,)), plus(x, x), "dbl")])
    cert, why = prove_termination(dup)
    assert cert is not None, why
    assert replay_certificate(dup, empty_trs(), cert)


def test_relative_termination_of_add_over_assoc_comm():
    cert, why = prove_relative_termination(S3, P_CA)
    assert cert is not None, why
    assert cert.method == "poly"
    assert replay_certificate(S3, P_CA, cert)
    # the certificate is for the systems the caller hands over: relative to
    # a P it does not weakly orient, its rounds do not hold
    assert not replay_certificate(S3, Trs([Rule(plus(x, y), plus(plus(x, y), y), "grow")]), cert)


def test_relative_termination_fails_for_swapping_successor():
    # +(x,s(y)) -> +(s(x),y) loops modulo commutativity
    cert, why = prove_relative_termination(S6, Trs([C]))
    assert cert is None
    assert why


def s_tower(n, t=x):
    for _ in range(n):
        t = s(t)
    return t


def test_self_embedding_reason_keeps_the_deadline():
    # Toyama's system plus s²²(x) -> s²¹(x): every engine fails, and the
    # structural reason then compares the 22-deep sides, once per node pair
    trs = parse_trs("(VAR x y)\n(RULES\n  f(a,b,x) -> f(x,x,x)\n  g(x,y) -> x\n"
                    f"  g(x,y) -> y\n  {s_tower(22)!r} -> {s_tower(21)!r}\n)\n")
    start = time.monotonic()
    assert check_confluence(trs, timeout=2).verdict == "MAYBE"
    assert time.monotonic() - start < 3
    assert homeomorphic_embeds(s_tower(21), s_tower(22))
    assert not homeomorphic_embeds(s_tower(22), s_tower(21))
    with pytest.raises(TimedOut, match="termination"):
        homeomorphic_embeds(s_tower(22), s_tower(21), Run(timeout=-1))


def renamed(trs, prefix):
    """The same rules under other names, in reverse order."""
    return Trs([Rule(r.lhs, r.rhs, prefix + r.name) for r in reversed(trs.rules)])


def test_certificate_names_the_callers_rules():
    # a system already proved under other names and in another order: the
    # certificate handed back must speak the caller's names and replay
    for p_trs in (empty_trs(), P_CA):
        first, why = prove_relative_termination(S3, p_trs)
        assert first is not None, why
        s2, p2 = renamed(S3, "s_"), renamed(p_trs, "p_")
        cert, why = prove_relative_termination(s2, p2)
        assert cert is not None, why
        assert replay_certificate(s2, p2, cert)
        if cert.method == "poly":  # poly rounds name the rules they remove
            with pytest.raises(MalformedCertificate, match="removes unknown rule"):
                replay_certificate(S3, p_trs, cert)


def test_lpo_ground_facts():
    prec = {"+": 2, "s": 1, "0": 0}
    assert lpo_gt(plus(zero, y), y, prec)
    assert lpo_gt(plus(s(x), y), s(plus(x, y)), prec)
    assert not lpo_gt(y, plus(zero, y), prec)
    assert not lpo_gt(plus(x, y), plus(y, x), prec)  # no swap under lpo


def test_replay_rejects_name_mismatch():
    cert, _ = prove_termination(S3)
    other = Trs([Rule(g1(x), x, "peel")])
    with pytest.raises(MalformedCertificate):
        replay_certificate(other, empty_trs(), cert)


def test_replay_rejects_tampered_claims():
    cert, _ = prove_termination(S3)
    if cert.method == "lpo":
        bad = TerminationCertificate("lpo", tuple(reversed(cert.facts)))
        assert not replay_certificate(S3, empty_trs(), bad)
    rel, _ = prove_relative_termination(S3, P_CA)
    # dropping the final rounds leaves rules unaccounted for
    bad_rel = TerminationCertificate("poly", rel.facts[:1])
    assert replay_certificate(S3, P_CA, bad_rel) in (False,) or len(rel.facts) == 1
    with pytest.raises(MalformedCertificate):
        replay_certificate(
            S3,
            P_CA,
            TerminationCertificate("poly", ()),
        )
    with pytest.raises(MalformedCertificate):
        replay_certificate(S3, P_CA, TerminationCertificate("voodoo"))


@pytest.mark.parametrize("cert", [
    TerminationCertificate("trivial", ("+",)),
    TerminationCertificate("external", ((), ())),
], ids=["trivial-precedence", "external-dp-rounds"])
def test_a_fact_its_method_does_not_read_is_rejected(cert):
    # trivial and external certificates have no facts
    with pytest.raises(MalformedCertificate, match=f"a {cert.method} certificate has no facts"):
        replay_certificate(S3, empty_trs(), cert)


def test_lpo_certificates_are_not_relative():
    cert = TerminationCertificate("lpo", ("+",))
    with pytest.raises(MalformedCertificate):
        replay_certificate(Trs([C]), Trs([A]), cert)


def test_external_certificates_are_not_relative(tmp_path):
    # the hook is asked whether S terminates, which says nothing of S/P';
    # the hook named is never run, and no file holds it
    with pytest.raises(MalformedCertificate, match="cannot be relative"):
        replay_certificate(Trs([C]), Trs([A]), TerminationCertificate("external"),
                           hook=str(tmp_path / "absent"))


# f(a) -> f(b) -> f(a) -> ...; under f(x) = 0x + 2, b -> a decreases and
# f(a) -> f(b) does not increase, so a non-monotone f "removes" b -> a first
LOOP = parse_trs("(RULES\n  f(a) -> f(b)\n  b -> a\n)\n")


def _loop_rounds(f_shape, a=("lin", (), 2)):
    return (((("a", a), ("b", ("lin", (), 3)), ("f", f_shape)), ("r2",)),
            ((("a", ("lin", (), 3)), ("b", ("lin", (), 2)), ("f", ("lin", (1,), 0))), ("r1",)))


@pytest.mark.parametrize("cert", [
    TerminationCertificate("poly", _loop_rounds(("lin", (0,), 2))),
    TerminationCertificate("poly", _loop_rounds(("sq", 0))),
    TerminationCertificate("poly", _loop_rounds(("lin", (0.5,), 2))),
    TerminationCertificate("poly", _loop_rounds(("lin", (1,), 0), a=("lin", (), 1))),
    TerminationCertificate("dp", (((("f#", ("lin", (-1,), 0)),), ("r1#1",)),)),
], ids=["zero-coefficient", "zero-square", "fraction", "constant-below-2", "dp-negative"])
def test_a_non_monotone_interpretation_is_rejected(cert):
    # each round's interpretation must be strictly monotone over the
    # naturals >= 2 (poly), or weakly monotone over the naturals (dp)
    with pytest.raises(MalformedCertificate, match="non-monotone"):
        replay_certificate(LOOP, empty_trs(), cert)


def test_external_hook(tmp_path):
    yes = tmp_path / "yes.sh"
    yes.write_text("#!/bin/sh\necho YES\n")
    os.chmod(yes, os.stat(yes).st_mode | stat.S_IEXEC)
    no = tmp_path / "no.sh"
    no.write_text("#!/bin/sh\necho MAYBE\n")
    os.chmod(no, os.stat(no).st_mode | stat.S_IEXEC)

    # a system none of the internal engines can handle
    hard = Trs([Rule(f2(g1(x), y), f2(y, g1(y)), "tricky"), Rule(g1(g1(x)), g1(x), "gg")])
    cert, why = prove_termination(hard, run=Run(hook=str(no)))
    cert2, why2 = prove_termination(hard, run=Run(hook=str(yes)))
    if cert is not None or cert2 is None:
        # internal engines decided it; the hook is then irrelevant
        pytest.skip("internal engines handled the probe system")
    assert cert2.method == "external"
    # external certificates replay only when the hook is available again
    assert replay_certificate(hard, empty_trs(), cert2, hook=str(yes))
    assert not replay_certificate(hard, empty_trs(), cert2, hook=None)
    assert not replay_certificate(hard, empty_trs(), cert2, hook=str(no))


def test_external_hook_is_stopped_after_its_first_line(tmp_path):
    # the hook answers at once and then would run on; only its first line is
    # read, so the answer comes well before the timeout
    hook = tmp_path / "yes-then-sleep.sh"
    hook.write_text("#!/bin/sh\necho YES\nexec sleep 10\n")
    os.chmod(hook, os.stat(hook).st_mode | stat.S_IEXEC)
    start = time.monotonic()
    assert run_external_prover(str(hook), Trs([Rule(g1(g1(x)), g1(x), "gg")]), timeout=2)
    assert time.monotonic() - start < 1


def test_proof_is_deterministic():
    cert1, _ = prove_termination(S3)
    cert2, _ = prove_termination(S3)
    assert cert1 == cert2


def positions_dependency_pairs(s_trs):
    """dependency_pairs as first written: every position of a right side,
    each found again from the root."""
    defined = {r.lhs.fn for r in s_trs}
    dps = []
    for r in s_trs:
        k = 0
        for p, _ in fun_subterms(r.rhs):
            u = subterm_at(r.rhs, p)
            if u.fn in defined:
                k += 1
                dps.append(Rule(App(r.lhs.fn + "#", r.lhs.args), App(u.fn + "#", u.args),
                                f"{r.name}#{k}"))
    return dps


@pytest.mark.parametrize("trs", ALL_SYSTEMS, ids=[f"R{i}" for i in range(1, 9)])
def test_dependency_pairs_keep_their_names_and_order(trs):
    for s_trs, _ in decompose(trs):
        got = [(d.name, d.lhs, d.rhs) for d in dependency_pairs(s_trs)]
        assert got == [(d.name, d.lhs, d.rhs) for d in positions_dependency_pairs(s_trs)]


def product_find_interpretation(weak_rules, strict_candidates, shapes_for, *, shift,
                                cap=300_000, run=None):
    """_find_interpretation as first written: every combination in product
    order, weak rules checked only at a full assignment (and no deadline)."""
    sig = signature(t for r in list(weak_rules) + list(strict_candidates) for t in (r.lhs, r.rhs))
    names = list(sig)
    lists = [shapes_for(f, sig[f]) for f in names]
    total = 1
    for l in lists:
        total *= len(l)
    if total > cap:
        return None
    rules = list(dict.fromkeys(list(weak_rules) + list(strict_candidates)))
    rule_syms = {id(r): list(signature((r.lhs, r.rhs))) for r in rules}
    cache = {}

    def decrease(r, assign):
        key = (id(r), tuple(assign[f] for f in rule_syms[id(r)]))
        if key not in cache:
            cache[key] = termination.rule_decrease(assign, r, shift=shift)
        return cache[key]

    for combo in product(*lists):
        assign = dict(zip(names, combo))
        if not all(decrease(r, assign)[0] for r in weak_rules):
            continue
        strict = [r for r in strict_candidates if decrease(r, assign)[1]]
        if strict:
            return assign, strict
    return None


def assert_same_search(args, kwargs):
    assert_same_answer(_find_interpretation(*args, **kwargs),
                       product_find_interpretation(*args, **kwargs))


def assert_same_answer(got, want):
    """The same assignment, in the same key order, and the same strict rules."""
    if want is None:
        assert got is None
        return
    assert got is not None
    assert list(got[0].items()) == list(want[0].items())
    assert [id(r) for r in got[1]] == [id(r) for r in want[1]]


CHAIN3 = Trs([Rule(g1(plus(App("a0"), plus(App("a1"), App("a2")))), App("c"), "g"), C, A])


def test_pruned_interpretation_search_finds_the_product_order_answer(monkeypatch):
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return _find_interpretation(*args, **kwargs)

    monkeypatch.setattr(termination, "_find_interpretation", record)
    for trs in ALL_SYSTEMS + [CHAIN3]:
        assert check_confluence(trs).verdict == "YES"
    kinds = {(args[2], kwargs["shift"]) for args, kwargs in calls}
    assert kinds == {(_shapes_strict, True), (_shapes_weak, False)}
    # runs that end MAYBE search too, and their searches answer alike
    for trs in (CHAIN4, SWAP):
        assert check_confluence(trs).verdict == "MAYBE"
    # replayed against its run's final memo, and on a fresh run
    assert all(isinstance(kwargs["run"], Run) for _, kwargs in calls)
    for args, kwargs in calls:
        assert_same_search(args, kwargs)
        assert_same_search(args, {**kwargs, "run": Run()})


def test_pruned_interpretation_search_edge_cases():
    # a signature whose shape combinations exceed the cap
    wide = Rule(App("f", (x, y)), App("g", (App("h", (x,)), App("k", (y,)))), "wide")
    assert _find_interpretation([wide], [wide], _shapes_strict, shift=True, cap=1000) is None
    assert_same_search(([wide], [wide], _shapes_strict), {"shift": True, "cap": 1000})
    # every weak rule holds under some assignment, none is ever strict
    assert _find_interpretation([C], [C], _shapes_strict, shift=True) is None
    assert_same_search(([C], [C], _shapes_strict), {"shift": True})
    assert_same_search(([C, A], [C], _shapes_weak), {"shift": False})
    # no rules, no symbols: no interpretation removes anything
    assert _find_interpretation([], [], _shapes_strict, shift=True) is None
    assert_same_search(([], [], _shapes_strict), {"shift": True})


def counted_shape_values(monkeypatch) -> list:
    """The shapes of every `shape_value` call from now on, in call order."""
    calls = []
    shape_value = termination.shape_value

    def counted(shape, args):
        calls.append(shape)
        return shape_value(shape, args)

    monkeypatch.setattr(termination, "shape_value", counted)
    return calls


def test_deciding_r8_values_each_subterm_few_times(monkeypatch):
    # a subterm is valued again only when a symbol under it gets a new
    # shape, and one polynomial under one shape is valued once per search
    calls = counted_shape_values(monkeypatch)
    assert check_confluence(R8).verdict == "YES"
    assert len(calls) <= 15_000


def test_deciding_r8_resumes_the_searches_it_settled(monkeypatch):
    # pp_safe's greedy loop asks R8's splits nearly the same questions: four
    # are answered by a recorded failure, and others start past the
    # assignments an earlier answer rules out
    calls = counted_shape_values(monkeypatch)
    assert check_confluence(R8).verdict == "YES"
    assert len(calls) <= 3_500


def test_a_settled_failure_answers_a_harder_search_without_valuing(monkeypatch):
    # C and A with either one strict: no interpretation manages it
    run = Run()
    assert _find_interpretation([C, A], [C, A], _shapes_strict, shift=True, run=run) is None
    calls = counted_shape_values(monkeypatch)
    harder = ([C, A, A.inverse()], [A], _shapes_strict)
    assert _find_interpretation(*harder, shift=True, run=run) is None
    assert calls == []
    assert_same_search(harder, {"shift": True, "run": Run()})


def test_a_resumed_search_starts_deeper_levels_afresh_past_the_floor():
    # c alone answers (0, 0, 1) over f, g, h; with a weak too, that fails,
    # and the answer (0, 1, 0) lies past the floor with a lower last choice
    run = Run()
    assert _find_interpretation([RC], [RC], _shapes_strict, shift=True, run=run) is not None
    (records,) = run.interpretations.values()
    assert list(records.values()) == [(0, 0, 1)]
    assert_same_search(([RC, RA], [RC], _shapes_strict), {"shift": True, "run": run})
    assert list(records.values()) == [(0, 0, 1), (0, 1, 0)]


def test_a_search_cut_off_by_the_deadline_records_nothing(monkeypatch):
    same = App("f", (App("g", (App("h", (App("k", (x,)),)),)),))
    rule = Rule(same, same, "same")
    run = Run(timeout=0)
    with pytest.raises(TimedOut, match="termination"):
        _find_interpretation([rule], [rule], _shapes_strict, shift=True, run=run)
    assert not any(run.interpretations.values())
    run.deadline = math.inf
    calls = counted_shape_values(monkeypatch)
    assert _find_interpretation([rule], [rule], _shapes_strict, shift=True, run=run) is None
    assert calls


def _pool(trs, every: App) -> list:
    """every -> every, then trs's rules and the inverses of its bidirectional
    ones.  The first rule, weak under every interpretation and strict under
    none, holds every symbol: first among a search's weak rules, it fixes the
    search's signature, so the searches that hold it share their records."""
    inverses = [r.inverse() for r in trs if r.is_bidirectional()]
    return [Rule(every, every, "every"), *trs.rules, *inverses]


POOLS = [_pool(R6, dbl(plus(s(zero), x))), _pool(R8, f2(g1(x), h1(x)))]


# a run's records never change an answer: sequences of searches, many of
# them an earlier one made harder or easier, on one run and on fresh ones
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_a_shared_run_answers_every_search_as_a_fresh_run_does(data):
    pool = data.draw(st.sampled_from(POOLS))
    shapes_for, shift = data.draw(st.sampled_from([(_shapes_strict, True),
                                                   (_shapes_weak, False)]))
    first = [0] if data.draw(st.booleans()) else []
    rules = st.lists(st.sampled_from(range(1, len(pool))), unique=True, max_size=6).map(sorted)
    run = Run()
    asked: list = []
    for _ in range(data.draw(st.integers(2, 8))):
        how = data.draw(st.sampled_from(["new", "harder", "easier"] if asked else ["new"]))
        if how == "new":
            weak, strict = first + data.draw(rules), data.draw(rules)
        else:
            # an earlier search with weak rules added and candidates dropped
            # (harder), or the other way round (easier)
            weak, strict = data.draw(st.sampled_from(asked))
            added, kept = data.draw(rules), first + data.draw(rules)
            if how == "harder":
                weak, strict = sorted({*weak, *added}), [i for i in strict if i in kept]
            else:
                weak, strict = [i for i in weak if i in kept], sorted({*strict, *added})
        asked.append((weak, strict))
        args = ([pool[i] for i in weak], [pool[i] for i in strict], shapes_for)
        got = _find_interpretation(*args, shift=shift, run=run)
        assert_same_answer(got, _find_interpretation(*args, shift=shift, run=Run()))


def test_an_exhausted_interpretation_search_keeps_the_deadline():
    # every interpretation orients the rule weakly and none strictly, so the
    # search tries all 9⁴ assignments of its four unary symbols and fails
    same = App("f", (App("g", (App("h", (App("k", (x,)),)),)),))
    rule = Rule(same, same, "same")
    assert _find_interpretation([rule], [rule], _shapes_strict, shift=True) is None
    with pytest.raises(TimedOut, match="termination"):
        _find_interpretation([rule], [rule], _shapes_strict, shift=True, run=Run(timeout=0))


def test_dp_graph_renames_each_pair_once(monkeypatch):
    dps = dependency_pairs(R7)
    defined = {r.lhs.fn for r in R7}
    edges = dp_graph(dps, defined)
    renamed = []

    def counting(rule):
        renamed.append(rule)
        return rename_apart(rule)

    rename_apart = Rule.rename_apart
    monkeypatch.setattr(Rule, "rename_apart", counting)
    assert dp_graph(dps, defined) == edges
    assert len(dps) == 11 and len(renamed) == len(dps)


def test_dependency_pairs_and_their_graph_keep_the_deadline():
    dps = dependency_pairs(R7)
    check = Run(timeout=0).check
    with pytest.raises(TimedOut, match="termination"):
        dependency_pairs(R7, check=check)
    with pytest.raises(TimedOut, match="termination"):
        dp_graph(dps, {r.lhs.fn for r in R7}, check=check)
