"""Termination engines and certificate replay."""
import os
import stat
from itertools import product

import pytest

from confl import termination
from confl.completion import check_confluence, decompose
from confl.rewriting import Rule, Trs, empty_trs
from confl.run import Run
from confl.termination import (
    MalformedCertificate,
    TerminationCertificate,
    _find_interpretation,
    _shapes_strict,
    _shapes_weak,
    dependency_pairs,
    lpo_gt,
    prove_relative_termination,
    prove_termination,
    replay_certificate,
)
from confl.terms import App, positions, signature, subterm_at

from systems import ALL_SYSTEMS, A, C, P_CA, S3, S6, f2, g1, plus, s, x, y, zero


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
    assert set(cert.p_names) == {"C", "A"}
    assert replay_certificate(S3, P_CA, cert)


def test_relative_termination_fails_for_swapping_successor():
    # +(x,s(y)) -> +(s(x),y) loops modulo commutativity
    cert, why = prove_relative_termination(S6, Trs([C]))
    assert cert is None
    assert why


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
        assert set(cert.s_names) == {r.name for r in s2}
        assert set(cert.p_names) == {r.name for r in p2}
        assert replay_certificate(s2, p2, cert)


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
        bad = TerminationCertificate(
            "lpo", cert.s_names, precedence=tuple(reversed(cert.precedence))
        )
        assert not replay_certificate(S3, empty_trs(), bad)
    rel, _ = prove_relative_termination(S3, P_CA)
    # dropping the final rounds leaves rules unaccounted for
    bad_rel = TerminationCertificate("poly", rel.s_names, rel.p_names, rounds=rel.rounds[:1])
    assert replay_certificate(S3, P_CA, bad_rel) in (False,) or len(rel.rounds) == 1
    with pytest.raises(MalformedCertificate):
        replay_certificate(
            S3,
            P_CA,
            TerminationCertificate("poly", rel.s_names, rel.p_names, rounds=()),
        )
    with pytest.raises(MalformedCertificate):
        replay_certificate(S3, P_CA, TerminationCertificate("voodoo", rel.s_names, rel.p_names))


def test_lpo_certificates_are_not_relative():
    cert = TerminationCertificate("lpo", ("C",), ("A",), precedence=("+",))
    with pytest.raises(MalformedCertificate):
        replay_certificate(Trs([C]), Trs([A]), cert)


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
        for p in positions(r.rhs):
            u = subterm_at(r.rhs, p)
            if isinstance(u, App) and u.fn in defined:
                k += 1
                dps.append(Rule(App(r.lhs.fn + "#", r.lhs.args), App(u.fn + "#", u.args),
                                f"{r.name}#{k}"))
    return dps


@pytest.mark.parametrize("trs", ALL_SYSTEMS, ids=[f"R{i}" for i in range(1, 9)])
def test_dependency_pairs_keep_their_names_and_order(trs):
    for s_trs, _ in decompose(trs, 10):
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
    got = _find_interpretation(*args, **kwargs)
    want = product_find_interpretation(*args, **kwargs)
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
    for args, kwargs in calls:
        assert_same_search(args, kwargs)


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
