"""Termination engines and certificate replay."""
import os
import stat

import pytest

from confl.rewriting import Rule, Trs, empty_trs
from confl.termination import (
    MalformedCertificate,
    TerminationCertificate,
    clear_cache,
    lpo_gt,
    prove_relative_termination,
    prove_termination,
    replay_certificate,
)
from confl.terms import App

from systems import A, C, P_CA, S3, S6, f2, g1, plus, s, x, y, zero


def setup_function(_fn):
    clear_cache()


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
    cert, why = prove_termination(hard, hook=str(no))
    clear_cache()
    cert2, why2 = prove_termination(hard, hook=str(yes))
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
    clear_cache()
    cert2, _ = prove_termination(S3)
    assert cert1 == cert2
