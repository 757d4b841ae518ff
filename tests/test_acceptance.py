"""End-to-end acceptance gate for the whole package.

Eight checks, each printing one ``acceptance N PASS/FAIL`` line (visible with
``pytest -s``):

1. the criteria matrix over the reference partitions, exact verdict per cell;
2. fully automatic confluence proofs for all reference systems, including the
   completion run that has to invent the missing addition rules;
3. golden critical-pair sets for the worked examples, exact up to renaming;
4. a randomized peak oracle: critical/parallel pairs really cover all local
   peaks of left-linear systems;
5. a randomized soundness/necessity fuzz of the abstract finite-relation
   criteria;
6. every YES verdict produced anywhere in this file carries a certificate
   that the independent verifier accepts;
7. reversibility witnesses for the commutativity/associativity pair;
8. bulk unification and matching laws, cross-checked against a brute-force
   matcher.
"""
import contextlib
import random
import time
from types import SimpleNamespace

from confl.certificate import certificate_text, verify_certificate
from confl.completion import check_confluence
from confl.criteria import Partition, check_criterion
from confl.critical_pairs import CriticalPair, cp, cp_in, pcp_in
from confl.reversibility import is_reversible
from confl.rewriting import Rule, Trs, empty_trs, reach_bounded, step_at
from confl.terms import (
    App,
    Var,
    all_parallel,
    apply,
    fun_subterms,
    match_term,
    shape_key,
    subterm_at,
    term_vars,
    unify_all,
    var_ids,
)

from ars_oracle import (
    IFF_TAGS,
    TAGS,
    check_abstract_criterion,
    is_crm,
    precondition_holds,
    random_ars,
)
from helpers import cp_out, replay_reversibility
from systems import (
    ADD1,
    ADD3,
    ADD4,
    P5,
    P8,
    P_CA,
    PPRIME_SS2,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    S2,
    S3,
    S4,
    S6,
    S8,
    plus,
    s,
    x,
    y,
    z,
    zero,
)
from test_terms import VARS, generalize, random_ground_subst, random_term


@contextlib.contextmanager
def gate(number, description):
    """Print one pass/fail line per acceptance check."""
    try:
        yield
    except BaseException:
        print(f"acceptance {number} FAIL: {description}")
        raise
    print(f"acceptance {number} PASS: {description}")


# Every YES verdict in this file flows through here so check 6 can assert the
# certificate verifier accepted 100% of them.
AUDIT = {"yes": 0, "verified": 0}


def audit_certificate(problem, result):
    AUDIT["yes"] += 1
    text = certificate_text(problem, result)
    ok, problems = verify_certificate(text, problem)
    assert ok, problems
    AUDIT["verified"] += 1


def prove_and_audit(trs, **kw):
    result = check_confluence(trs, **kw)
    if result.verdict == "YES":
        audit_certificate(trs, result)
    return result


def audit_report(rep, s_trs, p_trs):
    """Run a bare criterion report through the whole certificate pipeline."""
    problem = Trs(list(s_trs) + list(p_trs))
    shim = SimpleNamespace(
        verdict="YES",
        reason="direct criterion check",
        report=rep,
        state=SimpleNamespace(history=()),
    )
    audit_certificate(problem, shim)


# --- 1. criteria matrix --------------------------------------------------------

# (label, S, P, P' setting, criterion, expected to hold)
# P' settings: "auto" lets the checker collect P' from the joins it found,
# "empty" forces the plain corollary-style check with no P' segment rules.
MATRIX = [
    ("R3", S3, P_CA, "auto", "linear", True),
    ("R3", S3, P_CA, "auto", "pcp", True),
    ("R3", S3, P_CA, "auto", "huet", True),
    ("R4", S4, P_CA, "empty", "pcp", True),
    ("R4", S4, P_CA, "auto", "linear", False),
    ("R4", S4, P_CA, "auto", "huet", True),
    ("R5", S3, P5, "empty", "linear", True),
    ("R5", S3, P5, "empty", "pcp", False),
    ("R5", S3, P5, PPRIME_SS2, "pcp", True),
    ("R5", S3, P5, "auto", "huet", False),
    ("R6", S6, P_CA, "empty", "pcp", True),
    ("R6", S6, P_CA, "auto", "linear", False),
    ("R6", S6, P_CA, "auto", "huet", False),
    ("R7", S4, P5, PPRIME_SS2, "pcp", True),
    ("R7", S4, P5, "empty", "pcp", False),
    ("R7", S4, P5, "auto", "linear", False),
    ("R7", S4, P5, "auto", "huet", False),
    ("R8", S8, P8, "empty", "linear", True),
    ("R8", S8, P8, "auto", "pcp", False),
    ("R8", S8, P8, "auto", "huet", False),
]


def test_1_criteria_matrix_on_reference_partitions():
    with gate(1, "criteria matrix matches the documented verdict for every cell"):
        for label, s_part, p_part, pp, crit, expected in MATRIX:
            if pp == "auto":
                p_prime = None
            elif pp == "empty":
                p_prime = empty_trs()
            else:
                p_prime = pp
            started = time.monotonic()
            rep = check_criterion(crit, Partition(s_part, p_part, p_prime=p_prime))
            elapsed = time.monotonic() - started
            assert elapsed <= 5.0, f"{label}/{crit} took {elapsed:.1f}s"
            assert rep.holds() == expected, f"{label}/{crit}: {rep.reason}"
            if expected:
                audit_report(rep, s_part, p_part)


# --- 2. automatic proofs -------------------------------------------------------


def test_2_all_reference_systems_proved_automatically():
    with gate(2, "every reference system gets an automatic YES with evidence"):
        started = time.monotonic()
        result = prove_and_audit(R2, max_steps=20, timeout=60.0)
        elapsed = time.monotonic() - started
        assert elapsed <= 60.0, f"R2 took {elapsed:.1f}s"
        assert result.verdict == "YES", result.reason
        assert len(result.history) <= 20
        final = result.state.system()
        # completion must have invented right-zero and right-successor rules
        assert final.contains_variant(ADD3)
        swapped = Rule(plus(x, s(y)), s(plus(y, x)), "swapped")
        assert final.contains_variant(ADD4) or final.contains_variant(swapped)

        for label, trs in (
            ("R1", R1),
            ("R3", R3),
            ("R4", R4),
            ("R5", R5),
            ("R6", R6),
            ("R7", R7),
            ("R8", R8),
        ):
            started = time.monotonic()
            res = prove_and_audit(trs, max_steps=20, timeout=60.0)
            elapsed = time.monotonic() - started
            assert res.verdict == "YES", f"{label}: {res.reason}"
            assert elapsed <= 60.0, f"{label} took {elapsed:.1f}s"


# --- 3. golden critical-pair sets ----------------------------------------------


def keyset(pairs):
    return {shape_key((p.left, p.right))[0] for p in pairs}


def expect_keys(pairs):
    return {shape_key(lr)[0] for lr in pairs}


def pkey(left, right, peak, limit_ids):
    return CriticalPair(
        left=left, right=right, kind="inner", peak=peak,
        outer_rule=None, redexes=(),
        var_limit=frozenset(limit_ids),
    ).key()


def test_3_critical_pair_sets_match_the_worked_examples():
    with gate(3, "critical-pair sets equal the worked examples up to renaming"):
        # two-rule addition fragment against plain commutativity/associativity
        assert cp_in(P_CA, S2) == []
        got_out = cp_out(S2, P_CA)
        assert keyset(got_out) == expect_keys(
            [(y, plus(y, zero)), (s(plus(x, y)), plus(y, s(x)))]
        )
        assert len(got_out) == 2
        # root overlaps are symmetric: swapping the systems flips each pair
        assert {shape_key((p.right, p.left))[0] for p in cp_out(P_CA, S2)} == keyset(
            got_out
        )
        got_in = cp_in(S2, P_CA)
        assert keyset(got_in) == expect_keys(
            [
                (plus(y, z), plus(zero, plus(y, z))),
                (plus(s(plus(x, y)), z), plus(s(x), plus(y, z))),
            ]
        )
        assert len(got_in) == 2

        # four-rule addition system against the symmetrized equations
        got_ss = cp(S3, S3)
        assert keyset(got_ss) == expect_keys(
            [
                (zero, zero),
                (s(y), s(plus(zero, y))),
                (s(plus(x, zero)), s(x)),
                (s(x), s(plus(x, zero))),
                (s(plus(zero, y)), s(y)),
                (s(plus(x, s(y))), s(plus(s(x), y))),
                (s(plus(s(x), y)), s(plus(x, s(y)))),
            ]
        )
        assert len(got_ss) == 7
        pp = P_CA.with_inverses()
        assert cp_in(pp, S3) == []
        got_spp = cp(S3, pp)
        assert keyset(got_spp) == expect_keys(
            [
                (y, plus(y, zero)),
                (plus(y, z), plus(zero, plus(y, z))),
                (plus(y, z), plus(plus(zero, y), z)),
                (plus(x, z), plus(plus(x, zero), z)),
                (s(plus(x, y)), plus(y, s(x))),
                (plus(s(plus(x, y)), z), plus(s(x), plus(y, z))),
                (s(plus(x, plus(y, z))), plus(plus(s(x), y), z)),
                (plus(x, s(plus(y, z))), plus(plus(x, s(y)), z)),
                (x, plus(zero, x)),
                (plus(x, y), plus(x, plus(y, zero))),
                (plus(y, z), plus(y, plus(zero, z))),
                (plus(x, y), plus(plus(x, y), zero)),
                (s(plus(x, y)), plus(s(y), x)),
                (s(plus(plus(x, y), z)), plus(x, plus(y, s(z)))),
                (plus(s(plus(x, y)), z), plus(x, plus(s(y), z))),
                (plus(x, s(plus(y, z))), plus(plus(x, y), s(z))),
            ]
        )
        assert len(got_spp) == 16

        # parallel pairs: one binary outer rule, two parallel inner redexes,
        # one pair per nonempty subset with the matching variable constraint
        def f2(a, b):
            return App("f", (a, b))

        def g1(a):
            return App("g", (a,))

        def h1(a):
            return App("h", (a,))

        r_big = Trs([Rule(f2(g1(x), g1(y)), h1(g1(x)), "big")])
        q = Trs([Rule(g1(x), h1(x), "gh")])
        got_par = pcp_in(q, r_big)
        peak = f2(g1(x), g1(y))
        assert {p.key() for p in got_par} == {
            pkey(f2(h1(x), h1(y)), h1(g1(x)), peak, {x.id, y.id}),
            pkey(f2(g1(x), h1(y)), h1(g1(x)), peak, {y.id}),
            pkey(f2(h1(x), g1(y)), h1(g1(x)), peak, {x.id}),
        }
        assert len(got_par) == 3


# --- 4. random peak coverage oracle --------------------------------------------


def random_peak_term(rng, ops, leaves, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    fn, ar = rng.choice(ops)
    return App(fn, tuple(random_peak_term(rng, ops, leaves, depth - 1) for _ in range(ar)))


def fun_redexes(t, rules):
    return [
        (p, r) for p, _ in fun_subterms(t) for r in rules if step_at(t, p, r) is not None
    ]


def is_prefix(p, q):
    return len(p) <= len(q) and q[: len(p)] == p


def lhs_kind(lhs, q):
    """Whether position q of an instance of lhs falls on lhs structure or
    inside one of its variable slots."""
    cur = lhs
    for i in q:
        if isinstance(cur, Var):
            return "var"
        cur = cur.args[i - 1]
    return "fun" if isinstance(cur, App) else "var"


def packed(a, b):
    return App("#", (a, b))


def covered_by(family, concrete_left, concrete_right):
    got = packed(concrete_left, concrete_right)
    return any(
        match_term(packed(pr.left, pr.right), got) is not None for pr in family
    )


def sample_peaks(rng, trs, ops, leaves, n_terms, counts):
    rules = list(trs)
    family = cp(trs, trs)
    par_family = pcp_in(trs, trs)
    for _ in range(n_terms):
        t = random_peak_term(rng, ops, leaves, 3)
        redexes = fun_redexes(t, rules)

        # ordinary peaks: one step above, one step at or below it
        for p1, r1 in redexes:
            for p2, r2 in redexes:
                if (p1, r1) == (p2, r2) or not is_prefix(p1, p2):
                    continue
                u = step_at(t, p1, r1).target  # outer
                v = step_at(t, p2, r2).target  # inner
                counts["peaks"] += 1
                if u == v:
                    continue
                q = p2[len(p1):]
                if lhs_kind(r1.lhs, q) == "fun":
                    counts["fun"] += 1
                    pair = (subterm_at(v, p1), subterm_at(u, p1))
                    assert covered_by(family, *pair), (
                        t, p1, r1.name, p2, r2.name)
                else:
                    counts["var"] += 1
                    # variable overlap: the outer step survives the inner one,
                    # and the outer result catches up via copies of the inner
                    after = step_at(v, p1, r1)
                    assert after is not None
                    assert reach_bounded(u, after.target, Trs([r2]), 2) is not None

        # parallel peaks: an outer step against parallel steps strictly below
        for p0, r0 in redexes:
            below = [
                (p, r)
                for p, r in redexes
                if len(p) > len(p0) and p[: len(p0)] == p0
            ]
            if not below:
                continue
            for _ in range(3):
                k = rng.randint(1, min(2, len(below)))
                chosen = rng.sample(below, k)
                ps = [p for p, _ in chosen]
                if not all_parallel(ps):
                    continue
                counts["peaks"] += 1
                u0 = step_at(t, p0, r0).target
                w = t
                for p, r in chosen:  # parallel positions never interfere
                    w = step_at(w, p, r).target
                if w == u0:
                    continue
                fun_part = [
                    (p, r) for p, r in chosen if lhs_kind(r0.lhs, p[len(p0):]) == "fun"
                ]
                if fun_part:
                    counts["par_fun"] += 1
                    wf = t
                    for p, r in fun_part:
                        wf = step_at(wf, p, r).target
                    pair = (subterm_at(wf, p0), subterm_at(u0, p0))
                    assert covered_by(par_family, *pair), (
                        t, p0, r0.name, fun_part)
                else:
                    counts["par_var"] += 1
                    after = step_at(w, p0, r0)
                    assert after is not None
                    small = Trs(list({r.name: r for _, r in chosen}.values()))
                    assert reach_bounded(u0, after.target, small, k) is not None


def test_4_random_peaks_are_covered_by_the_emitted_pairs():
    with gate(4, "random local peaks are instances of emitted (parallel) pairs"):
        started = time.monotonic()
        rng = random.Random(20260813)
        counts = {"peaks": 0, "fun": 0, "var": 0, "par_fun": 0, "par_var": 0}
        add_sys = S3.union(P_CA.with_inverses())
        sample_peaks(
            rng, add_sys, [("+", 2), ("s", 1)], [x, y, zero], 130, counts
        )
        swap_sys = R8
        sample_peaks(
            rng, swap_sys, [("f", 2), ("g", 1), ("h", 1)], [x, y], 130, counts
        )
        elapsed = time.monotonic() - started
        assert elapsed <= 60.0, f"peak oracle took {elapsed:.1f}s"
        assert counts["peaks"] >= 500, counts
        # the sample must actually hit every case of the analysis
        assert counts["fun"] >= 50, counts
        assert counts["var"] >= 50, counts
        assert counts["par_fun"] >= 50, counts
        assert counts["par_var"] >= 20, counts


# --- 5. abstract criteria fuzz --------------------------------------------------


def test_5_abstract_criteria_fuzz_soundness_and_necessity():
    with gate(5, "abstract criteria sound on 1000 random finite systems"):
        started = time.monotonic()
        rng = random.Random(97)
        n = 1000
        held = {tag: 0 for tag in TAGS}
        crm_count = 0
        for i in range(n):
            a = random_ars(rng)
            assert a.size <= 6
            crm = is_crm(a)
            if crm:
                crm_count += 1
            for tag in TAGS:
                holds, crm_again = check_abstract_criterion(a, tag)
                assert crm_again == crm
                if holds:
                    held[tag] += 1
                    assert crm, f"unsound on instance {i}, tag {tag}: {a}"
                if tag in IFF_TAGS and precondition_holds(a, tag) and crm:
                    assert holds, f"incomplete on instance {i}, tag {tag}: {a}"
        elapsed = time.monotonic() - started
        assert elapsed <= 120.0, f"fuzz took {elapsed:.1f}s"
        assert 0 < crm_count < n
        for tag in TAGS:
            assert 0 < held[tag] < n, f"tag {tag} never exercised both ways"


# --- 6. certificates for every YES ----------------------------------------------


def test_6_every_yes_verdict_has_a_verified_certificate():
    with gate(6, "the independent verifier accepts 100% of YES certificates"):
        for trs, crit in (
            (R1, "linear"),
            (R3, "pcp"),
            (R3, "huet"),
            (R5, "pcp"),
            (R8, "linear"),
        ):
            res = prove_and_audit(trs, criteria=(crit,), max_steps=20, timeout=60.0)
            assert res.verdict == "YES", f"{crit}: {res.reason}"
        assert AUDIT["yes"] >= 5
        assert AUDIT["yes"] == AUDIT["verified"], AUDIT


# --- 7. reversibility witnesses --------------------------------------------------


def test_7_reversibility_witnesses():
    with gate(7, "reversibility finds the length-5 reversal and rejects add1"):
        wit = is_reversible(P_CA, bound=10)
        assert wit is not None
        assert len(wit.sequence("A")) == 5
        assert len(wit.sequence("C")) == 1
        assert replay_reversibility(P_CA, wit)
        assert is_reversible(Trs([ADD1]), bound=10) is None


# --- 8. unification and matching laws --------------------------------------------


def naive_match(pat, subject, binding):
    """Brute-force structural matcher used to cross-check match_term."""
    if isinstance(pat, Var):
        if pat.id in binding:
            return binding[pat.id] == subject
        binding[pat.id] = subject
        return True
    return (
        isinstance(subject, App)
        and subject.fn == pat.fn
        and len(subject.args) == len(pat.args)
        and all(naive_match(a, b, binding) for a, b in zip(pat.args, subject.args))
    )


def test_8_unification_and_matching_laws():
    with gate(8, "unification/matching laws hold on 1000+ random cases"):
        rng = random.Random(4242)
        idempotent = sound = general = 0
        for _ in range(1100):
            # two generalizations of a shared ground term: unifiable by design
            base = random_term(rng, 3, allow_vars=False)
            theta = {}
            a = generalize(rng, base, 100, theta)
            b = generalize(rng, base, 200, theta)
            sigma = unify_all([(a, b)])
            assert sigma is not None, (a, b)
            ua, ub = apply(sigma, a), apply(sigma, b)
            assert ua == ub
            sound += 1
            assert apply(sigma, ua) == ua and apply(sigma, ub) == ub
            idempotent += 1
            # most general: the recorded common instance factors through sigma
            vs = term_vars(a) + [v for v in term_vars(b) if v.id not in var_ids(a)]
            packed_mgu = App("tup", tuple(apply(sigma, v) for v in vs))
            packed_theta = App("tup", tuple(apply(theta, v) for v in vs))
            assert match_term(packed_mgu, packed_theta) is not None
            general += 1
        assert idempotent >= 1000 and sound >= 1000 and general >= 1000

        agreements = 0
        for i in range(1100):
            pat = random_term(rng, 3)
            if i % 2 == 0:
                rho = {v.id: random_term(rng, 2) for v in VARS}
                subject = apply(rho, pat)
            else:
                subject = random_term(rng, 3)
            mu = match_term(pat, subject)
            binding = {}
            ok = naive_match(pat, subject, binding)
            assert (mu is not None) == ok, (pat, subject)
            if ok:
                assert mu == binding
                assert apply(mu, pat) == subject
            agreements += 1
        assert agreements >= 1000
