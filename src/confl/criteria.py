"""Critical-pair criteria for rewrite systems split into a terminating part S
and a reversible part P.

Each checker decides one sufficient condition for Church-Rosser modulo the
conversion generated by P (and hence confluence of S ∪ P).  All reachability
searches are bounded; a "fails" outcome therefore means "not established
within the search budget", never "refuted".
"""
from dataclasses import dataclass, field
from functools import partial, partialmethod

from .terms import Term, subterm_at, var_ids
from .rewriting import (
    FuelExhausted,
    ParallelStep,
    Rule,
    Step,
    Trs,
    empty_trs,
    is_nf,
    normalize_steps,
    parallel_step_exists,
    parallel_step_witnesses,
    reach_set_bounded,
    reducts,
)
from .critical_pairs import cp, cp_in, pcp_in
from .termination import (
    TerminationCertificate,
    prove_relative_termination,
    prove_termination,
)
from .reversibility import ReversibilityWitness, is_reversible

DEFAULT_DEPTH = 10
PAIR_SCAN_CAP = 40_000


class PreconditionViolation(Exception):
    """A partition is structurally malformed (not just unprovable)."""


@dataclass(frozen=True)
class Segment:
    """One relational segment of a join.  Chains left to right: a segment's
    start is the previous segment's end.  ``reverse`` means the underlying
    steps rewrite end towards start."""

    rel: str  # "step" | "opt" | "star" | "plus" | "parallel" | "conv"
    rules: str  # "S" | "PP" | "SP" | "P"
    reverse: bool
    start: Term
    end: Term
    steps: tuple = ()

    def __post_init__(self):
        if self.rel not in ("step", "opt", "star", "plus", "parallel", "conv"):
            raise ValueError(f"unknown segment relation {self.rel!r}")
        if self.rules not in ("S", "PP", "SP", "P"):
            raise ValueError(f"unknown rule class {self.rules!r}")


@dataclass(frozen=True)
class JoinEvidence:
    criterion: str
    condition: str  # "i" | "ii" | "iii"
    branch: str  # "A" | "B"
    pair_left: Term
    pair_right: Term
    segments: tuple
    par_positions: tuple = ()  # parallel positions V (variable-condition checks)
    var_limit: frozenset = frozenset()
    peak: Term | None = None  # pair provenance, needed to re-identify pcp pairs


@dataclass(frozen=True)
class FailingPair:
    pair: object  # CriticalPair or ParallelCriticalPair
    origin: str  # which overlap family produced it
    condition: str
    left_nf: Term
    right_nf: Term
    right_is_nf: bool  # the "b" flag used by completion bookkeeping


@dataclass
class CriterionReport:
    criterion: str
    tag: str
    outcome: str  # "holds" | "fails"
    s: Trs
    p: Trs
    reason: str = ""
    evidence: list = field(default_factory=list)
    failing: list = field(default_factory=list)
    p_prime: Trs | None = None
    relterm_cert: TerminationCertificate | None = None
    term_cert: TerminationCertificate | None = None
    reversibility: ReversibilityWitness | None = None

    def holds(self) -> bool:
        return self.outcome == "holds"


# Expected segment signature per (criterion, condition, branch): a tuple of
# (rel, rules, reverse).  Certificate verification checks joins against this.
SHAPES = {
    ("linear", "i", "A"): (("star", "SP", False), ("opt", "PP", True), ("star", "SP", True)),
    ("linear", "ii", "A"): (("opt", "PP", True), ("star", "SP", True)),
    ("linear", "ii", "B"): (
        ("step", "S", False),
        ("star", "SP", False),
        ("opt", "PP", True),
        ("star", "SP", True),
    ),
    ("linear", "iii", "A"): (("star", "SP", False), ("opt", "PP", False)),
    ("linear", "iii", "B"): (
        ("star", "SP", False),
        ("opt", "PP", False),
        ("star", "SP", True),
        ("step", "S", True),
    ),
    ("parallel", "i", "A"): (("star", "SP", False), ("parallel", "PP", True), ("star", "SP", True)),
    ("parallel", "iii", "A"): (("star", "SP", False), ("parallel", "PP", False)),
    ("parallel", "iii", "B"): (
        ("star", "SP", False),
        ("parallel", "PP", False),
        ("star", "SP", True),
        ("step", "S", True),
    ),
    ("pcp", "i", "A"): (("star", "SP", False), ("parallel", "PP", True), ("star", "SP", True)),
    ("pcp", "ii", "A"): (("parallel", "PP", True), ("star", "SP", True)),
    ("pcp", "ii", "B"): (
        ("step", "S", False),
        ("star", "SP", False),
        ("parallel", "PP", True),
        ("star", "SP", True),
    ),
    ("pcp", "iii", "A"): (("star", "SP", False), ("parallel", "PP", False)),
    ("pcp", "iii", "B"): (
        ("star", "SP", False),
        ("parallel", "PP", False),
        ("star", "SP", True),
        ("step", "S", True),
    ),
    ("huet", "i", "A"): (("star", "S", False), ("conv", "P", False), ("star", "S", True)),
    ("huet", "ii", "A"): (("plus", "S", False), ("conv", "P", False), ("star", "S", True)),
    ("huet", "iii", "A"): (("star", "S", False), ("conv", "P", False), ("plus", "S", True)),
}

# What each criterion checks, for the prover and the verifier alike:
# (linearity precondition, conditions).  The precondition is a Trs predicate
# and the rule classes it must hold for.  Each condition is (condition, pair
# family, join) and they are checked in this order, which fixes the order of
# the evidence.  A pair family (generator, left class, right class) names a
# pair generator of critical_pairs and is labelled generator(left,right) in
# FailingPair.origin.  Each module calls the generator through its own global
# of that name, looked up at call time, so that wrappers put on those names
# see the call.  The join names a _Searcher method; a condition without one
# requires its family to be empty.
CRITERION_TABLE = {
    "linear": (("linear", ("S", "P")), (
        ("i", ("cp", "S", "S"), "i_linear"),
        ("ii", ("cp_in", "PP", "S"), "ii_linear"),
        ("iii", ("cp", "S", "PP"), "iii_step"),
    )),
    "parallel": (("left_linear", ("S", "P")), (
        ("ii", ("cp_in", "PP", "S"), None),
        ("i", ("cp", "S", "S"), "i_parallel"),
        ("iii", ("cp", "S", "PP"), "iii_parallel"),
    )),
    "pcp": (("left_linear", ("S", "P")), (
        ("i", ("cp", "S", "S"), "i_parallel"),
        ("ii", ("pcp_in", "PP", "S"), "ii_pcp"),
        ("iii", ("cp", "S", "PP"), "iii_parallel"),
    )),
    "huet": (("left_linear", ("S",)), (
        ("i", ("cp", "S", "S"), "huet"),
        ("ii", ("cp", "PP", "S"), "huet"),
        ("iii", ("cp", "S", "PP"), "huet"),
    )),
}

CRITERIA = tuple(CRITERION_TABLE)


class Partition:
    """A candidate split of a rewrite system into S (to be terminating) and
    P (to be reversible), with an optional explicit P' ⊆ P ∪ P⁻¹ restricting
    the rules allowed inside →* search segments.  p_prime=None selects the
    automatic mode: the largest prefix of P ∪ P⁻¹ that keeps S relatively
    terminating is used, and the P' actually consumed is collected from the
    evidence afterwards."""

    def __init__(self, s: Trs, p: Trs, p_prime: Trs | None = None):
        if not p.bidirectional():
            raise PreconditionViolation("P must consist of bidirectional rules")
        self.s = s
        self.p = p
        self.pp = p.with_inverses()
        if p_prime is not None:
            for r in p_prime:
                if not self.pp.contains_variant(r):
                    raise PreconditionViolation(
                        f"P' rule {r.name or r} is not a variant of a rule in P or P inverse"
                    )
        self.p_prime = p_prime
        self._cache: dict = {}

    def reversibility(self, bound: int = DEFAULT_DEPTH) -> ReversibilityWitness | None:
        key = ("rev", bound)
        if key not in self._cache:
            self._cache[key] = is_reversible(self.p, bound=bound)
        return self._cache[key]

    def pp_safe(self, hook=None) -> Trs:
        """Largest greedily-built subset of P ∪ P⁻¹ relative to which S can be
        shown terminating.  Searching inside S ∪ pp_safe guarantees that any
        collected P' admits the same relative termination proof."""
        key = "pp_safe"
        if key not in self._cache:
            kept: list[Rule] = []
            for r in self.pp:
                cand = Trs(kept + [r])
                cert, _ = prove_relative_termination(self.s, cand, hook=hook)
                if cert is not None:
                    kept.append(r)
            self._cache[key] = Trs(kept)
        return self._cache[key]

    def search_rules(self, hook=None) -> Trs:
        if self.p_prime is not None:
            return self.s.union(self.p_prime)
        return self.s.union(self.pp_safe(hook=hook))


def _is_s_rule(step: Step, s: Trs) -> bool:
    return s.contains_variant(step.rule)


def collect_p_prime(evidence: list, s: Trs) -> Trs:
    """The P'-rules actually used inside →*_{S∪P'} segments of the evidence."""
    seen: dict = {}
    for ev in evidence:
        for seg in ev.segments:
            if seg.rules != "SP":
                continue
            for st in seg.steps:
                if not _is_s_rule(st, s):
                    if st.rule.key() not in seen:
                        seen[st.rule.key()] = st.rule
    return Trs(list(seen.values()))


def _nf_with_fallback(t: Term, s: Trs):
    try:
        nf, _ = normalize_steps(t, s, fuel=2_000)
        return nf
    except FuelExhausted:
        return t


class _Searcher:
    """Bounded joinability searches shared by all four criteria."""

    def __init__(self, pt: Partition, depth: int, hook=None):
        self.pt = pt
        self.depth = depth
        self.hook = hook
        self._sp = None
        self.pp = pt.pp
        self.s = pt.s

    @property
    def sp(self) -> Trs:
        if self._sp is None:
            self._sp = self.pt.search_rules(hook=self.hook)
        return self._sp

    def _reach(self, t: Term):
        return reach_set_bounded(t, self.sp, self.depth)

    def _reach_s(self, t: Term):
        return reach_set_bounded(t, self.s, self.depth)

    # --- segment builders -------------------------------------------------
    @staticmethod
    def _star(rules: str, start, end, steps, reverse=False):
        return Segment("star", rules, reverse, start, end, tuple(steps))

    @staticmethod
    def _opt(rules: str, start, end, step, reverse=False):
        steps = () if step is None else (step,)
        return Segment("opt", rules, reverse, start, end, steps)

    # --- single-step helpers ----------------------------------------------
    def _pp_step_between(self, a: Term, b: Term):
        """A single P∪P⁻¹ step a → b, or None."""
        if a == b:
            return None
        for st in reducts(a, self.pp):
            if st.target == b:
                return st
        return None

    def _scan_cap_ok(self, *sizes) -> bool:
        n = 1
        for s in sizes:
            n *= max(s, 1)
        return n <= PAIR_SCAN_CAP

    # --- condition (i), single-step middle:  →* ∘ =← ∘ ←* -----------------
    def join_i_linear(self, crit, cond, pair):
        u, v = pair.left, pair.right
        ru, rv = self._reach(u), self._reach(v)
        if not self._scan_cap_ok(len(ru), len(rv)):
            return None
        for a, pa in ru.items():
            if a in rv:  # empty middle step
                return JoinEvidence(
                    crit, "i", "A", u, v,
                    (
                        self._star("SP", u, a, pa),
                        self._opt("PP", a, a, None, reverse=True),
                        self._star("SP", a, v, rv[a], reverse=True),
                    ),
                )
        for a, pa in ru.items():
            for b, pb in rv.items():
                st = self._pp_step_between(b, a)
                if st is not None:
                    return JoinEvidence(
                        crit, "i", "A", u, v,
                        (
                            self._star("SP", u, a, pa),
                            self._opt("PP", a, b, st, reverse=True),
                            self._star("SP", b, v, pb, reverse=True),
                        ),
                    )
        return None

    # --- condition (i) with parallel middle -------------------------------
    def join_i_parallel(self, crit, cond, pair):
        u, v = pair.left, pair.right
        ru, rv = self._reach(u), self._reach(v)
        if not self._scan_cap_ok(len(ru), len(rv)):
            return None

        def ev(a, pa, b, pb, wit):
            return JoinEvidence(
                crit, "i", "A", u, v,
                (
                    self._star("SP", u, a, pa),
                    Segment("parallel", "PP", True, a, b, (wit,)),
                    self._star("SP", b, v, pb, reverse=True),
                ),
            )

        for a, pa in ru.items():
            if a in rv:
                wit = ParallelStep(a, a, ())
                return ev(a, pa, a, rv[a], wit)
        for a, pa in ru.items():
            for b, pb in rv.items():
                if a == b:
                    continue
                wit = parallel_step_exists(b, a, self.pp)
                if wit is not None:
                    return ev(a, pa, b, pb, wit)
        return None

    # --- linear condition (ii):  (=← ∘ ←*) ∪ (→_S ∘ →* ∘ =← ∘ ←*) ----------
    def join_ii_linear(self, crit, cond, pair):
        u, v = pair.left, pair.right
        rv = self._reach(v)
        # branch A: u =←_PP b ←* v
        if u in rv:
            return JoinEvidence(
                crit, "ii", "A", u, v,
                (self._opt("PP", u, u, None, reverse=True),
                 self._star("SP", u, v, rv[u], reverse=True)),
            )
        for b, pb in rv.items():
            st = self._pp_step_between(b, u)
            if st is not None:
                return JoinEvidence(
                    crit, "ii", "A", u, v,
                    (self._opt("PP", u, b, st, reverse=True),
                     self._star("SP", b, v, pb, reverse=True)),
                )
        # branch B: u →_S ∘ →* a =←_PP b ←* v
        for first in reducts(u, self.s):
            ra = self._reach(first.target)
            if not self._scan_cap_ok(len(ra), len(rv)):
                continue
            for a, pa in ra.items():
                if a in rv:
                    return JoinEvidence(
                        crit, "ii", "B", u, v,
                        (
                            Segment("step", "S", False, u, first.target, (first,)),
                            self._star("SP", first.target, a, pa),
                            self._opt("PP", a, a, None, reverse=True),
                            self._star("SP", a, v, rv[a], reverse=True),
                        ),
                    )
            for a, pa in ra.items():
                for b, pb in rv.items():
                    st = self._pp_step_between(b, a)
                    if st is not None:
                        return JoinEvidence(
                            crit, "ii", "B", u, v,
                            (
                                Segment("step", "S", False, u, first.target, (first,)),
                                self._star("SP", first.target, a, pa),
                                self._opt("PP", a, b, st, reverse=True),
                                self._star("SP", b, v, pb, reverse=True),
                            ),
                        )
        return None

    # --- pcp condition (ii): parallel middle with variable condition -------
    def join_ii_pcp(self, crit, cond, pair):
        u, v, x_ids = pair.left, pair.right, pair.var_limit
        rv = self._reach(v)

        def wit_var_ids(target: Term, wit: ParallelStep):
            # variables of the target term below the rewritten positions
            ids = set()
            for pos in wit.positions:
                ids |= var_ids(subterm_at(target, pos))
            return ids

        # branch A: u' = u
        for b, pb in rv.items():
            for wit in parallel_step_witnesses(b, u, self.pp):
                if wit_var_ids(u, wit) <= set(x_ids):
                    return JoinEvidence(
                        "pcp", "ii", "A", u, v,
                        (
                            Segment("parallel", "PP", True, u, b, (wit,)),
                            self._star("SP", b, v, pb, reverse=True),
                        ),
                        par_positions=wit.positions,
                        var_limit=x_ids,
                        peak=pair.peak,
                    )
        # branch B: u →_S ∘ →* u' ⇇ b ←* v
        for first in reducts(u, self.s):
            ra = self._reach(first.target)
            if not self._scan_cap_ok(len(ra), len(rv)):
                continue
            for a, pa in ra.items():
                for b, pb in rv.items():
                    for wit in parallel_step_witnesses(b, a, self.pp):
                        if wit_var_ids(a, wit) <= set(x_ids):
                            return JoinEvidence(
                                "pcp", "ii", "B", u, v,
                                (
                                    Segment("step", "S", False, u, first.target, (first,)),
                                    self._star("SP", first.target, a, pa),
                                    Segment("parallel", "PP", True, a, b, (wit,)),
                                    self._star("SP", b, v, pb, reverse=True),
                                ),
                                par_positions=wit.positions,
                                var_limit=x_ids,
                                peak=pair.peak,
                            )
        return None

    # --- condition (iii):  (→* ∘ =→/⇉) ∪ (→* ∘ =→/⇉ ∘ ←* ∘ ←_S) ------------
    def join_iii(self, crit, cond, pair, parallel: bool):
        u, v = pair.left, pair.right
        ru = self._reach(u)

        def mid(src, dst):
            """Middle segment src -> dst under PP (single or parallel)."""
            if parallel:
                if src == dst:
                    return Segment("parallel", "PP", False, src, dst,
                                   (ParallelStep(src, dst, ()),))
                wit = parallel_step_exists(src, dst, self.pp)
                if wit is None:
                    return None
                return Segment("parallel", "PP", False, src, dst, (wit,))
            if src == dst:
                return self._opt("PP", src, dst, None)
            st = self._pp_step_between(src, dst)
            if st is None:
                return None
            return self._opt("PP", src, dst, st)

        # branch A: u →* a (=→|⇉)_PP v
        for a, pa in ru.items():
            m = mid(a, v)
            if m is not None:
                return JoinEvidence(
                    crit, "iii", "A", u, v,
                    (self._star("SP", u, a, pa), m),
                )
        # branch B: u →* a (=→|⇉)_PP b ←* c ←_S v
        for last in reducts(v, self.s):
            rc = self._reach(last.target)
            if not self._scan_cap_ok(len(ru), len(rc)):
                continue
            for a, pa in ru.items():
                for b, pb in rc.items():
                    m = mid(a, b)
                    if m is not None:
                        return JoinEvidence(
                            crit, "iii", "B", u, v,
                            (
                                self._star("SP", u, a, pa),
                                m,
                                self._star("SP", b, last.target, pb, reverse=True),
                                Segment("step", "S", True, last.target, v, (last,)),
                            ),
                        )
        return None

    join_iii_step = partialmethod(join_iii, parallel=False)
    join_iii_parallel = partialmethod(join_iii, parallel=True)

    # --- Huet-style conditions over S-reachability and P-conversion --------
    def join_huet(self, crit, cond, pair):
        u, v = pair.left, pair.right
        ru, rv = self._reach_s(u), self._reach_s(v)
        if not self._scan_cap_ok(len(ru), len(rv)):
            return None
        for a, pa in ru.items():
            if cond == "ii" and not pa:
                continue
            conv = reach_set_bounded(a, self.pp, self.depth)
            for c, pc in conv.items():
                if c not in rv:
                    continue
                pb = rv[c]
                if cond == "iii" and not pb:
                    continue
                left_rel = "plus" if cond == "ii" else "star"
                right_rel = "plus" if cond == "iii" else "star"
                return JoinEvidence(
                    "huet", cond, "A", u, v,
                    (
                        Segment(left_rel, "S", False, u, a, tuple(pa)),
                        Segment("conv", "P", False, a, c, tuple(pc)),
                        Segment(right_rel, "S", True, c, v, tuple(pb)),
                    ),
                )
        return None


def _fail(pair, origin, condition, s: Trs) -> FailingPair:
    left_nf = _nf_with_fallback(pair.left, s)
    right_nf = _nf_with_fallback(pair.right, s)
    return FailingPair(pair, origin, condition, left_nf, right_nf,
                       is_nf(pair.right, s))


def _tag(name: str, pt: Partition) -> str:
    if pt.p_prime is None:
        return f"{name}(P'=auto)"
    names = ",".join(r.name for r in pt.p_prime) if len(pt.p_prime) else ""
    return f"{name}(P'=[{names}])"


def _base_report(name: str, pt: Partition) -> CriterionReport:
    return CriterionReport(criterion=name, tag=_tag(name, pt), outcome="fails",
                           s=pt.s, p=pt.p)


def _check_preconditions(rep: CriterionReport, pt: Partition, linearity, depth: int,
                         hook=None) -> bool:
    """Fill in reversibility/termination facts; False if a precondition fails."""
    prop, classes = linearity
    for cls in classes:
        if not getattr(pt.s if cls == "S" else pt.p, prop)():
            rep.reason = f"{cls} is not {prop.replace('_', '-')}"
            return False
    rev = pt.reversibility(bound=depth)
    if rev is None:
        rep.reason = "P was not shown reversible within the search bound"
        return False
    rep.reversibility = rev
    if rep.criterion == "huet":
        rcert, rwhy = prove_relative_termination(pt.s, pt.p, hook=hook)
        if rcert is None:
            rep.reason = f"relative termination of S w.r.t. P not established: {rwhy}"
            return False
        rep.relterm_cert = rcert
        return True
    cert, why = prove_termination(pt.s, hook=hook)
    if cert is None:
        rep.reason = f"termination of S not established: {why}"
        return False
    rep.term_cert = cert
    if pt.p_prime is not None:
        rcert, rwhy = prove_relative_termination(pt.s, pt.p_prime, hook=hook)
        if rcert is None:
            rep.reason = f"relative termination of S w.r.t. P' not established: {rwhy}"
            return False
        rep.relterm_cert = rcert
        rep.p_prime = pt.p_prime
    return True


def _finish(rep: CriterionReport, pt: Partition, hook=None) -> CriterionReport:
    """Resolve the outcome after all pairs were scanned."""
    if rep.failing:
        rep.reason = f"{len(rep.failing)} critical pair(s) not joined within the bound"
        return rep
    if rep.criterion == "huet":
        rep.p_prime = empty_trs()
    elif pt.p_prime is None:
        used = collect_p_prime(rep.evidence, pt.s)
        rcert, rwhy = prove_relative_termination(pt.s, used, hook=hook)
        if rcert is None:
            rep.reason = f"relative termination of S w.r.t. collected P' failed: {rwhy}"
            return rep
        rep.p_prime = used
        rep.relterm_cert = rcert
    rep.outcome = "holds"
    return rep


def check_criterion(name: str, pt: Partition, depth: int = DEFAULT_DEPTH,
                    hook=None) -> CriterionReport:
    if name not in CRITERION_TABLE:
        raise ValueError(f"unknown criterion {name!r}; expected one of {CRITERIA}")
    linearity, conditions = CRITERION_TABLE[name]
    rep = _base_report(name, pt)
    if not _check_preconditions(rep, pt, linearity, depth, hook=hook):
        return rep
    sr = _Searcher(pt, depth, hook=hook)
    classes = {"S": pt.s, "PP": pt.pp}
    for cond, family, join in conditions:
        gen, left, right = family
        origin = f"{gen}({left},{right})"
        pairs = globals()[gen](classes[left], classes[right])
        if join is None:  # parallel's (ii), the one family that must be empty
            if pairs:
                rep.failing.extend(_fail(pair, origin, cond, pt.s) for pair in pairs)
                rep.reason = "inner critical pairs of P∪P⁻¹ into S exist"
                return rep
            continue
        join_pair = getattr(sr, "join_" + join)
        for pair in pairs:
            ev = join_pair(name, cond, pair)
            if ev is None:
                rep.failing.append(_fail(pair, origin, cond, pt.s))
            else:
                rep.evidence.append(ev)
    return _finish(rep, pt, hook=hook)


check_linear = partial(check_criterion, "linear")
check_parallel = partial(check_criterion, "parallel")
check_pcp = partial(check_criterion, "pcp")
check_huet = partial(check_criterion, "huet")
