"""Critical-pair criteria for rewrite systems split into a terminating part S
and a reversible part P.

Each criterion is one sufficient condition for Church-Rosser modulo the
conversion generated by P (and hence confluence of S ∪ P), stated once, as a
row of `CRITERION_TABLE`: its linearity precondition, what S must terminate
relative to, and per condition the pair family and the join branches.
`check_criterion` decides any row, and the certificate verifier checks a
certified join against the same row.  All reachability searches are bounded;
a "fails" outcome therefore means "not established within the search
budget", never "refuted".
"""
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice

from .terms import Term
from .rewriting import (
    Contractions,
    ParallelStep,
    ReachSet,
    Rule,
    Trs,
    empty_trs,
    normalize_steps,  # not called here: bench/tracing.py wraps criteria.normalize_steps
    parallel_step,
    reach_set_bounded,
    reducts,
    root_contractors,
)
from .critical_pairs import (  # called by name through globals() in Partition.pairs
    cp,
    cp_in,  # not called here: bench/tracing.py wraps criteria.cp_in
    pcp_in,
)
from .termination import (
    TerminationCertificate,
    prove_relative_termination,
    prove_termination,
)
from .reversibility import ReversibilityWitness, is_reversible
from .run import Run

# A join scan compares at most this many (left end, right end) pairs per
# choice of outer steps: it reads at most PAIR_SCAN_CAP // |right ends| left
# ends, and gives up on that choice after them.
PAIR_SCAN_CAP = 40_000


class PreconditionViolation(Exception):
    """A partition is structurally malformed (not just unprovable)."""


@dataclass(frozen=True)
class Segment:
    """One relational segment of a join.  Chains left to right: a segment
    starts where the previous one ends, the first at the pair's left term.
    ``reverse`` means the underlying steps rewrite end towards start."""

    rel: str  # "step" | "opt" | "star" | "plus" | "parallel" | "conv"
    rules: str  # "S" | "PP" | "SP" | "P"
    reverse: bool
    end: Term
    steps: tuple = ()

    def __post_init__(self):
        if self.rel not in ("step", "opt", "star", "plus", "parallel", "conv"):
            raise ValueError(f"unknown segment relation {self.rel!r}")
        if self.rules not in ("S", "PP", "SP", "P"):
            raise ValueError(f"unknown rule class {self.rules!r}")


@dataclass(frozen=True)
class JoinEvidence:  # the pair's terms, not the pair: its peak and rules cost 3.3 MB peak RSS
    condition: str  # "i" | "ii" | "iii"
    branch: str  # "A" | "B"
    pair_left: Term
    pair_right: Term
    variables: tuple  # the pair's, by which a certificate names its variables
    segments: tuple


@dataclass(frozen=True)
class FailingPair:
    pair: object  # a critical_pairs.CriticalPair, ordinary or parallel
    origin: str  # which overlap family produced it


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
    relterm_cert: TerminationCertificate | None = None  # S relative to P', or to P
    reversibility: ReversibilityWitness | None = None

    def holds(self) -> bool:
        return self.outcome == "holds"


# pcp's join branches for conditions (i) and (iii), which parallel shares.
_PCP_I = ((("star", "SP", False), ("parallel", "PP", True), ("star", "SP", True)),)
_PCP_III = (
    (("star", "SP", False), ("parallel", "PP", False)),
    (("star", "SP", False), ("parallel", "PP", False), ("star", "SP", True), ("step", "S", True)),
)

# One row per criterion: (linearity precondition, termination obligation,
# conditions).  The precondition is a Trs predicate and the rule classes it
# must hold for.  The obligation "P" asks S terminating relative to all of P
# and fixes P' = ∅; "P'" asks S terminating relative to P' (so terminating).
# Each condition is (condition, pair family, join branches), checked in this
# order, which fixes the order of the evidence.  A pair family (generator,
# left class, right class) names a pair generator of critical_pairs and is
# labelled generator(left,right) in FailingPair.origin.  The prover generates
# each family once per split, in `Partition.pairs`, where a cp_in family is
# the inner part of the cp family of the same classes, and each rule pair's
# block once per run (`Run.pairs`); the verifier generates each family of its
# one criterion afresh.  Both call the generator through their
# module's global of that name, looked up at call time, so that wrappers put
# on those names see the call.  A branch is a tuple of (rel, rules, reverse)
# segments chaining a pair's left term to its right term; the prover builds
# every join from the branches, A then B (_Searcher), and the verifier checks
# every certified join against them.  A condition without branches
# (parallel's (ii)) requires its family to be empty.
CRITERION_TABLE = {
    "linear": (("linear", ("S", "P")), "P'", (
        ("i", ("cp", "S", "S"), (
            (("star", "SP", False), ("opt", "PP", True), ("star", "SP", True)),
        )),
        ("ii", ("cp_in", "PP", "S"), (
            (("opt", "PP", True), ("star", "SP", True)),
            (("step", "S", False), ("star", "SP", False), ("opt", "PP", True),
             ("star", "SP", True)),
        )),
        ("iii", ("cp", "S", "PP"), (
            (("star", "SP", False), ("opt", "PP", False)),
            (("star", "SP", False), ("opt", "PP", False), ("star", "SP", True),
             ("step", "S", True)),
        )),
    )),
    "parallel": (("left_linear", ("S", "P")), "P'", (
        ("ii", ("cp_in", "PP", "S"), ()),
        ("i", ("cp", "S", "S"), _PCP_I),
        ("iii", ("cp", "S", "PP"), _PCP_III),
    )),
    "pcp": (("left_linear", ("S", "P")), "P'", (
        ("i", ("cp", "S", "S"), _PCP_I),
        ("ii", ("pcp_in", "PP", "S"), (
            (("parallel", "PP", True), ("star", "SP", True)),
            (("step", "S", False), ("star", "SP", False), ("parallel", "PP", True),
             ("star", "SP", True)),
        )),
        ("iii", ("cp", "S", "PP"), _PCP_III),
    )),
    "huet": (("left_linear", ("S",)), "P", (
        ("i", ("cp", "S", "S"),
         ((("star", "S", False), ("conv", "P", False), ("star", "S", True)),)),
        ("ii", ("cp", "PP", "S"),
         ((("plus", "S", False), ("conv", "P", False), ("star", "S", True)),)),
        ("iii", ("cp", "S", "PP"),
         ((("star", "S", False), ("conv", "P", False), ("plus", "S", True)),)),
    )),
}

CRITERIA = tuple(CRITERION_TABLE)


class Partition:
    """A candidate split of a rewrite system into S (to be terminating) and
    P (to be reversible), with an optional explicit P' ⊆ P ∪ P⁻¹ restricting
    the rules allowed inside →* search segments.  p_prime=None selects the
    automatic mode: `pp_safe`, all of P ∪ P⁻¹ or else a greedily built
    subset that keeps S relatively terminating, is used, and the P' actually
    consumed is collected from the evidence afterwards.

    What the criteria checked on a split share is computed once and kept as
    long as the partition: each pair family (`pairs`), the reversibility
    witness of P, and the search rules, so `pp_safe` runs once.  A partition
    is meant to be checked under one run.  Its families are built from the
    run's pair memo, which outlives it: a split generates pairs only for the
    rule pairs no earlier split of the run held."""

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
        self._memo: dict = {}

    def _once(self, key, make):
        """make(), computed at the first request for key; a search cut off
        by the deadline stores nothing."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def pairs(self, gen: str, left: str, right: str, run: Run) -> list:
        """The pair family gen(left, right) of CRITERION_TABLE on this split,
        from the blocks of the run's pair memo.  A cp_in family is the inner
        part of the cp family of the same classes, so it is never generated
        on its own."""
        base = "cp" if gen == "cp_in" else gen
        classes = {"S": self.s, "PP": self.pp}
        found = self._once((base, left, right), lambda: globals()[base](
            classes[left], classes[right], run=run))
        return found if gen == base else [pr for pr in found if pr.kind == "inner"]

    def reversibility(self, run: Run) -> ReversibilityWitness | None:
        return self._once(("rev", run.rev_bound),
                          lambda: is_reversible(self.p, bound=run.rev_bound, run=run))

    def pp_safe(self, run: Run) -> Trs:
        """The subset of P ∪ P⁻¹ relative to which S can be shown
        terminating: all of it when the whole set, tried first, has a proof;
        else, greedily, each rule in turn that has one together with the
        rules kept before it.  Searching inside S ∪ pp_safe guarantees that
        any collected P' admits the same relative termination proof."""
        run.check("criteria")
        if prove_relative_termination(self.s, self.pp, run=run)[0] is not None:
            return self.pp
        kept: list[Rule] = []
        for r in self.pp:
            run.check("criteria")
            cert, _ = prove_relative_termination(self.s, Trs(kept + [r]), run=run)
            if cert is not None:
                kept.append(r)
        return Trs(kept)

    def search_rules(self, run: Run) -> Trs:
        """S ∪ P', with pp_safe standing for P' in the automatic mode."""
        return self._once("search", lambda: self.s.union(
            self.pp_safe(run) if self.p_prime is None else self.p_prime))


def collect_p_prime(evidence: list, s: Trs) -> Trs:
    """The P'-rules actually used inside →*_{S∪P'} segments of the evidence."""
    seen: dict = {}
    for ev in evidence:
        for seg in ev.segments:
            if seg.rules != "SP":
                continue
            for st in seg.steps:
                if not s.contains_variant(st.rule):
                    if st.rule.key() not in seen:
                        seen[st.rule.key()] = st.rule
    return Trs(list(seen.values()))


class _Searcher:
    """Bounded join search shared by all four criteria, built from the
    branches of CRITERION_TABLE.

    A branch is split at its middle segment, the one over PP or P.  Each
    side is read inwards from the pair's term: an optional outer S-step,
    tried in `reducts` order, then an optional star/plus reach set over S or
    SP (a side without one ends where it starts).  The middle is a single PP
    step (opt), a parallel PP step (with the variable condition on a
    parallel pair's var_limit), or a P-conversion (conv).

    The scan is bounded by the ends it reads: per choice of outer steps it
    reads at most PAIR_SCAN_CAP // |rv| left ends, counted before plus drops
    the empty path, and then gives up on that choice.  The right ends rv are
    built whole; the left ends, and the ends of a conversion from a left
    end, are built only as far as the scan reads them (`ReachSet.ends`): a
    scan that stops early expands no term past the end it stopped at.

    The scan order is part of the contract: the first join found is the one
    reported and certified, and in auto mode it decides which P' rules are
    collected.  Branch A before B; left ends a before right ends b, each in
    reach-set discovery order; a reversed middle tries the empty step at
    every a before any step, a forward middle takes a == b where it falls in
    that order; a conversion scans the c reachable from a and keeps those
    among the right ends.

    Reach sets and P∪P⁻¹ successors are memoized for one pair's join only:
    kept across pairs they raised peak memory by ~3 MB on the reference
    systems.  So is one root-contractum table per system (S, SP, and PP, which
    the P conversion rewrites with too; see `rewriting._contracta`), shared by
    the reach sets, the outer S-steps, the P∪P⁻¹ successors and the parallel
    steps: an equal subterm in many terms of one join is matched once.  The
    tables contract by the run's contractors, compiled once per rule key and
    run, which every join of the check reads from `_contractors`.  With the
    contractors, tables kept for a whole check measured no faster on the
    reference systems (0.279-0.292 against 0.265-0.284 s per bench pass)."""

    def __init__(self, pt: Partition, run: Run):
        self.pt = pt
        self.run = run
        self._memo: dict = {}
        self._contractors: dict = {}  # class -> root_contractors of its rules

    def _rules(self, cls: str) -> Trs:
        if cls == "S":
            return self.pt.s
        if cls != "SP":  # PP, and P for the conversion over P ∪ P⁻¹
            return self.pt.pp
        return self.pt.search_rules(self.run)  # huet never asks, so never pays for pp_safe

    def _table(self, cls: str) -> Contractions:
        """The root-contractum table of `_rules(cls)` for this join, which
        contracts by the run's contractors."""
        cls = "PP" if cls == "P" else cls
        table = self._memo.get(("table", cls))
        if table is None:
            if cls not in self._contractors:
                self._contractors[cls] = root_contractors(self._rules(cls), self.run.contractors)
            table = self._memo["table", cls] = Contractions(self._contractors[cls])
        return table

    def _reach(self, cls: str, t: Term):
        key = (cls, t)
        ends = self._memo.get(key)
        if ends is None:
            ends = self._memo[key] = reach_set_bounded(
                t, self._rules(cls), self.run.depth,
                table=self._table(cls), check=self.run.check)
        return ends

    def _pp_step(self, src: Term, dst: Term):
        """The first P∪P⁻¹ step src → dst in `reducts` order, or None."""
        key = ("succ", src)
        succ = self._memo.get(key)
        if succ is None:
            succ = self._memo[key] = {}
            for st in reducts(src, self.pt.pp, table=self._table("PP")):
                succ.setdefault(st.target, st)
        return succ.get(dst)

    def _side(self, side: tuple, t: Term):
        """Per choice of the outer S-step (None without one): that step and
        the side's ends with their paths, a ReachSet or, for a side without a
        reach set, {start: ()}.  `side` is read inwards from t."""
        if side and side[0][0] == "step":
            outer, side = reducts(t, self.pt.s, table=self._table("S")), side[1:]
        else:
            outer = (None,)
        for st in outer:
            start = t if st is None else st.target
            yield st, (self._reach(side[0][1], start) if side else {start: ()})

    def _middles(self, kind: str, reverse: bool, ru, rv, x_ids):
        """(a, its path, b, its path, middle steps) for a in ru() and b in
        rv, in the contract order; ru() is a fresh read of the left ends."""
        if kind == "conv":
            for a, pa in ru():
                for c, pc in self._reach("P", a).ends():
                    pb = rv.get(c)
                    if pb is not None:
                        yield a, pa, c, pb, pc
            return

        def empty(a):
            return () if kind == "opt" else (ParallelStep(a, a, ()),)

        table = self._table("PP")
        if reverse:
            for a, pa in ru():
                pb = rv.get(a)
                if pb is not None:
                    yield a, pa, a, pb, empty(a)
        for a, pa in ru():
            for b, pb in rv.items():
                if a == b:
                    if not reverse:
                        yield a, pa, b, pb, empty(a)
                    continue
                src, dst = (b, a) if reverse else (a, b)
                if kind == "opt":
                    st = self._pp_step(src, dst)
                else:
                    st = parallel_step(src, dst, self.pt.pp, x_ids, table=table)
                if st is not None:
                    yield a, pa, b, pb, (st,)

    def _branch(self, shape: tuple, pair):
        """The segments of the first join of the pair through one branch."""
        left, kind, reverse, right, plus_u, plus_v = _split(shape)
        x_ids = pair.var_limit
        for first, ru in self._side(left, pair.left):
            for last, rv in self._side(right[::-1], pair.right):
                if rv.__class__ is ReachSet:
                    rv = rv.complete()
                ends_u = partial(_read, ru, PAIR_SCAN_CAP // len(rv), plus_u)
                ends_v = {b: pb for b, pb in rv.items() if pb} if plus_v else rv
                for a, pa, b, pb, mid in self._middles(kind, reverse, ends_u, ends_v, x_ids):
                    lt, ls = _inwards(left, first, a, pa)
                    rt, rs = _inwards(right, last, b, pb)
                    ends = [*lt, *rt[::-1], pair.right]
                    steps = [*ls, mid, *rs[::-1]]
                    return tuple(Segment(rel, rules, rev, end, path)
                                 for (rel, rules, rev), end, path in zip(shape, ends, steps))
        return None

    def join(self, cond: str, branches: tuple, pair) -> JoinEvidence | None:
        """The first join of the pair through its condition's branches."""
        self._memo = {}
        for branch, shape in zip("AB", branches):
            segments = self._branch(shape, pair)
            if segments is not None:
                return JoinEvidence(cond, branch, pair.left, pair.right, pair.variables, segments)
        return None


@cache
def _split(shape: tuple) -> tuple:
    """(left side, middle relation, middle reversed, right side, plus on the
    left, plus on the right) of a branch split at its middle segment, the one
    over PP or P; worked out once per shape, as every join splits its
    branches again."""
    k = next(i for i, (_, rules, _) in enumerate(shape) if rules in ("PP", "P"))
    left, (kind, _, reverse), right = shape[:k], shape[k], shape[k + 1:]
    return (left, kind, reverse, right, any(rel == "plus" for rel, _, _ in left),
            any(rel == "plus" for rel, _, _ in right))


def _read(ends, n: int, plus: bool):
    """The first n (end, path) of a side's ends in discovery order, a reach
    set built only as far as they are read; plus drops the empty path."""
    read = ends.ends(n) if ends.__class__ is ReachSet else islice(ends.items(), n)
    return ((a, pa) for a, pa in read if pa) if plus else read


def _inwards(side: tuple, st, end: Term, path) -> tuple:
    """(terms, steps) of one side read inwards from the pair's term: the
    outer S-step if taken, then the reach path down to `end`."""
    terms, steps = ([st.target], [(st,)]) if st is not None else ([], [])
    if len(steps) < len(side):
        terms.append(end)
        steps.append(path)
    return terms, steps


def _tag(name: str, pt: Partition) -> str:
    if pt.p_prime is None:
        return f"{name}(P'=auto)"
    names = ",".join(r.name for r in pt.p_prime) if len(pt.p_prime) else ""
    return f"{name}(P'=[{names}])"


def _check_preconditions(rep: CriterionReport, pt: Partition, linearity, relative_to: str,
                         run: Run) -> bool:
    """Fill in reversibility/termination facts; False if a precondition fails."""
    prop, classes = linearity
    for cls in classes:
        if not getattr(pt.s if cls == "S" else pt.p, prop)():
            rep.reason = f"{cls} is not {prop.replace('_', '-')}"
            return False
    rev = pt.reversibility(run)
    if rev is None:
        rep.reason = "P was not shown reversible within the search bound"
        return False
    rep.reversibility = rev
    if relative_to == "P":
        return _relterm(rep, pt, pt.p, "P not established", run)
    # implied by S/P' terminating, but a split whose S does not terminate
    # fails here, before any join search
    cert, why = prove_termination(pt.s, run=run)
    if cert is None:
        rep.reason = f"termination of S not established: {why}"
        return False
    if pt.p_prime is not None and not _relterm(rep, pt, pt.p_prime, "P' not established", run):
        return False
    rep.p_prime = pt.p_prime  # None in the automatic mode until _finish
    return True


def _relterm(rep: CriterionReport, pt: Partition, rel: Trs, failure: str, run: Run) -> bool:
    """Record the certificate of S terminating relative to rel, the one
    termination fact a proof carries; False, with the reason, without one."""
    cert, why = prove_relative_termination(pt.s, rel, run=run)
    if cert is None:
        rep.reason = f"relative termination of S w.r.t. {failure}: {why}"
        return False
    rep.relterm_cert = cert
    return True


def _finish(rep: CriterionReport, pt: Partition, relative_to: str, run: Run) -> CriterionReport:
    """Resolve the outcome after all pairs were scanned."""
    if rep.failing:
        rep.reason = f"{len(rep.failing)} critical pair(s) not joined within the bound"
        return rep
    if relative_to == "P":
        rep.p_prime = empty_trs()
    elif pt.p_prime is None:
        used = collect_p_prime(rep.evidence, pt.s)
        if not _relterm(rep, pt, used, "collected P' failed", run):
            return rep
        rep.p_prime = used
    rep.outcome = "holds"
    return rep


def check_criterion(name: str, pt: Partition, run: Run | None = None, *,
                    first_only: bool = False) -> CriterionReport:
    """Check criterion `name` on the partition: P must be shown reversible
    within run.rev_bound steps, and each critical pair joined within
    run.depth.  Without a run, a default Run() with no deadline is used.
    first_only stops the scan at the first pair it does not join: the
    outcome is the full scan's, but with that one failing pair."""
    if name not in CRITERION_TABLE:
        raise ValueError(f"unknown criterion {name!r}; expected one of {CRITERIA}")
    run = run or Run()
    linearity, relative_to, conditions = CRITERION_TABLE[name]
    rep = CriterionReport(criterion=name, tag=_tag(name, pt), outcome="fails", s=pt.s, p=pt.p)
    if not _check_preconditions(rep, pt, linearity, relative_to, run):
        return rep
    sr = _Searcher(pt, run)
    for cond, (gen, left, right), branches in conditions:
        origin = f"{gen}({left},{right})"
        pairs = pt.pairs(gen, left, right, run)
        if not branches:  # parallel's (ii), which must be empty
            if pairs:
                rep.failing.extend(FailingPair(pair, origin) for pair in pairs)
                rep.reason = "inner critical pairs of P∪P⁻¹ into S exist"
                return rep
            continue
        for pair in pairs:
            run.check("criteria")
            ev = sr.join(cond, branches, pair)
            if ev is None:
                rep.failing.append(FailingPair(pair, origin))
                if first_only:
                    rep.reason = "at least 1 critical pair(s) not joined within the bound"
                    return rep
            else:
                rep.evidence.append(ev)
    return _finish(rep, pt, relative_to, run)
