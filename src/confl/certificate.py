"""Self-contained, replayable proof certificates.

A YES certificate records the input system, every completion transformation
with its witness, the final S/P split, the reversibility witness, termination
certificates, and one join witness per critical pair.  The verifier replays
all of it without performing any search: steps are applied positionally,
termination certificates are checked arithmetically, and the critical-pair
sets are recomputed and matched against the supplied joins.

A history step is a forward derivation in the current system Q, named by
Q's rule names: an addition l -> r gives l →*_Q r, a replacement of l -> r by
l -> r' gives r →*_Q r' and, as ``back`` steps, r' →*_Q' r in the system Q'
after it.  So every transformation keeps →* unchanged, and the final system
is confluent exactly when the input is.
"""
import json
from dataclasses import asdict, dataclass, field

from .terms import (
    Position,
    Term,
    TermSyntaxError,
    Var,
    all_parallel,
    fresh_id,
    pos_str,
    read_term,
    shape_key,
    subterm_at,
    term_tokens,
    token_offset,
    var_ids,
    write_term,
)
from .rewriting import Rule, Trs, empty_trs, replay
# cp, cp_in and pcp_in are called by the names CRITERION_TABLE gives
from .critical_pairs import cp, cp_in, parallel_key, pcp_in
from .criteria import CRITERION_TABLE, SHAPES
from .reversibility import reversal_problems
from .termination import MalformedCertificate, TerminationCertificate, replay_certificate

FORMAT = "2"


# --- term scope: stable local variable names per block ------------------------

# names: what str.isalnum accepts plus +*'_-~#; a variable is ?name
_TOKENS = term_tokens(r"\??[\w+*'~#-]+")


class _Scope:
    def __init__(self):
        self.names: dict[int, str] = {}
        # a block repeats its terms, and a term's variables are named at its
        # first write, so each distinct term is written once
        self.texts: dict[Term, str] = {}

    def var_text(self, v: Var) -> str:
        if v.id not in self.names:
            self.names[v.id] = f"v{len(self.names) + 1}"
        return "?" + self.names[v.id]

    def print_term(self, t: Term) -> str:
        text = self.texts.get(t)
        if text is None:
            text = self.texts[t] = write_term(t, self.var_text)
        return text


class _ParseScope:
    def __init__(self):
        self.vars: dict[str, Var] = {}
        # a block repeats its terms (a segment starts where the one before
        # ended), so each distinct text is read once
        self.terms: dict[str, Term] = {}

    def leaf(self, name: str) -> Var | None:
        if name[0] != "?":
            return None
        name = name[1:]
        if name not in self.vars:
            self.vars[name] = Var(fresh_id(), name)
        return self.vars[name]


class CertificateError(ValueError):
    pass


def parse_term(text: str, scope: _ParseScope) -> Term:
    text = text.strip()
    if text in scope.terms:
        return scope.terms[text]
    tokens = _TOKENS.findall(text)
    try:
        t, i = read_term(tokens, 0, scope.leaf)
    except TermSyntaxError as exc:
        at = token_offset(tokens, exc.token)
        raise CertificateError(f"bad term syntax at offset {at} in {text!r}: {exc}") from exc
    if tokens[i][1] or tokens[i][2]:
        raise CertificateError(f"trailing input after term: {text[token_offset(tokens, i):]!r}")
    scope.terms[text] = t
    return t


def _parse_pos(s: str) -> Position:
    if s == "e":
        return ()
    try:
        return tuple(int(x) for x in s.split("."))
    except ValueError as exc:
        raise CertificateError(f"bad position {s!r}") from exc


# --- json round-trip for termination certificates ------------------------------


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(x)
    return x


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(v) for v in x)
    return x


def _term_cert_json(cert: TerminationCertificate) -> str:
    d = {k: _jsonable(v) for k, v in asdict(cert).items()}
    return json.dumps(d, sort_keys=True)


def _term_cert_from_json(payload: str) -> TerminationCertificate:
    try:
        d = json.loads(payload)
        return TerminationCertificate(**{k: _tuplify(v) for k, v in d.items()})
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"bad termination certificate payload: {exc}") from exc


# --- serialization -------------------------------------------------------------


def _resolve_name(rule: Rule, table: Trs, what: str) -> str:
    for r in table:
        if r.key() == rule.key():
            return r.name
    raise CertificateError(f"cannot resolve {what} rule {rule!r} against its table")


def _rule_line(prefix: str, r: Rule) -> str:
    sc = _Scope()
    return f"{prefix} {r.name}: {sc.print_term(r.lhs)} -> {sc.print_term(r.rhs)}"


def _step_lines(kind: str, steps, table: Trs, what: str):
    return [f"{kind} {pos_str(st.position)} {_resolve_name(st.rule, table, what)}"
            for st in steps]


def _witness_key(criterion: str, condition: str, left, right, peak, var_limit):
    """Identity of a join witness: the pair up to renaming (plus peak and
    variable constraint where the criterion distinguishes by them)."""
    if criterion == "pcp" and condition == "ii":
        return parallel_key(left, right, peak, var_limit)
    return shape_key((left, right))[0]


def certificate_text(problem: Trs, result) -> str:
    """Render a completion result as a replayable plain-text certificate."""
    lines = ["BEGIN CERTIFICATE", f"format {FORMAT}", f"verdict {result.verdict}"]
    if result.verdict != "YES":
        lines.append(f"reason {result.reason}")
        lines.append("END CERTIFICATE")
        return "\n".join(lines) + "\n"

    rep, state = result.report, result.state
    lines.append(f"criterion {rep.criterion}")
    lines.append(f"tag {rep.tag}")

    lines.append("section input")
    for r in problem:
        lines.append(_rule_line("rule", r))

    if state.history:
        # witness steps are named by the rules of the system they rewrite in
        q = problem
        lines.append("section history")
        for j in state.history:
            if j.kind == "addition":
                sc = _Scope()
                lines.append(f"addition {j.rule.name}: {sc.print_term(j.rule.lhs)}")
                lines.extend(_step_lines("step", j.steps, q, "history"))
                lines.append(f"yields {sc.print_term(j.rule.rhs)}")
                lines.append("endadd")
                q = q.union(Trs([j.rule]))
            else:
                lines.append(f"replace {j.old_rule.name} with {j.rule.name}")
                lines.extend(_step_lines("step", j.steps, q, "history"))
                q = q.replace(j.old_rule, j.rule)
                lines.extend(_step_lines("back", j.back, q, "history"))
                lines.append("endreplace")

    lines.append("section partition")
    lines.append(f"final-s {','.join(r.name for r in rep.s)}")
    lines.append(f"final-p {','.join(r.name for r in rep.p)}")
    if rep.p_prime is not None:
        for r in rep.p_prime:
            lines.append(_rule_line("pprule", r))

    if rep.reversibility is not None:
        wit = rep.reversibility
        lines.append("section reversibility")
        lines.append(f"bound {wit.bound}")
        p_tab = rep.p
        for name, steps in wit.sequences:
            if steps:
                parts = "; ".join(
                    f"{pos_str(st.position)} {_resolve_name(st.rule, p_tab, 'reversal')}"
                    for st in steps)
            else:
                parts = "-"
            lines.append(f"revseq {name}: {parts}")

    lines.append("section termination")
    if rep.term_cert is not None:
        lines.append(f"termcert {_term_cert_json(rep.term_cert)}")
    if rep.relterm_cert is not None:
        lines.append(f"relterm {_term_cert_json(rep.relterm_cert)}")

    lines.append("section joins")
    pp = rep.p.with_inverses()
    sp = rep.s.union(rep.p_prime) if rep.p_prime is not None else rep.s
    tables = {"S": rep.s, "PP": pp, "SP": sp, "P": pp}
    emitted = set()
    for ev in rep.evidence:
        k = (ev.condition, _witness_key(rep.criterion, ev.condition,
                                        ev.pair_left, ev.pair_right,
                                        ev.peak, ev.var_limit))
        if k in emitted:
            # distinct overlaps can produce the same pair up to renaming; the
            # verifier matches joins one-to-one against deduplicated pairs
            continue
        emitted.add(k)
        sc = _Scope()
        lines.append(f"join {ev.condition} {ev.branch}")
        lines.append(f"jpair {sc.print_term(ev.pair_left)} | {sc.print_term(ev.pair_right)}")
        if ev.peak is not None:
            lines.append(f"jpeak {sc.print_term(ev.peak)}")
            if any(i not in sc.names for i in ev.var_limit):
                raise CertificateError("constrained variable absent from pair/peak")
            xs = ",".join(sorted("?" + sc.names[i] for i in ev.var_limit))
            lines.append(f"jx {xs or '-'}")
        for seg in ev.segments:
            table = tables[seg.rules]
            dirn = "rev" if seg.reverse else "fwd"
            lines.append(
                f"segment {seg.rel} {seg.rules} {dirn} | "
                f"{sc.print_term(seg.start)} | {sc.print_term(seg.end)}")
            if seg.rel == "parallel":
                wit = seg.steps[0]
                if wit.parts:
                    body = ",".join(
                        f"{_resolve_name(rl, table, 'parallel')}@{pos_str(p)}"
                        for p, rl in wit.parts)
                else:
                    body = "-"
                lines.append(f"pstep {body}")
            else:
                lines.extend(_step_lines("step", seg.steps, table, f"{seg.rel} segment"))
            lines.append("endsegment")
        lines.append("endjoin")
    lines.append("END CERTIFICATE")
    return "\n".join(lines) + "\n"


# --- parsing -------------------------------------------------------------------


@dataclass
class SegData:
    rel: str
    rules: str
    reverse: bool
    start: Term
    end: Term
    ops: list = field(default_factory=list)  # ("step", pos, name) | ("pstep", [(name,pos)])


@dataclass
class JoinData:
    condition: str
    branch: str
    left: Term = None
    right: Term = None
    peak: Term = None
    x_ids: frozenset = frozenset()
    segments: list = field(default_factory=list)


@dataclass
class HistoryData:
    kind: str
    name: str
    old_name: str = ""
    lhs: Term = None
    yields: Term = None
    steps: list = field(default_factory=list)  # [(pos, rulename)], forward in Q
    back: list = field(default_factory=list)  # replacements: new rhs back to old in Q'


@dataclass
class CertificateData:
    verdict: str = ""
    reason: str = ""
    criterion: str = ""
    tag: str = ""
    input_rules: list = field(default_factory=list)
    history: list = field(default_factory=list)
    s_names: tuple = ()
    p_names: tuple = ()
    pp_rules: list = field(default_factory=list)
    rev_bound: int = 0
    rev_seqs: list = field(default_factory=list)  # (name, [(pos, rulename)])
    term_cert: TerminationCertificate | None = None
    relterm_cert: TerminationCertificate | None = None
    joins: list = field(default_factory=list)
    has_partition: bool = False
    has_reversibility: bool = False


def _parse_rule_line(rest: str) -> Rule:
    name, _, body = rest.partition(":")
    lhs_s, arrow, rhs_s = body.partition("->")
    if not arrow:
        raise CertificateError(f"rule line missing '->': {rest!r}")
    sc = _ParseScope()
    return Rule(parse_term(lhs_s, sc), parse_term(rhs_s, sc), name.strip())


def _parse_names(s: str) -> tuple:
    s = s.strip()
    return tuple(n for n in s.split(",") if n) if s else ()


def parse_certificate(text: str) -> CertificateData:
    cert = CertificateData()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "BEGIN CERTIFICATE" or lines[-1] != "END CERTIFICATE":
        raise CertificateError("missing BEGIN/END CERTIFICATE markers")
    body = lines[1:-1]
    i = 0
    section = ""
    cur_join = None
    cur_seg = None
    cur_scope = None
    cur_hist = None
    while i < len(body):
        line = body[i]
        i += 1
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "format":
            if rest != FORMAT:
                raise CertificateError(f"unsupported certificate format {rest!r}")
        elif word == "verdict":
            cert.verdict = rest
        elif word == "reason":
            cert.reason = rest
        elif word == "criterion":
            cert.criterion = rest
        elif word == "tag":
            cert.tag = rest
        elif word == "section":
            section = rest
            if section == "partition":
                cert.has_partition = True
            if section == "reversibility":
                cert.has_reversibility = True
        elif word == "rule" and section == "input":
            cert.input_rules.append(_parse_rule_line(rest))
        elif word == "addition" and section == "history":
            name, _, lhs_s = rest.partition(":")
            cur_scope = _ParseScope()
            cur_hist = HistoryData("addition", name.strip(), lhs=parse_term(lhs_s, cur_scope))
            cert.history.append(cur_hist)
        elif word == "replace" and section == "history":
            old, _, new = rest.partition(" with ")
            cur_scope = None
            cur_hist = HistoryData("replacement", new.strip(), old_name=old.strip())
            cert.history.append(cur_hist)
        elif word in ("step", "back") and section == "history":
            pos_s, _, rn = rest.partition(" ")
            getattr(cur_hist, "steps" if word == "step" else "back").append(
                (_parse_pos(pos_s), rn.strip()))
        elif word == "yields" and section == "history":
            cur_hist.yields = parse_term(rest, cur_scope)
        elif word in ("endadd", "endreplace") and section == "history":
            cur_hist = None
            cur_scope = None
        elif word == "final-s" and section == "partition":
            cert.s_names = _parse_names(rest)
        elif word == "final-p" and section == "partition":
            cert.p_names = _parse_names(rest)
        elif word == "pprule" and section == "partition":
            cert.pp_rules.append(_parse_rule_line(rest))
        elif word == "bound" and section == "reversibility":
            cert.rev_bound = int(rest)
        elif word == "revseq" and section == "reversibility":
            name, _, steps_s = rest.partition(":")
            steps = []
            steps_s = steps_s.strip()
            if steps_s != "-":
                for chunk in steps_s.split(";"):
                    pos_s, _, rn = chunk.strip().partition(" ")
                    steps.append((_parse_pos(pos_s), rn.strip()))
            cert.rev_seqs.append((name.strip(), steps))
        elif word == "termcert" and section == "termination":
            cert.term_cert = _term_cert_from_json(rest)
        elif word == "relterm" and section == "termination":
            cert.relterm_cert = _term_cert_from_json(rest)
        elif word == "join" and section == "joins":
            cond, _, branch = rest.partition(" ")
            cur_scope = _ParseScope()
            cur_join = JoinData(cond.strip(), branch.strip())
            cert.joins.append(cur_join)
        elif word == "jpair":
            l_s, r_s = rest.split("|")
            cur_join.left, cur_join.right = parse_term(l_s, cur_scope), parse_term(r_s, cur_scope)
        elif word == "jpeak":
            cur_join.peak = parse_term(rest, cur_scope)
        elif word == "jx":
            names = [] if rest == "-" else [nm.strip().lstrip("?") for nm in rest.split(",")]
            unknown = [nm for nm in names if nm not in cur_scope.vars]
            if unknown:
                raise CertificateError(f"unknown constrained variable {unknown[0]!r}")
            cur_join.x_ids = frozenset(cur_scope.vars[nm].id for nm in names)
        elif word == "segment":
            head, start_s, end_s = rest.split("|")
            rel, rules, dirn = head.split()
            cur_seg = SegData(rel, rules, dirn == "rev", parse_term(start_s, cur_scope),
                              parse_term(end_s, cur_scope))
            cur_join.segments.append(cur_seg)
        elif word == "step" and section == "joins":
            pos_s, _, rn = rest.partition(" ")
            cur_seg.ops.append(("step", _parse_pos(pos_s), rn.strip()))
        elif word == "pstep":
            parts = []
            if rest != "-":
                for chunk in rest.split(","):
                    rn, _, pos_s = chunk.strip().rpartition("@")
                    parts.append((rn, _parse_pos(pos_s)))
            cur_seg.ops.append(("pstep", parts))
        elif word == "endsegment":
            cur_seg = None
        elif word == "endjoin":
            cur_join = None
            cur_scope = None
        else:
            raise CertificateError(f"unexpected line in section {section!r}: {line!r}")
    return cert


# --- verification --------------------------------------------------------------


def _replay(start: Term, steps, table: Trs):
    """The end term of the named steps [(position, rule name)] applied in
    order from start, or a string saying which step fails."""
    try:
        return replay(start, ((pos, table.rule(rn)) for pos, rn in steps))
    except KeyError as exc:
        return f"rule {exc.args[0]!r} is not available"
    except ValueError as exc:
        return str(exc)


def _replay_segment(seg: SegData, tables: dict, problems: list, label: str):
    table = tables.get(seg.rules)
    if table is None:
        problems.append(f"{label}: unknown rule class {seg.rules}")
        return None
    anchor = seg.end if seg.reverse else seg.start
    goal = seg.start if seg.reverse else seg.end
    cur = anchor
    simple = 0
    psteps = 0
    par_positions = ()
    for op in seg.ops:
        if op[0] == "step":
            _, pos, rn = op
            steps = [(pos, rn)]
            simple += 1
        else:
            _, parts = op
            steps = [(pos, rn) for rn, pos in parts]
            positions = [pos for pos, _rn in steps]
            if not all_parallel(positions):
                problems.append(f"{label}: parallel step positions overlap")
                return None
            psteps += 1
            par_positions = tuple(positions)
        cur = _replay(cur, steps, table)
        if isinstance(cur, str):
            problems.append(f"{label}: {seg.rules} {cur}")
            return None
    if cur != goal:
        problems.append(f"{label}: segment does not connect its endpoints")
        return None
    need = seg.rel
    ok_count = (
        (need == "step" and simple == 1 and psteps == 0)
        or (need == "opt" and simple <= 1 and psteps == 0)
        or (need in ("star", "conv", "plus") and psteps == 0
            and (simple >= 1 if need == "plus" else True))
        or (need == "parallel" and simple == 0 and psteps == 1)
    )
    if not ok_count:
        problems.append(f"{label}: step count violates relation {need!r}")
        return None
    return par_positions


def _check_join(join: JoinData, criterion: str, tables: dict, problems: list) -> bool:
    label = f"join <{join.condition},{join.branch}>"
    shape = SHAPES.get((criterion, join.condition, join.branch))
    if shape is None:
        problems.append(f"{label}: no such condition/branch for {criterion}")
        return False
    if len(shape) != len(join.segments):
        problems.append(f"{label}: expected {len(shape)} segments, got {len(join.segments)}")
        return False
    for seg, (rel, rules, rev) in zip(join.segments, shape):
        if (seg.rel, seg.rules, seg.reverse) != (rel, rules, rev):
            problems.append(f"{label}: segment shape mismatch")
            return False
    if join.segments[0].start != join.left:
        problems.append(f"{label}: chain does not start at the pair's left term")
        return False
    if join.segments[-1].end != join.right:
        problems.append(f"{label}: chain does not end at the pair's right term")
        return False
    for a, b in zip(join.segments, join.segments[1:]):
        if a.end != b.start:
            problems.append(f"{label}: segments do not chain")
            return False
    par_info = None
    for k, seg in enumerate(join.segments):
        got = _replay_segment(seg, tables, problems, f"{label} segment {k + 1}")
        if got is None:
            return False
        if seg.rel == "parallel":
            par_info = (seg, got)
    if criterion == "pcp" and join.condition == "ii":
        if join.peak is None:
            problems.append(f"{label}: missing peak for the variable condition")
            return False
        if par_info is None:
            problems.append(f"{label}: missing parallel segment")
            return False
        seg, positions = par_info
        target = seg.start if seg.reverse else seg.end
        used = set()
        for pos in positions:
            try:
                used |= var_ids(subterm_at(target, pos))
            except ValueError:
                problems.append(f"{label}: parallel position outside the term")
                return False
        if not used <= set(join.x_ids):
            problems.append(f"{label}: variable condition violated")
            return False
    return True


def verify_certificate(text: str, problem: Trs | None = None, hook=None):
    """Replay a certificate.  Returns (ok, problems)."""
    try:
        return _verify(text, problem, hook)
    except RecursionError:
        # reading and writing terms does not recurse, but these walkers still
        # do, once per nesting level: App.__eq__ on equal distinct terms,
        # apply, rename_term, replace_at, positions, canonical_tuple (so
        # Rule.key), unify_all's _resolve, and termination's lpo_gt, interpret
        # and _cap_ren
        return False, ["a term is nested too deeply to check"]


def _verify(text: str, problem: Trs | None, hook):
    problems: list[str] = []
    try:
        cert = parse_certificate(text)
    except (CertificateError, ValueError, AttributeError, KeyError, IndexError) as exc:
        return False, [f"unparsable certificate: {exc}"]

    if cert.verdict == "MAYBE":
        return True, []
    if cert.verdict != "YES":
        return False, [f"unknown verdict {cert.verdict!r}"]

    try:
        q = Trs(cert.input_rules)
    except ValueError as exc:
        return False, [f"bad input section: {exc}"]
    if problem is not None and q.key() != problem.key():
        problems.append("certificate input differs from the supplied problem")

    # 1. replay the completion history: each step is a forward derivation in
    # the current system q (and a replacement's back steps one in the next),
    # so every transformation keeps →* unchanged
    for h in cert.history:
        label = f"history step {h.name}"
        old = None
        if h.kind == "replacement":
            try:
                old = q.rule(h.old_name)
            except KeyError:
                problems.append(f"{label}: unknown rule {h.old_name}")
                return False, problems
        lhs, start = (h.lhs, h.lhs) if old is None else (old.lhs, old.rhs)
        rhs = _replay(start, h.steps, q)
        if isinstance(rhs, str):
            problems.append(f"{label}: {rhs}")
            return False, problems
        if h.yields is not None and rhs != h.yields:
            problems.append(f"{label}: witness does not yield the stated term")
            return False, problems
        try:
            new = Rule(lhs, rhs, h.name)
            q = Trs([*q, new]) if old is None else q.replace(old, new)
        except ValueError as exc:
            problems.append(f"{label}: invalid rule: {exc}")
            return False, problems
        if old is not None:
            back = _replay(rhs, h.back, q)
            if back != old.rhs:
                why = back if isinstance(back, str) else "steps do not reach the old right side"
                problems.append(f"{label}: back {why}")
                return False, problems

    # 2. the final partition
    if not cert.has_partition:
        return False, problems + ["missing partition section"]
    if sorted(cert.s_names + cert.p_names) != sorted(r.name for r in q):
        problems.append("final S/P is not a partition of the final system")
        return False, problems
    s = Trs([q.rule(n) for n in cert.s_names])
    p = Trs([q.rule(n) for n in cert.p_names])
    if not p.bidirectional():
        return False, problems + ["final P is not bidirectional"]
    pp = p.with_inverses()

    # 3. reversibility of P
    if len(p) and not cert.has_reversibility:
        return False, problems + ["missing reversibility section"]
    problems.extend(reversal_problems(p, cert.rev_seqs))

    # 4. P' and termination certificates
    p_prime = None
    if cert.criterion != "huet":
        pps = []
        for r in cert.pp_rules:
            if not pp.contains_variant(r):
                problems.append(f"P' rule {r.name} is not a variant of a P∪P⁻¹ rule")
            pps.append(r)
        try:
            p_prime = Trs(pps)
        except ValueError as exc:
            problems.append(f"bad P' set: {exc}")
            p_prime = empty_trs()
        checks = (("plain termination certificate for S", cert.term_cert, empty_trs()),
                  ("relative termination certificate for S/P'", cert.relterm_cert, p_prime))
    else:
        checks = (("relative termination certificate for S/P", cert.relterm_cert, p),)
    for label, term_cert, p_part in checks:
        if term_cert is None:
            problems.append(f"missing {label}")
            continue
        try:
            if not replay_certificate(s, p_part, term_cert, hook=hook):
                problems.append(f"{label} rejected")
        except (MalformedCertificate, TypeError, ValueError) as exc:
            problems.append(f"{label} malformed: {exc}")

    # 5. linearity preconditions
    crit = cert.criterion
    if crit not in CRITERION_TABLE:
        return False, problems + [f"unknown criterion {crit!r}"]
    (prop, linear_classes), conditions = CRITERION_TABLE[crit]
    classes = {"S": s, "P": p, "PP": pp}
    if not all(getattr(classes[c], prop)() for c in linear_classes):
        problems.append(f"{prop.replace('_', '-')}ity precondition violated")

    # 6. joins cover all recomputed critical pairs
    sp = s.union(p_prime) if p_prime is not None else s
    tables = {"S": s, "PP": pp, "SP": sp, "P": pp}
    families = []
    for cond, (gen, left, right) in conditions:
        pairs = globals()[gen](classes[left], classes[right])
        if (crit, cond, "A") in SHAPES:
            families.append((cond, pairs))
        elif pairs:  # parallel's (ii), the one family that must be empty
            problems.append("inner critical pairs of P∪P⁻¹ into S must be empty")
    valid = []
    first_join = {}  # join key -> index of the first valid join with that key
    for j, join in enumerate(cert.joins):
        if _check_join(join, crit, tables, problems):
            valid.append(j)
            key = _witness_key(crit, join.condition, join.left, join.right,
                               join.peak, join.x_ids)
            first_join.setdefault((join.condition, key), j)
    used = set()
    for cond, pairs in families:
        for pair in pairs:
            key = _witness_key(crit, cond, pair.left, pair.right, pair.peak,
                               getattr(pair, "var_limit", None))
            hit = first_join.get((cond, key))
            if hit is None:
                problems.append(f"no valid join for pair {pair!r} (condition {cond})")
            else:
                used.add(hit)
    for j in valid:
        if j not in used:
            join = cert.joins[j]
            problems.append(
                f"join <{join.condition},{join.branch}> matches no recomputed pair")

    return (not problems), problems
