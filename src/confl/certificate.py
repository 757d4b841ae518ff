"""Self-contained, replayable proof certificates.

A YES certificate records the input system, every completion transformation
with its conversion witness, the final S/P split, the reversibility witness,
termination certificates, and one join witness per critical pair.  The
verifier replays all of it without performing any search: steps are applied
positionally, termination certificates are checked arithmetically, and the
critical-pair sets are recomputed and matched against the supplied joins.
"""
import json
from dataclasses import asdict, dataclass, field

from .terms import (
    App,
    Position,
    Term,
    Var,
    all_parallel,
    canonical_tuple,
    fresh_id,
    subterm_at,
    var_ids,
)
from .rewriting import Rule, Trs, empty_trs, step_at
# cp, cp_in and pcp_in are called by the names CRITERION_TABLE gives
from .critical_pairs import ParallelCriticalPair, cp, cp_in, pcp_in
from .criteria import CRITERION_TABLE, SHAPES
from .termination import MalformedCertificate, TerminationCertificate, replay_certificate

FORMAT = "1"


# --- term scope: stable local variable names per block ------------------------


class _Scope:
    def __init__(self):
        self.names: dict[int, str] = {}

    def name(self, v: Var) -> str:
        if v.id not in self.names:
            self.names[v.id] = f"v{len(self.names) + 1}"
        return self.names[v.id]

    def print_term(self, t: Term) -> str:
        if isinstance(t, Var):
            return "?" + self.name(t)
        if not t.args:
            return t.fn
        return f"{t.fn}({','.join(self.print_term(a) for a in t.args)})"


class _ParseScope:
    def __init__(self):
        self.vars: dict[str, Var] = {}

    def var(self, name: str) -> Var:
        if name not in self.vars:
            self.vars[name] = Var(fresh_id(), name)
        return self.vars[name]


class CertificateError(ValueError):
    pass


def _parse_term(text: str, pos: int, scope: _ParseScope):
    n = len(text)
    while pos < n and text[pos] == " ":
        pos += 1
    is_var = pos < n and text[pos] == "?"
    if is_var:
        pos += 1
    start = pos
    while pos < n and (text[pos].isalnum() or text[pos] in "+*'_-~#"):
        pos += 1
    name = text[start:pos]
    if not name:
        raise CertificateError(f"bad term syntax at {text[start:]!r}")
    if is_var:
        return scope.var(name), pos
    if pos < n and text[pos] == "(":
        pos += 1
        args = []
        if pos < n and text[pos] == ")":
            return App(name, ()), pos + 1
        while True:
            arg, pos = _parse_term(text, pos, scope)
            if pos < n and text[pos] == ",":
                pos += 1
                args.append(arg)
                continue
            if pos < n and text[pos] == ")":
                args.append(arg)
                return App(name, tuple(args)), pos + 1
            raise CertificateError(f"bad term syntax near offset {pos} in {text!r}")
    return App(name, ()), pos


def parse_term(text: str, scope: _ParseScope) -> Term:
    t, pos = _parse_term(text, 0, scope)
    if text[pos:].strip():
        raise CertificateError(f"trailing input after term: {text[pos:]!r}")
    return t


def _pos_str(p: Position) -> str:
    return "e" if not p else ".".join(map(str, p))


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
    return [f"{kind} {_pos_str(st.position)} {_resolve_name(st.rule, table, what)}"
            for st in steps]


def _witness_key(criterion: str, condition: str, left, right, peak, var_limit):
    """Identity of a join witness: the pair up to renaming (plus peak and
    variable constraint where the criterion distinguishes by them)."""
    if criterion == "pcp" and condition == "ii":
        probe = ParallelCriticalPair(
            left=left, right=right, kind="inner", peak=peak,
            inner_rules=(), outer_rule=None, positions=(), mgu={},
            var_limit=var_limit)
        return probe.key()
    return canonical_tuple((left, right))


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
        # resolve witness rules against the partitions recorded per step
        q = problem
        hist_lines = ["section history"]
        for j in state.history:
            s_tab = Trs([q.rule(n) for n in j.s_names])
            p_tab = Trs([q.rule(n) for n in j.p_names])
            pp_tab = p_tab.with_inverses()
            if j.kind == "addition":
                sc = _Scope()
                hist_lines.append(f"addition {j.rule.name}: {sc.print_term(j.rule.lhs)}")
                hist_lines.append(f"with S={','.join(j.s_names)} P={','.join(j.p_names)}")
                hist_lines.extend(_step_lines("cstep", j.conv_steps, pp_tab, "conversion"))
                hist_lines.extend(_step_lines("sstep", j.s_steps, s_tab, "rewrite"))
                hist_lines.append(f"yields {sc.print_term(j.rule.rhs)}")
                hist_lines.append("endadd")
                q = q.union(Trs([j.rule]))
            else:
                hist_lines.append(f"replace {j.old_rule.name} with {j.rule.name}")
                hist_lines.append(f"with S={','.join(j.s_names)} P={','.join(j.p_names)}")
                hist_lines.extend(_step_lines("cstep", j.conv_steps, pp_tab, "conversion"))
                hist_lines.append("endreplace")
                q = Trs([r for r in q if r.key() != j.old_rule.key()] + [j.rule])
        lines.extend(hist_lines)

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
                    f"{_pos_str(st.position)} {_resolve_name(st.rule, p_tab, 'reversal')}"
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
            xs = ",".join(sorted("?" + sc.names[i] for i in ev.var_limit if i in sc.names)
                          ) if ev.var_limit else ""
            # make sure every constrained variable has a scope name
            missing = [i for i in ev.var_limit if i not in sc.names]
            if missing:
                raise CertificateError("constrained variable absent from pair/peak")
            lines.append(f"jx {xs if xs else '-'}")
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
                        f"{_resolve_name(rl, table, 'parallel')}@{_pos_str(p)}"
                        for (p, rl, _sub) in wit.parts)
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
    s_names: tuple = ()
    p_names: tuple = ()
    csteps: list = field(default_factory=list)
    ssteps: list = field(default_factory=list)


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
    return Rule(parse_term(lhs_s.strip(), sc), parse_term(rhs_s.strip(), sc),
                name.strip())


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
            cur_hist = HistoryData("addition", name.strip(),
                                   lhs=parse_term(lhs_s.strip(), cur_scope))
            cert.history.append(cur_hist)
        elif word == "replace" and section == "history":
            old, _, new = rest.partition(" with ")
            cur_scope = None
            cur_hist = HistoryData("replacement", new.strip(), old_name=old.strip())
            cert.history.append(cur_hist)
        elif word == "with" and section == "history":
            s_part, _, p_part = rest.partition(" P=")
            if not s_part.startswith("S="):
                raise CertificateError(f"malformed partition line: {line!r}")
            cur_hist.s_names = _parse_names(s_part[2:])
            cur_hist.p_names = _parse_names(p_part)
        elif word == "cstep" and section == "history":
            pos_s, _, rn = rest.partition(" ")
            cur_hist.csteps.append((_parse_pos(pos_s), rn.strip()))
        elif word == "sstep" and section == "history":
            pos_s, _, rn = rest.partition(" ")
            cur_hist.ssteps.append((_parse_pos(pos_s), rn.strip()))
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
            l_s, _, r_s = rest.partition("|")
            cur_join.left = parse_term(l_s.strip(), cur_scope)
            cur_join.right = parse_term(r_s.strip(), cur_scope)
        elif word == "jpeak":
            cur_join.peak = parse_term(rest, cur_scope)
        elif word == "jx":
            if rest == "-":
                cur_join.x_ids = frozenset()
            else:
                ids = set()
                for nm in rest.split(","):
                    nm = nm.strip().lstrip("?")
                    if nm not in cur_scope.vars:
                        raise CertificateError(f"unknown constrained variable {nm!r}")
                    ids.add(cur_scope.vars[nm].id)
                cur_join.x_ids = frozenset(ids)
        elif word == "segment":
            head, _, terms = rest.partition("|")
            rel, rules, dirn = head.split()
            start_s, _, end_s = terms.partition("|")
            cur_seg = SegData(rel, rules, dirn == "rev",
                              parse_term(start_s.strip(), cur_scope),
                              parse_term(end_s.strip(), cur_scope))
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
    cur = start
    for pos, rn in steps:
        try:
            st = step_at(cur, pos, table.rule(rn))
        except KeyError:
            return f"rule {rn!r} is not available"
        except ValueError:
            st = None
        if st is None:
            return f"step {rn} at {_pos_str(pos)} does not apply"
        cur = st.target
    return cur


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


def _join_key(join: JoinData, criterion: str):
    return _witness_key(criterion, join.condition, join.left, join.right,
                        join.peak, join.x_ids)


def _pair_key(pair, criterion: str, condition: str):
    if criterion == "pcp" and condition == "ii":
        return pair.key()
    return canonical_tuple((pair.left, pair.right))


def verify_certificate(text: str, problem: Trs | None = None, hook=None):
    """Replay a certificate.  Returns (ok, problems)."""
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

    # 1. replay the completion history
    for h in cert.history:
        names = {r.name for r in q}
        if not set(h.s_names) <= names or not set(h.p_names) <= names:
            problems.append(f"history step {h.name}: partition names not in the system")
            return False, problems
        if set(h.s_names) & set(h.p_names):
            problems.append(f"history step {h.name}: S and P overlap")
            return False, problems
        s_tab = Trs([q.rule(n) for n in h.s_names])
        p_tab = Trs([q.rule(n) for n in h.p_names])
        if not p_tab.bidirectional():
            problems.append(f"history step {h.name}: P part is not bidirectional")
            return False, problems
        pp_tab = p_tab.with_inverses()
        if h.kind == "addition":
            cur = _replay(h.lhs, h.csteps, pp_tab)
            if isinstance(cur, str):
                problems.append(f"history step {h.name}: conversion {cur}")
                return False, problems
            cur = _replay(cur, h.ssteps, s_tab)
            if isinstance(cur, str):
                problems.append(f"history step {h.name}: rewrite {cur}")
                return False, problems
            if h.yields is not None and cur != h.yields:
                problems.append(f"history step {h.name}: witness does not yield the stated term")
                return False, problems
            try:
                rule = Rule(h.lhs, cur, h.name)
            except ValueError as exc:
                problems.append(f"history step {h.name}: invalid rule: {exc}")
                return False, problems
            if h.name in names:
                problems.append(f"history step {h.name}: duplicate rule name")
                return False, problems
            q = Trs(list(q) + [rule])
        else:
            try:
                old = q.rule(h.old_name)
            except KeyError:
                problems.append(f"history step {h.name}: unknown rule {h.old_name}")
                return False, problems
            if len(h.csteps) != 1:
                problems.append(f"history step {h.name}: replacement needs exactly one step")
                return False, problems
            rhs = _replay(old.rhs, h.csteps, pp_tab)
            if isinstance(rhs, str):
                problems.append(f"history step {h.name}: replacement {rhs}")
                return False, problems
            try:
                rule = Rule(old.lhs, rhs, h.name)
            except ValueError as exc:
                problems.append(f"history step {h.name}: invalid rule: {exc}")
                return False, problems
            q = Trs([r for r in q if r.key() != old.key()] + [rule])

    # 2. the final partition
    if not cert.has_partition:
        return False, problems + ["missing partition section"]
    names = {r.name for r in q}
    if set(cert.s_names) | set(cert.p_names) != names or set(cert.s_names) & set(cert.p_names):
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
    covered = set()
    for name, steps in cert.rev_seqs:
        try:
            rule = p.rule(name)
        except KeyError:
            problems.append(f"reversibility: unknown P rule {name}")
            continue
        cur = _replay(rule.rhs, steps, p)
        if isinstance(cur, str):
            problems.append(f"reversibility: {cur} for {name}")
        elif cur != rule.lhs:
            problems.append(f"reversibility: sequence for {name} does not reach the left side")
        else:
            covered.add(name)
    missing_rev = {r.name for r in p} - covered
    if missing_rev:
        problems.append(f"reversibility: no valid sequence for {sorted(missing_rev)}")

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
    for cond, (gen, left, right), join_name in conditions:
        pairs = globals()[gen](classes[left], classes[right])
        if join_name is not None:
            families.append((cond, pairs))
        elif pairs:  # parallel's (ii), the one family that must be empty
            problems.append("inner critical pairs of P∪P⁻¹ into S must be empty")
    valid = []
    first_join = {}  # join key -> index of the first valid join with that key
    for j, join in enumerate(cert.joins):
        if _check_join(join, crit, tables, problems):
            valid.append(j)
            first_join.setdefault((join.condition, _join_key(join, crit)), j)
    used = set()
    for cond, pairs in families:
        for pair in pairs:
            hit = first_join.get((cond, _pair_key(pair, crit, cond)))
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
