"""Command line front end: read a rewrite system, decide confluence, print
YES or MAYBE on the first line, and optionally emit a replayable certificate.

Exit status: 0 for YES, 1 for MAYBE, 2 for errors, internal ones included."""
import argparse
import random
import sys

from .trs_format import ParseError, parse_trs_file
from .completion import COMPLETION_CRITERIA, check_confluence
from .criteria import CRITERIA
from .certificate import certificate_text
from .ars_oracle import IFF_TAGS, TAGS, check_abstract_criterion, precondition_holds, random_ars


def _ars_fuzz(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="confl ars-fuzz",
        description="Fuzz the abstract-relation criteria against the "
                    "Church-Rosser-modulo definition on random finite relations.")
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    bad = 0
    for i in range(args.count):
        a = random_ars(rng)
        for tag in TAGS:
            holds, crm = check_abstract_criterion(a, tag)
            if holds and not crm:
                bad += 1
                print(f"unsound: instance {i} tag {tag}: criterion holds but not CR modulo")
            if tag in IFF_TAGS and precondition_holds(a, tag) and crm and not holds:
                bad += 1
                print(f"incomplete: instance {i} tag {tag}: CR modulo but criterion fails")
    print(f"checked {args.count} instances, {bad} violation(s)")
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "ars-fuzz":  # maintenance tool, not advertised
        return _ars_fuzz(argv[1:])

    parser = argparse.ArgumentParser(
        prog="confl",
        description="Confluence prover for first-order rewrite systems that "
                    "split into a terminating part and a reversible part.")
    parser.add_argument("file", help="rewrite system in the plain (VAR/RULES) format")
    parser.add_argument("--criterion", default="auto",
                        choices=("auto", *CRITERIA),
                        help="restrict the proof search to one criterion")
    parser.add_argument("--max-steps", type=int, default=20,
                        help="completion expansion budget")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="wall-clock budget in seconds")
    parser.add_argument("--rev-k", type=int, default=10,
                        help="reversibility search bound")
    parser.add_argument("--depth", type=int, default=10,
                        help="joinability search depth")
    parser.add_argument("--certificate", metavar="PATH",
                        help="write a replayable certificate here")
    parser.add_argument("--ext-termination", metavar="PATH",
                        help="external termination prover to consult as a last resort")
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # exit status 1 would read as MAYBE
        print("ERROR")
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def _run(args) -> int:
    try:
        trs = parse_trs_file(args.file)
    except OSError as exc:
        print("ERROR")
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print("ERROR")
        print(f"{args.file}:{exc}", file=sys.stderr)
        return 2

    criteria = COMPLETION_CRITERIA if args.criterion == "auto" else (args.criterion,)
    result = check_confluence(
        trs,
        criteria=criteria,
        max_steps=args.max_steps,
        timeout=args.timeout,
        depth=args.depth,
        rev_bound=args.rev_k,
        hook=args.ext_termination,
    )
    # before the verdict is printed, so that a failed write leaves only ERROR
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(certificate_text(trs, result))
    print(result.verdict)
    print(result.reason)
    if result.verdict == "YES" and result.report is not None:
        rep = result.report
        s_names = ",".join(r.name for r in rep.s)
        p_names = ",".join(r.name for r in rep.p)
        print(f"S = [{s_names}]  P = [{p_names}]")
        if rep.p_prime is not None:
            print(f"P' = [{','.join(r.name for r in rep.p_prime)}]")
    return 0 if result.verdict == "YES" else 1


if __name__ == "__main__":
    raise SystemExit(main())
