"""Command line surface.

Subcommands: hilbert FILE, iso FILE_A FILE_B, classify DIR and
oracle FILE_A FILE_B (shorthand for `iso --no-prune --oracle`).  The iso
verdict is printed as JSON on stdout; exit status encodes the outcome so
pipelines can branch: 0 isomorphic, 1 not isomorphic, 3 inconclusive.
Usage, parse, and mismatch errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import hilbert as hilbert_mod
from .classify import classify_corpus
from .errors import FinalgError
from .isotest import fingerprint, graded_isomorphism, verify_certificate
from .present import parse_file
from .truncated import DEFAULT_MONOMIAL_CEILING

EXIT_OK = 0
EXIT_NOT_ISOMORPHIC = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common_flags(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps subcommand defaults from clobbering values that were
    # already parsed in the global position
    parser.add_argument("--max-degree", type=_positive_int,
                        default=argparse.SUPPRESS,
                        metavar="D", help="working degree bound")
    parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit machine-readable JSON")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="reserved; all algorithms are deterministic")
    parser.add_argument("--monomial-ceiling", type=_positive_int,
                        default=argparse.SUPPRESS, metavar="N",
                        help="abort when a graded component would need more "
                             "than N monomials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finalg",
        description="graded isomorphism tests for presented algebras over GF(p)")
    _common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser("hilbert", help="series and dims of one presentation")
    p_h.add_argument("file")
    _common_flags(p_h)

    p_i = sub.add_parser("iso", help="decide graded isomorphism of a pair")
    p_i.add_argument("file_a")
    p_i.add_argument("file_b")
    p_i.add_argument("--no-prune", action="store_true",
                     help="disable subset pruning")
    p_i.add_argument("--certificate", action="store_true",
                     help="independently re-verify and print the certificate")
    p_i.add_argument("--oracle", action="store_true",
                     help="also run the brute-force enumeration and cross-check")
    _common_flags(p_i)

    p_o = sub.add_parser("oracle",
                         help="brute-force decision (iso --no-prune --oracle)")
    p_o.add_argument("file_a")
    p_o.add_argument("file_b")
    p_o.add_argument("--certificate", action="store_true")
    _common_flags(p_o)

    p_c = sub.add_parser("classify",
                         help="partition a directory of presentations")
    p_c.add_argument("dir")
    p_c.add_argument("--out", metavar="REPORT.json",
                     help="write the JSON report to this file")
    p_c.add_argument("--no-prune", action="store_true")
    _common_flags(p_c)
    return parser


def cmd_hilbert(args) -> int:
    pres = parse_file(args.file)
    fp = fingerprint(pres, getattr(args, "max_degree", None),
                     monomial_ceiling=getattr(args, "monomial_ceiling",
                                              DEFAULT_MONOMIAL_CEILING))
    dims, series = list(fp.dims), fp.series
    if getattr(args, "json", False):
        payload = {"algebra": pres.name, "bound": fp.bound, "dims": dims,
                   "series": None}
        if series is not None:
            canon = series.canonical()
            payload["series"] = {
                "numerator": hilbert_mod.format_int_poly(canon.num),
                "denominator": hilbert_mod.format_int_poly(canon.den),
            }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"algebra: {pres.name}")
    if series is not None:
        print(f"series: {series.canonical()}")
    else:
        print(f"series: truncated beyond degree {fp.bound}")
    print("dims (degrees 0..{}): {}".format(fp.bound, " ".join(map(str, dims))))
    return EXIT_OK


def _verdict_exit(outcome: str) -> int:
    return {"isomorphic": EXIT_OK,
            "not-isomorphic": EXIT_NOT_ISOMORPHIC,
            "inconclusive": EXIT_INCONCLUSIVE}[outcome]


def cmd_iso(args, force_oracle: bool = False) -> int:
    A = parse_file(args.file_a)
    B = parse_file(args.file_b)
    max_degree = getattr(args, "max_degree", None)
    ceiling = getattr(args, "monomial_ceiling", DEFAULT_MONOMIAL_CEILING)
    no_prune = force_oracle or getattr(args, "no_prune", False)
    run_oracle = force_oracle or getattr(args, "oracle", False)
    verdict = graded_isomorphism(A, B, max_degree=max_degree,
                                 prune=not no_prune,
                                 monomial_ceiling=ceiling)
    payload = verdict.to_json()
    if run_oracle:
        brute = graded_isomorphism(A, B, max_degree=max_degree, prune=False,
                                   use_fingerprints=False,
                                   monomial_ceiling=ceiling)
        payload["oracle"] = {"outcome": brute.outcome, "reason": brute.reason,
                             "agrees": brute.outcome == verdict.outcome,
                             "statistics": brute.statistics}
        if not payload["oracle"]["agrees"]:
            print(json.dumps(payload, indent=2))
            print("error: oracle cross-check disagrees with the main engine",
                  file=sys.stderr)
            return EXIT_ERROR
    if getattr(args, "certificate", False) and verdict.certificate is not None:
        payload["certificate_verified"] = verify_certificate(
            A, B, verdict.certificate)
    indent = 2 if getattr(args, "json", False) else None
    print(json.dumps(payload, indent=indent))
    return _verdict_exit(verdict.outcome)


def cmd_classify(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return EXIT_ERROR
    paths = sorted(str(p) for p in root.iterdir()
                   if p.is_file() and p.suffix == ".alg")
    report = classify_corpus(
        paths, max_degree=getattr(args, "max_degree", None),
        prune=not getattr(args, "no_prune", False),
        monomial_ceiling=getattr(args, "monomial_ceiling",
                                 DEFAULT_MONOMIAL_CEILING))
    payload = report.to_json()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        totals = report.totals
        print(f"entries: {totals['entries']}  parsed: {totals['parsed']}  "
              f"classes: {totals['classes']}")
        for k, cls in enumerate(report.classes, start=1):
            print(f"class {k}: {', '.join(cls)}")
        for entry in report.entries:
            if entry.error is not None:
                print(f"skipped {entry.path}: {entry.error}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "hilbert":
            return cmd_hilbert(args)
        if args.command == "iso":
            return cmd_iso(args)
        if args.command == "oracle":
            return cmd_iso(args, force_oracle=True)
        if args.command == "classify":
            return cmd_classify(args)
    except FinalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    parser.error(f"unknown command {args.command!r}")
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
