"""Command-line front end.

Machine-readable JSON goes to stdout (one object per line); short human
summaries go to stderr.  Exit codes: 0 success, 1 verification or
identity failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (
    InputError,
    Tournament,
    _members,
    format_tourn_v1,
    parse_tourn_v1,
    random_tournament,
    transitive,
)
from .comodular import comodular_index
from .inversion import (
    MIN_VERTICES,
    certificate_to_json,
    decomposability_index,
    synthesize_certificate,
    verify_certificate,
)
from .modular import _analysis, nontrivial_modules
from .oracle import brute_Delta, brute_delta, brute_modules, report_to_json, sweep_verify

USAGE_ERROR = 2
CHECK_ERROR = 1


def _load(path: str) -> Tournament:
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            return parse_tourn_v1(fh.read())
    except (OSError, ValueError) as exc:
        raise InputError(exc) from exc


def cmd_analyze(args) -> int:
    T = _load(args.file)
    A = _analysis(T)
    index = A.index
    indec = index == 0
    record = {
        "n": T.n,
        "indecomposable": indec,
        "Delta": index,
        "delta": decomposability_index(T) if T.n >= MIN_VERTICES else None,
        "mc": [list(_members(m)) for m in A.mc],
        "components": [sorted(run) for run in A.runs],
        "delta_decomposition": (
            [] if indec else [list(_members(m)) for m in next(A.decompositions())]
        ),
    }
    print(json.dumps(record))
    print(
        f"n={T.n} Delta={index} delta={record['delta']} "
        f"{'indecomposable' if indec else 'decomposable'}",
        file=sys.stderr,
    )
    return 0


def cmd_certify(args) -> int:
    T = _load(args.file)
    cert = synthesize_certificate(T)
    if not verify_certificate(T, cert):
        print("error: certificate failed self-verification", file=sys.stderr)
        return CHECK_ERROR
    print(certificate_to_json(cert))
    print(f"{len(cert.arcs)} inversion(s), trace {list(cert.trace)}", file=sys.stderr)
    return 0


# --check value -> (brute side, guided side).  Each brute oracle checks its
# own bound before any work, so it runs first; the lambdas look the names
# up at call time, so rebinding them (tracing, tests) takes effect.
_ORACLE_CHECKS = {
    "delta": (lambda T: brute_delta(T), lambda T: decomposability_index(T)),
    "Delta": (lambda T: brute_Delta(T), lambda T: comodular_index(T)),
    "modules": (
        lambda T: [list(s) for s in brute_modules(T) if 2 <= len(s) < T.n],
        lambda T: [list(s) for s in nontrivial_modules(T)],
    ),
}


def cmd_oracle(args) -> int:
    T = _load(args.file)
    brute_side, guided_side = _ORACLE_CHECKS[args.check]
    brute, guided = brute_side(T), guided_side(T)
    agree = guided == brute
    print(json.dumps({"check": args.check, "guided": guided, "brute": brute, "agree": agree}))
    print(f"{args.check}: {'pass' if agree else 'FAIL'}", file=sys.stderr)
    return 0 if agree else CHECK_ERROR


def cmd_sweep(args) -> int:
    reports = sweep_verify(args.max_n, jobs=args.jobs)
    for rep in reports:
        print(report_to_json(rep))
        print(
            f"n={rep.n}: {rep.class_count} classes, max Delta {rep.max_Delta}, "
            f"max delta {rep.max_delta}, {len(rep.violations)} violation(s)",
            file=sys.stderr,
        )
    return 0 if all(rep.ok for rep in reports) else CHECK_ERROR


def cmd_gen(args) -> int:
    T = random_tournament(args.n, args.seed) if args.type == "random" else transitive(args.n)
    try:
        with open(args.output, "w", encoding="ascii", newline="") as fh:
            fh.write(format_tourn_v1(T))
    except OSError as exc:
        raise InputError(exc) from exc
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tourmod`` argument parser, built once per process and shared
    by every ``main`` call (argparse returns a fresh namespace on each
    ``parse_args``, so no state carries over between calls)."""
    parser = argparse.ArgumentParser(
        prog="tourmod",
        description="Tournament modular structure: indices, decompositions, "
        "inversion certificates, oracle cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural summary of a tournament file")
    p.add_argument("file")

    p = sub.add_parser("certify", help="minimum inversion certificate")
    p.add_argument("file")

    p = sub.add_parser("oracle", help="cross-check guided against brute force")
    p.add_argument("file")
    p.add_argument("--check", required=True, choices=list(_ORACLE_CHECKS))

    p = sub.add_parser("sweep", help="verify all classes up to a size")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("gen", help="write a tournament file")
    p.add_argument("--type", required=True, choices=["transitive", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so rebinding a handler (tracing, tests) takes
    # effect although the parser is cached
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
