"""Batch command-line front end.

Exit codes: 0 verified/completed, 1 input or usage error, 2 a certified claim
was falsified (bound violated, oracle mismatch, broken invariant), 3 budget
or iteration cap exceeded; 3 also for MemoryError, RecursionError and
OverflowError, each reported on one ``budget:`` line that names it.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import comb
from typing import Optional, Sequence

from .errors import (
    BudgetExceededError,
    FalsificationError,
    IterationLimitError,
    ParseError,
)
from .exterior import format_multivector, parse_multivector
from .factor import common_annihilator, complement_pair_space, factor_report
from .families import (
    DEFAULT_BUDGET,
    ENUMERATION_MODES,
    SetFamily,
    ShiftPair,
    _walk,
    combinatorial_shift,
    enumerate_families,
)
from .ekr import ekr_pipeline, hilton_milner_verify, shifted_ekr_verify
from .limits import ROUTES, initial_subspace, limit_shift, pluecker_limit, decreasing_pairs
from .sampling import random_subspace
from .serialize import family_record, parse_input, save_json, subspace_record
from .subspace import ORDER_KINDS, MonomialOrder, Subspace, _check_pluecker_size


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _pair(text: str) -> ShiftPair:
    try:
        i, j = (int(tok) for tok in text.split(","))
        return ShiftPair(i, j)
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"bad --pair {text!r}: expected I,J with distinct indices") from exc


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise _UsageError(f"--budget must be at least 1, got {budget}")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _need_subspace(value, what: str) -> Subspace:
    if not isinstance(value, Subspace):
        raise ParseError(f"{what} expects a subspace record, got {type(value).__name__}")
    return value


def _need_family(value, what: str) -> SetFamily:
    if not isinstance(value, SetFamily):
        raise ParseError(f"{what} expects a family record, got {type(value).__name__}")
    return value


@functools.cache  # built on first use, not at import; every call of main shares it
def build_parser() -> _Parser:
    parser = _Parser(prog="wedgeshift", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify-family", help="certify the shifted intersecting bound for a family file")
    p.add_argument("input")

    p = sub.add_parser("pipeline", help="bound a self-annihilating subspace via the fixed-point drive")
    p.add_argument("input")
    p.add_argument("--route", choices=ROUTES, default="init-then-shift")
    p.add_argument("--trace", metavar="PATH")

    p = sub.add_parser("shift", help="apply one combinatorial shift to a family")
    p.add_argument("input")
    p.add_argument("--pair", required=True)

    p = sub.add_parser("limit", help="apply one shear limit to a subspace")
    p.add_argument("input")
    p.add_argument("--pair", required=True)

    p = sub.add_parser("init", help="initial-monomial degeneration of a subspace")
    p.add_argument("input")
    p.add_argument("--order", choices=ORDER_KINDS)

    p = sub.add_parser("factor", help="linear factors of a multivector literal")
    p.add_argument("input", help="multivector literal; put -- before one that starts with "
                                 "a minus sign: factor --n 2 -- \"-1/2*e2\"")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("annihilator", help="common annihilator of a subspace")
    p.add_argument("input")

    p = sub.add_parser("example-cross", help="build the complement-pair space on 2k indices")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check", action="store_true")

    p = sub.add_parser("enumerate", help="stream intersecting families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=[m.replace("_", "-") for m in ENUMERATION_MODES],
                   default="all-intersecting")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("hm-verify", help="exhaustive non-star bound check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("oracle-pluecker", help="compare the shear limit against its Pluecker oracle")
    p.add_argument("input", nargs="?")
    p.add_argument("--pair")
    p.add_argument("--random", type=int, metavar="TRIALS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int, default=2)
    return parser


def _emit_report(report, what: str) -> int:
    print(f"{what} {report.size} <= bound {report.bound}: "
          f"{'satisfied' if report.satisfied else 'VIOLATED'}")
    _emit(report.record())
    if not report.satisfied:
        raise FalsificationError("bound violated")
    return 0


def _check_oracle(V: Subspace, p: ShiftPair, where: str = "") -> None:
    if limit_shift(V, p).pluecker() != pluecker_limit(V, p):
        raise FalsificationError(f"oracle mismatch at {where}pair ({p.i}, {p.j})")


def _run_verify_family(args) -> int:
    fam = _need_family(parse_input(args.input), "verify-family")
    return _emit_report(shifted_ekr_verify(fam, identifier=args.input), "size")


def _run_pipeline(args) -> int:
    V = _need_subspace(parse_input(args.input), "pipeline")
    report = ekr_pipeline(V, route=args.route, identifier=args.input)
    if args.trace:  # before any output, so a failed write leaves stdout empty
        save_json(args.trace, report.certificate["steps"])
    return _emit_report(report, "dim")


def _run_shift(args) -> int:
    fam = _need_family(parse_input(args.input), "shift")
    _emit(family_record(combinatorial_shift(fam, _pair(args.pair))))
    return 0


def _run_limit(args) -> int:
    V = _need_subspace(parse_input(args.input), "limit")
    _emit(subspace_record(limit_shift(V, _pair(args.pair))))
    return 0


def _run_init(args) -> int:
    V = _need_subspace(parse_input(args.input), "init")
    if args.order and args.order != V.order.kind:
        V = Subspace._trusted(MonomialOrder(args.order, V.n, V.k), V._rows)
    _emit(subspace_record(initial_subspace(V)))
    return 0


def _run_factor(args) -> int:
    report = factor_report(parse_multivector(args.input, args.n), identifier=args.input)
    _emit(report.record())
    return 0


def _run_annihilator(args) -> int:
    V = _need_subspace(parse_input(args.input), "annihilator")
    ann = common_annihilator(V)
    print(f"annihilator dimension {ann.dim}")
    _emit(subspace_record(ann))
    return 0


def _run_example_cross(args) -> int:
    V = complement_pair_space(args.k)  # raises unless all four guarantees hold
    out = {
        "k": args.k,
        "n": V.n,
        "dim": V.dim,
        "spanning_rows": [format_multivector(r) for r in V.rows[:3]] + (["..."] if V.dim > 3 else []),
    }
    if args.check:
        out["self_annihilating"] = True
        out["spanning_elements_factor_free"] = True
        out["annihilator_dim"] = 0
    _emit(out)
    return 0


def _run_enumerate(args) -> int:
    _check_budget(args.budget)
    mode = args.mode.replace("-", "_")
    count = max_size = 0
    if args.count_only:
        for lex in _walk(args.n, args.k, mode, args.budget):
            count += 1
            max_size = max(max_size, lex.bit_count())
    else:
        for fam in enumerate_families(args.n, args.k, mode, budget=args.budget):
            count += 1
            max_size = max(max_size, fam.size)
            print(json.dumps(family_record(fam), separators=(",", ":")))
    _emit({"mode": mode, "n": args.n, "k": args.k, "count": count, "max_size": max_size})
    return 0


def _run_hm_verify(args) -> int:
    _check_budget(args.budget)
    report = hilton_milner_verify(args.n, args.k, budget=args.budget)
    return _emit_report(report, "max non-star size")


def _run_oracle_pluecker(args) -> int:
    if args.random is not None:
        if args.n is None or args.k is None:
            raise _UsageError("--random needs --n and --k")
        if args.random < 0:
            raise _UsageError(f"--random must be at least 0, got {args.random}")
        order = MonomialOrder("lex", args.n, args.k)
        top = comb(args.n, args.k)
        if not 1 <= args.m <= top:
            raise _UsageError(f"--m must be in 1..{top} for n={args.n}, k={args.k}")
        for dim in range(1, min(args.m, args.random) + 1):  # each sampled dimension, up front
            _check_pluecker_size(comb(top, dim))
        rng = random.Random(args.seed)
        pairs = decreasing_pairs(args.n)
        for trial in range(args.random):
            V = random_subspace(rng, order, 1 + trial % args.m)
            for p in pairs:
                _check_oracle(V, p, f"trial {trial}, ")
        _emit({"trials": args.random, "pairs_per_trial": len(pairs), "match": True,
               "seed": args.seed})
        return 0
    if not args.input or not args.pair:
        raise _UsageError("oracle-pluecker needs an input file and --pair, or --random")
    V = _need_subspace(parse_input(args.input), "oracle-pluecker")
    p = _pair(args.pair)
    _check_oracle(V, p)
    _emit({"pair": [p.i, p.j], "match": True})
    return 0


_HANDLERS = {
    "verify-family": _run_verify_family,
    "pipeline": _run_pipeline,
    "shift": _run_shift,
    "limit": _run_limit,
    "init": _run_init,
    "factor": _run_factor,
    "annihilator": _run_annihilator,
    "example-cross": _run_example_cross,
    "enumerate": _run_enumerate,
    "hm-verify": _run_hm_verify,
    "oracle-pluecker": _run_oracle_pluecker,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.verb](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, IterationLimitError) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError, OverflowError) as exc:
        print(f"budget: {exc!r}", file=sys.stderr)  # the repr names it, on one line
        return 3


def console_main() -> None:
    sys.exit(main())
