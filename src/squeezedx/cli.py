"""Command-line front end.

    squeezedx run <config>          execute the products a config requests
    squeezedx verify <config>       run the verification checks only
    squeezedx dump-density <config> --time <t>   write a density-matrix dump

Exit codes: 0 success (all requested verifications passed), 1 verification
or numerical failure, 2 parse error or unusable path, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvariantError, ParseError, SqueezedXError
from .scenario import DEFAULT_SEED, parse_config, run_scenarios

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in u64: {value}")
    return seed


def _time(value: str) -> float:
    t = float(value)
    if not math.isfinite(t):
        raise argparse.ArgumentTypeError(f"time must be finite: {value}")
    return t


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezedx",
        description="Squeezed and mixed Gaussian oscillator states in x-space: "
                    "run scenarios, verify closed forms against numerical oracles, "
                    "dump density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", type=Path, help="scenario config (JSON document)")
    common.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory for output files (default: ./out)")
    common.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="u64 seed for the Monte Carlo ensemble mode only")
    common.add_argument("--quiet", action="store_true",
                        help="print failures only")

    sub.add_parser("run", parents=[common],
                   help="execute every product the config requests")
    sub.add_parser("verify", parents=[common],
                   help="run verification checks regardless of requested products")
    dump = sub.add_parser("dump-density", parents=[common],
                          help="write a density-matrix dump at a given time")
    dump.add_argument("--time", type=_time, required=True,
                      help="evaluation time for the dump")
    return parser


def _emit(msg: str, quiet: bool = False) -> None:
    if not quiet:
        print(msg)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise ParseError(f"cannot read config {args.config}: {exc}") from exc
        scenarios = parse_config(text)
        # each command is a choice of products
        if args.command == "verify":
            scenarios = [replace(sc, outputs=("verify",)) for sc in scenarios]
        elif args.command == "dump-density":
            scenarios = [replace(sc, outputs=("density",), sample_times=(args.time,))
                         for sc in scenarios]

        results = run_scenarios(scenarios, args.out_dir, seed=args.seed)
        for res in results:
            for path in res.files:
                _emit(f"wrote {path}", args.quiet)
            for ok, line in res.lines:
                if ok:
                    _emit(line, args.quiet)
                else:
                    print(line, file=sys.stderr)
        if not all(res.verified for res in results):
            print("verification FAILED", file=sys.stderr)
            return EXIT_VERIFICATION
        return EXIT_OK

    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except SqueezedXError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    raise SystemExit(main())
