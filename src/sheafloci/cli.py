"""Command line interface.

Subcommands:
  analyze        codimension report for the singular loci of one fibre
  verify-remark6 check the built-in degree-6 reference configuration
  random         generate a pseudo-random configuration as JSON
  kronecker      resolution matrix, minors, and injectivity/stability checks
  localfree      local freeness of a curvilinear ideal on a curve germ

Exit codes: 0 success, 1 usage/parse/configuration errors, 2 genericity
failure (a certificate payload is printed on stdout).

Every command is a fresh process that compiles each package module it
imports, and start-up outweighs the algebra of most commands.  So this
module imports only argparse, json, sys and the error classes; each
``_cmd_*`` handler imports the modules it runs, and ``analyze`` checks
``--degree`` before it loads the fibre and locus code.  README
("Start-up") lists what each command loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import GenericityError, SheafLociError

# ten points in the plane, four of them on a line and three on another,
# used by verify-remark6; the expected codimensions are hard checks
REFERENCE_POINTS_D6 = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 1, -1),
    (1, -2, 0),
    (1, 2, -1),
    (1, 1, -2),
    (1, -1, 1),
    (1, 1, -1),
)

_REFERENCE_SUBSET_CODIMS = {
    (1, 2, 3): 6,
    (1, 2, 3, 4): 8,
    (1, 2, 3, 4, 5): 9,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; reserve 2 for genericity."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sheafloci", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="singular-locus codimensions of a fibre")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--degree", type=int, help="cross-check against the file")
    p.add_argument("--triples", action="store_true", help="include all triples")
    p.add_argument(
        "--subset",
        action="append",
        metavar="IDS",
        help="extra point-id subset like 1,2,3 (repeatable)",
    )
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "verify-remark6", help="check the built-in ten-point reference"
    )
    p.add_argument(
        "--emit-config", metavar="PATH", help="write the reference configuration"
    )
    p.set_defaults(func=_cmd_verify_remark6)

    p = sub.add_parser("random", help="generate a configuration")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stratum", choices=["generic", "double"], default="generic")
    p.add_argument("--out", help="write the configuration here")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("kronecker", help="resolution data for a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kronecker)

    p = sub.add_parser("localfree", help="freeness of a curvilinear ideal")
    p.add_argument("--in", dest="infile", help="query JSON file")
    p.add_argument("--poly", help="curve germ, e.g. 'x^2 - y^3'")
    p.add_argument(
        "--h",
        help="comma-separated coefficients of h(y) from y^0 (default 0)",
    )
    p.add_argument("--mult", type=int, help="multiplicity of the fat point")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_localfree)

    return parser


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as e:
        raise SheafLociError(
            f"{path} is not UTF-8 text: {e.reason} at byte {e.start}"
        ) from None
    except json.JSONDecodeError as e:
        raise SheafLociError(f"invalid JSON: {e}") from None
    except ValueError as e:
        # an integer literal over Python's digit limit for int conversion
        raise SheafLociError(f"{path} holds a number too long to read: {e}") from None
    except RecursionError:
        raise SheafLociError(f"{path} nests arrays or objects too deeply to read") from None


def _emit(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_ids(text: str) -> tuple:
    try:
        ids = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SheafLociError(
            f"invalid subset {text!r}: expected comma-separated point ids"
        ) from None
    return ids


def _cmd_analyze(args) -> int:
    from .serialize import canonical_dumps, config_from_dict, report_to_dict

    cfg = config_from_dict(_read_json(args.config))
    if args.degree is not None and args.degree != cfg.degree:
        print(
            f"error: --degree {args.degree} does not match the "
            f"configuration degree {cfg.degree}",
            file=sys.stderr,
        )
        return 1
    from .linsys import fibre
    from .singloci import locus_report

    fib = fibre(cfg)
    subsets = [_parse_ids(s) for s in (args.subset or [])]
    rep = locus_report(fib, pairs=True, triples=args.triples, extra_subsets=subsets)
    _emit(args.out, canonical_dumps(report_to_dict(rep)))
    return 0


def _cmd_verify_remark6(args) -> int:
    from .schemes import PointConfig, SimplePoint

    cfg = PointConfig.of(6, [SimplePoint.of(*p) for p in REFERENCE_POINTS_D6])
    if args.emit_config:
        from .serialize import canonical_dumps, config_to_dict

        _emit(args.emit_config, canonical_dumps(config_to_dict(cfg)))
        return 0
    from .linsys import fibre
    from .singloci import locus_report

    fib = fibre(cfg)
    rep = locus_report(
        fib, pairs=True, extra_subsets=sorted(_REFERENCE_SUBSET_CODIMS)
    )

    checks = [("fibre dimension 17", rep.fibre_dim == 17)]
    for pid, kind, codim in rep.point_codims:
        checks.append((f"point {pid} ({kind}) codim 2", codim == 2))
    for i, j, codim in rep.pair_codims:
        checks.append((f"pair ({i},{j}) codim 4", codim == 4))
    for ids, codim in rep.subset_codims:
        want = _REFERENCE_SUBSET_CODIMS[ids]
        label = ",".join(str(i) for i in ids)
        checks.append((f"subset ({label}) codim {want}", codim == want))

    failed = 0
    for label, ok in checks:
        print(f"{'ok' if ok else 'FAIL'}: {label}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed} of {len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_random(args) -> int:
    from .schemes import random_config
    from .serialize import canonical_dumps, config_to_dict

    cfg = random_config(args.degree, seed=args.seed, stratum=args.stratum)
    _emit(args.out, canonical_dumps(config_to_dict(cfg)))
    return 0


def _cmd_kronecker(args) -> int:
    from .kronecker import kronecker_from_points
    from .serialize import canonical_dumps, config_from_dict, resolution_to_dict

    cfg = config_from_dict(_read_json(args.config))
    res = kronecker_from_points(cfg)
    _emit(args.out, canonical_dumps(resolution_to_dict(res)))
    return 0


def _cmd_localfree(args) -> int:
    from .serialize import (
        canonical_dumps,
        germ_query_from_dict,
        localfree_result_to_dict,
    )

    # the file holds the whole query, so flag data beside it would be ignored
    given = [
        flag
        for flag, value in (("--poly", args.poly), ("--h", args.h), ("--mult", args.mult))
        if value is not None
    ]
    if args.infile and given:
        raise SheafLociError(f"pass either --in or {'/'.join(given)}, not both")
    if args.infile:
        query = _read_json(args.infile)
    else:
        if not args.poly or args.mult is None:
            raise SheafLociError("--poly and --mult are required without --in")
        query = {
            "f": args.poly,
            "h": [part.strip() for part in ("0" if args.h is None else args.h).split(",")],
            "mult": args.mult,
        }
    germ, data = germ_query_from_dict(query)
    _emit(args.out, canonical_dumps(localfree_result_to_dict(germ, data)))
    return 0


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        try:
            return args.func(args)
        except GenericityError as e:
            from .serialize import canonical_dumps, genericity_error_to_dict

            payload = genericity_error_to_dict(str(e), e.certificate)
            sys.stdout.write(canonical_dumps(payload))
            return 2
    except (SheafLociError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # an output number past Python's digit limit for int-to-str conversion
        if "integer string conversion" not in str(e):
            raise
        print(f"error: an output number is too long to print: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(console_main())
