"""Command-line front end.

Commands:
    analyze    full pipeline: classification, lift verdict, spinor orders,
               height spectrum, orbit/rank and line-order cross-checks
    spinor     exact pulled-back spinor and order certificate per chart
    crosscheck per-sample identity suites (line orders, orbit ranks)
    catalog    list built-in fixtures

Exit codes: 0 ok, 1 parse error, 2 Jacobi violation, 3 internal disagreement
(independent computations conflict, which signals a bug, not a mathematical
outcome), 64 usage error.  --samples above MAX_SAMPLES (10,000) is a usage
error.  A fixed seed gives byte-identical machine output; the BLOWUPLAB_SEED
environment variable overrides the default seed 1729.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .blowup_geometry import orbit_rank_crosscheck
from .classify import sample_height_spectrum
from .errors import (
    BlowupLabError,
    DomainError,
    InternalError,
    JacobiError,
    ParseError,
    UsageError,
    WitnessSearchError,
)
from .liealg import LieAlgebra
from .model_io import (
    MAX_SAMPLES,
    SCALED_SO3_BLOWN,
    analysis_to_dict,
    catalog_algebra,
    catalog_entries,
    catalog_to_dict,
    crosscheck_to_dict,
    emit_report,
    parse_algebra,
    scaled_so3_bundle,
    spinor_to_dict,
)
from .poisson_spinor import (
    blowup_pullback,
    check_line_orders,
    lift_verdict,
    linear_poisson,
    spinor,
    vanishing_order,
)
from .rings import DIGIT
from .sampling import DEFAULT_SEED

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_JACOBI = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """No option prefixes, so "--f" is never read as "--format"; the
    subparsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def integer(text: str) -> int:
    """An optional leading "-" and the ASCII digits 0-9, the digit rule of
    every input (int() also reads "1_0" and other scripts' digits); argparse
    reports a ValueError as an "invalid integer value" of the option."""
    if not re.fullmatch(f"-?{DIGIT}+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _default_seed() -> int:
    raw = os.environ.get("BLOWUPLAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return integer(raw)
    except ValueError:
        raise UsageError(f"BLOWUPLAB_SEED must be an integer, got {raw!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves no state in it."""
    parser = _Parser(prog="blowuplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--catalog", help="built-in fixture name")
        source.add_argument("--input", help="path to an algebra document")
        p.add_argument("--seed", type=integer, default=None, help="sampling seed")
        p.add_argument("--samples", type=integer, default=200, help="sample count")
        p.add_argument(
            "--format", choices=("human", "machine"), default="human", dest="fmt"
        )

    add_common(sub.add_parser("analyze", help="full liftability analysis"))

    spinor_cmd = sub.add_parser("spinor", help="pulled-back spinor per chart")
    add_common(spinor_cmd)
    spinor_cmd.add_argument("--chart", type=integer, default=None, help="chart index")
    spinor_cmd.add_argument(
        "--f", default=None, help="scaling polynomial in y1,y2 (scaled_so3_bundle only)"
    )

    add_common(sub.add_parser("crosscheck", help="per-sample identity suites"))

    catalog = sub.add_parser("catalog", help="list built-in fixtures")
    catalog.add_argument(
        "--format", choices=("human", "machine"), default="human", dest="fmt"
    )
    catalog.add_argument("--filter", default=None, help="filter, e.g. dim=3")
    return parser


def _resolve_algebra(args) -> LieAlgebra:
    if args.catalog is not None:
        if args.catalog == "scaled_so3_bundle":
            raise UsageError(
                "scaled_so3_bundle is a bundle fixture; use the 'spinor' command"
            )
        try:
            return catalog_algebra(args.catalog)
        except DomainError as exc:
            raise UsageError(str(exc)) from None
    try:
        # utf-8-sig drops a leading byte-order mark, which editors may write
        with open(args.input, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from None
    return parse_algebra(text)


def _checked_seed(args) -> int:
    """The effective seed, after checking --samples."""
    if args.samples < 1:
        raise UsageError("--samples must be a positive integer")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples {args.samples} exceeds the limit of {MAX_SAMPLES}")
    return args.seed if args.seed is not None else _default_seed()


def cmd_analyze(args) -> int:
    seed = _checked_seed(args)
    algebra = _resolve_algebra(args)
    verdict = lift_verdict(algebra, seed=seed, samples=args.samples)
    spectrum = sample_height_spectrum(algebra, args.samples, seed=seed)
    orbit_report = orbit_rank_crosscheck(algebra, args.samples, seed=seed)
    line_report = check_line_orders(algebra, args.samples, seed=seed)
    parts = (algebra, seed, args.samples, verdict, spectrum, orbit_report, line_report)
    sys.stdout.write(emit_report(args.fmt, analysis_to_dict, *parts))
    if orbit_report.mismatches or line_report.mismatches:
        raise InternalError(
            "per-sample identity suites reported mismatches; see the report"
        )
    return EXIT_OK


def cmd_spinor(args) -> int:
    seed = _checked_seed(args)
    if args.catalog == "scaled_so3_bundle":
        pi, scale = scaled_so3_bundle(args.f if args.f is not None else "1")
        blown = SCALED_SO3_BLOWN
        name = f"scaled_so3_bundle[f = {args.f if args.f is not None else '1'}]"
    else:
        if args.f is not None:
            raise UsageError("--f applies only to --catalog scaled_so3_bundle")
        algebra = _resolve_algebra(args)
        pi, scale = linear_poisson(algebra)
        blown = tuple(range(1, algebra.dim + 1))
        name = algebra.name or "anonymous"
    if args.chart is not None and args.chart not in blown:
        raise UsageError(f"--chart must be one of {blown}")
    charts = [args.chart] if args.chart is not None else list(blown)
    # the spinor of pi / scale is phi over scale^(dim // 2)
    phi, scale = spinor(pi, scale), scale ** (pi.dim // 2)
    pulled = []
    for chart in charts:
        cf = blowup_pullback(phi, chart, blown, scale)
        pulled.append((cf, vanishing_order(cf, seed=seed, samples=args.samples)))
    sys.stdout.write(emit_report(args.fmt, spinor_to_dict, name, seed, pulled))
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    seed = _checked_seed(args)
    algebra = _resolve_algebra(args)
    line_report = check_line_orders(algebra, args.samples, seed=seed)
    orbit_report = orbit_rank_crosscheck(algebra, args.samples, seed=seed)
    parts = (algebra, seed, args.samples, line_report, orbit_report)
    sys.stdout.write(emit_report(args.fmt, crosscheck_to_dict, *parts))
    if line_report.mismatches or orbit_report.mismatches:
        raise InternalError("identity suite reported mismatches")
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = catalog_entries()
    if args.filter is not None:
        if "=" not in args.filter:
            raise UsageError("--filter expects key=value, e.g. dim=3")
        key, _, value = args.filter.partition("=")
        if key.strip() != "dim":
            raise UsageError(f"unsupported filter key {key.strip()!r}")
        try:
            wanted = integer(value.strip())
        except ValueError:
            raise UsageError("--filter dim= expects an integer") from None
        entries = [e for e in entries if e.dim == wanted]
    sys.stdout.write(emit_report(args.fmt, catalog_to_dict, entries))
    return EXIT_OK


_HANDLERS = {
    "analyze": cmd_analyze,
    "spinor": cmd_spinor,
    "crosscheck": cmd_crosscheck,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except JacobiError as exc:
        sys.stderr.write(f"invalid algebra: {exc}\n")
        for triple, defect in exc.violations:
            sys.stderr.write(f"  triple {triple}: defect {tuple(str(d) for d in defect)}\n")
        return EXIT_JACOBI
    except (InternalError, WitnessSearchError) as exc:
        sys.stderr.write(f"internal disagreement: {exc}\n")
        return EXIT_INTERNAL
    except BlowupLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
