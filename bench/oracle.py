"""Expected results, taken from the paper's classification, never from the
program.

Only three families have constant height: the abelian algebras and
R x| R^n with the identity action (height 0, the lift is Poisson), and so(3)
(height 1, the lift is Dirac only).  Every other algebra does not lift.
Along every blowup chart the pulled-back spinor vanishes to order
dim - 1 - k, where k is the height of a generic covector (the line-order
identity at a generic direction); for a constant-height algebra that is the
constant height itself.

Each ``check_*`` function takes the parsed machine output of one command and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

from generators import ABELIAN, DIAGONAL_AFFINE, SO3, Algebra

LIFTS_AS_POISSON = "lifts_as_poisson"
LIFTS_AS_DIRAC_ONLY = "lifts_as_dirac_only"
DOES_NOT_LIFT = "does_not_lift"

_CONSTANT_HEIGHT = {ABELIAN: 0, DIAGONAL_AFFINE: 0, SO3: 1}


def expected_verdict(family: str) -> tuple[str, int | None]:
    """(verdict kind, constant height or None) for a family tag."""
    k = _CONSTANT_HEIGHT.get(family)
    if k is None:
        return DOES_NOT_LIFT, None
    return (LIFTS_AS_POISSON if k == 0 else LIFTS_AS_DIRAC_ONLY), k


def expected_chart_order(alg: Algebra) -> int:
    return alg.dim - 1 - alg.generic_height


def _check_charts(alg: Algebra, charts: dict, all_charts: bool) -> list[str]:
    problems = []
    want = expected_chart_order(alg)
    if all_charts and sorted(charts, key=int) != [str(c) for c in range(1, alg.dim + 1)]:
        problems.append(f"charts {sorted(charts)} are not 1..{alg.dim}")
    for chart, cert in charts.items():
        if cert.get("order") != want:
            problems.append(f"chart {chart} has order {cert.get('order')}, expected {want}")
    _, k = expected_verdict(alg.family)
    if k is None and all_charts and charts:
        if all(cert.get("status") == "certified" for cert in charts.values()):
            problems.append("every chart certifies a constant order on a non-lifting algebra")
    return problems


def check_analyze(alg: Algebra, out: dict) -> list[str]:
    kind, k = expected_verdict(alg.family)
    verdict = out.get("verdict", {})
    problems = []
    if verdict.get("kind") != kind:
        problems.append(f"verdict {verdict.get('kind')!r}, expected {kind!r}")
    if verdict.get("constant_height") != k:
        problems.append(f"constant_height {verdict.get('constant_height')}, expected {k}")
    if k is None:
        heights = verdict.get("witness_heights") or []
        if len(heights) != 2 or heights[0] == heights[1]:
            problems.append(f"witness heights {heights} are not two distinct heights")
    problems += _check_charts(alg, verdict.get("charts", {}), all_charts=True)
    for suite in ("orbit_crosscheck", "line_order_crosscheck"):
        if out.get(suite, {}).get("mismatches") != 0:
            problems.append(f"{suite} reports mismatches")
    return problems


def check_spinor(alg: Algebra, out: dict, all_charts: bool) -> list[str]:
    return [
        f"spinor: {p}"
        for p in _check_charts(
            alg,
            {chart: entry.get("certificate", {}) for chart, entry in out.get("charts", {}).items()},
            all_charts,
        )
    ]


def check_crosscheck(alg: Algebra, out: dict) -> list[str]:
    problems = []
    _, k = expected_verdict(alg.family)
    lines = out.get("line_orders", {})
    orbits = out.get("orbit_ranks", {})
    if lines.get("mismatches") != 0 or orbits.get("mismatches") != 0:
        problems.append("identity suites report mismatches")
    observed = orbits.get("heights_observed", [])
    if k is not None and observed != [k]:
        problems.append(f"heights {observed} on an algebra of constant height {k}")
    if any(h > alg.generic_height for h in observed):
        problems.append(f"heights {observed} exceed the generic height {alg.generic_height}")
    return problems
