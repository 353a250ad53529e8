"""Input/output: the algebra document format, the fixture catalog, reports.

Document grammar (UTF-8 text, one key per line, ``#`` starts a comment):

    schema_version: 1
    name: so3
    dimension: 3
    bracket: 1 2 3 1        # [b_1, b_2] = 1 * b_3   (i j k value, i < j)
    bracket: 2 3 1 1
    bracket: 3 1 2 1        # i > j is rejected; write the i < j half only
    expected_verdict: lifts_as_dirac_only
    expected_height: 1
    note: free text

Indices are integers and values exact rationals ("p" or "p/q"), written in
the ASCII digits 0-9; float literals are rejected.
Every key but ``bracket`` appears at most once; the metadata keys are
accepted but not kept.  The antisymmetric completion is implied.
`parse_document` checks index ranges and returns the algebra before its
Jacobi check, which `parse_algebra` adds, naming the violating triples on
failure.  `serialize_algebra` writes no metadata.  A function, record field,
parameter or return value that only tests read does not belong here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .blowup_geometry import OrbitRankRecord, OrbitRankReport
from .classify import ClassificationVerdict, HeightSpectrum, RealRootWitness
from .errors import DomainError, ParseError
from .exterior import GradedVector
from .liealg import Covector, LieAlgebra
from .linalg import integer_multiple
from .poisson_spinor import (
    ChartForm,
    LineOrderReport,
    LiftVerdict,
    OrderCertificate,
    coordinate_ring,
)
from .rings import DIGIT, Polynomial, PolyRing, format_rational, parse_rational

SCHEMA_VERSION = 1
# The work budget, refused up front: the largest dimension of a document or
# catalog algebra (the spinor has 2^(dim-1) coefficients), and the largest
# sample count (the covectors are drawn whole before any output).
MAX_DIM = 12
MAX_SAMPLES = 10_000

_METADATA_KEYS = ("expected_verdict", "expected_height", "note")


def parse_document(text: str) -> LieAlgebra:
    """The algebra a document states, before its Jacobi check."""
    name = None
    dim = None
    schema = None
    # (i, j, k) -> (value, line) in document order: the first bad one is reported
    brackets: dict[tuple[int, int, int], tuple[Fraction, int]] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", line=lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in key_lines:
            raise ParseError(f"duplicate key {key!r}; first on line {key_lines[key]}", line=lineno)
        if key != "bracket":
            key_lines[key] = lineno
        if key == "schema_version":
            schema = _parse_int(value, lineno, "schema_version")
        elif key == "name":
            name = value
        elif key == "dimension":
            dim = _parse_int(value, lineno, "dimension")
            if dim < 1:
                raise ParseError("dimension must be positive", line=lineno)
            if dim > MAX_DIM:
                raise DomainError(
                    f"dimension {dim} on line {lineno} exceeds the limit of {MAX_DIM}"
                )
        elif key == "bracket":
            fields = value.split()
            if len(fields) != 4:
                raise ParseError(
                    "bracket needs four fields: i j k value", line=lineno
                )
            i = _parse_int(fields[0], lineno, "i")
            j = _parse_int(fields[1], lineno, "j")
            k = _parse_int(fields[2], lineno, "k")
            try:
                coeff = parse_rational(fields[3])
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if (i, j, k) in brackets:
                raise ParseError(
                    f"duplicate bracket entry ({i},{j},{k}); first on line "
                    f"{brackets[(i, j, k)][1]}",
                    line=lineno,
                )
            brackets[(i, j, k)] = coeff, lineno
        elif key not in _METADATA_KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    if dim is None:
        raise ParseError("missing required key 'dimension'")
    if schema is None:
        raise ParseError("missing required key 'schema_version'")
    if schema != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {schema}")
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j, k), (coeff, lineno) in brackets.items():
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise ParseError(
                f"bracket indices ({i},{j},{k}) out of range 1..{dim}", line=lineno
            )
        if i >= j:
            raise ParseError(
                f"bracket requires i < j, got ({i},{j}); the other half is implied",
                line=lineno,
            )
        table.setdefault((i, j), {})[k] = coeff
    return LieAlgebra(dim, table, name=name or "anonymous")


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not re.fullmatch(f"[+-]?{DIGIT}+", token.strip()):
        raise ParseError(f"{what} must be an integer, got {token!r}", line=lineno)
    try:
        return int(token)
    except ValueError:  # longer than int() accepts
        raise ParseError(f"{what} has too many digits ({len(token)})", line=lineno) from None


def parse_algebra(text: str) -> LieAlgebra:
    """Parse and fully validate (antisymmetry and Jacobi) an algebra document."""
    return parse_document(text).validate()


def serialize_algebra(L: LieAlgebra) -> str:
    """The document of L.  The format has no escape, so a name holding "#",
    a line break or surrounding whitespace, which reads back changed, is refused."""
    name = L.name or "anonymous"
    if "#" in name or len(name.splitlines()) > 1 or name != name.strip():
        raise DomainError(f"name {name!r} cannot be written to a document")
    lines = [
        f"schema_version: {SCHEMA_VERSION}",
        f"name: {name}",
        f"dimension: {L.dim}",
    ]
    for (i, j), vec in sorted(L._table.items()):
        for k, value in enumerate(vec, start=1):
            if value:
                lines.append(f"bracket: {i} {j} {k} {format_rational(value, L._scale)}")
    return "\n".join(lines) + "\n"


# -- catalog --------------------------------------------------------------------


def so3() -> LieAlgebra:
    return LieAlgebra(
        3,
        {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}},
        name="so3",
    )


def sl2() -> LieAlgebra:
    # basis with xi wedge d(xi) = (-xi_1^2 - xi_2^2 + xi_3^2) theta_123
    return LieAlgebra(
        3,
        {(1, 2): {3: -1}, (2, 3): {1: 1}, (1, 3): {2: -1}},
        name="sl2",
    )


def heis3() -> LieAlgebra:
    return LieAlgebra(3, {(1, 2): {3: 1}}, name="heis3")


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, name=f"abelian{n}")


def diagonal_affine(n: int) -> LieAlgebra:
    """R x| R^n with the first basis vector acting as the identity on the rest."""
    return LieAlgebra(
        n + 1,
        {(1, 1 + i): {1 + i: 1} for i in range(1, n + 1)},
        name=f"diagonal_affine{n}",
    )


SCALED_SO3_RING = coordinate_ring(3, base=("y1", "y2"))
SCALED_SO3_BLOWN = (1, 2, 3)


def scaled_so3_bundle(f: str) -> tuple[GradedVector, int]:
    """Bundle fixture: fibres scaled by a polynomial f(y1, y2).

    The bracket [e_i, e_j] = f * sum_k eps_ijk e_k induces on the dual the
    bivector with pi_12 = f x3, pi_23 = f x1, pi_31 = f x2, carried over the
    base variables (y1, y2) which every fibre chart leaves fixed.  Returned
    as `linear_poisson` returns a bivector: (D pi, D), D the lcm of the
    denominators of f, so D pi has int coefficients.
    """
    ring = SCALED_SO3_RING
    # y1, y2 are the last two variables of the ring, so D f embeds by padding
    # each exponent tuple with the three fibre exponents 0
    terms = PolyRing(("y1", "y2")).parse(f).terms
    scale, ints = integer_multiple(terms.values())
    lift = Polynomial._trusted(ring.vars, {(0, 0, 0) + e: c for e, c in zip(terms, ints)})
    units = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    x1, x2, x3 = (Polynomial._trusted(ring.vars, {unit: 1}) for unit in units)
    entries = {(1, 2): lift * x3, (2, 3): lift * x1, (1, 3): -(lift * x2)}
    return GradedVector(len(ring.vars), ring, entries), scale


class CatalogEntry(NamedTuple):
    name: str
    dim: int
    kind: str  # "algebra" | "bundle"
    expected_verdict: str
    expected_height: int | None
    note: str


# Every catalog name, written once: name -> (builder, dimension, members
# listed, expected verdict, expected height, note).  A fixed entry has no
# members; a family's builder takes its parameter n, its dimension is
# n + the given offset, and `catalog` lists the members shown.  The resolver
# accepts any family member n >= 1 of dimension <= MAX_DIM.
_CATALOG = {
    "so3": (so3, 3, None, "lifts_as_dirac_only", 1, "compact simple"),
    "sl2": (sl2, 3, None, "does_not_lift", None, "split simple"),
    "heis3": (heis3, 3, None, "does_not_lift", None, "Heisenberg"),
    "abelian": (abelian, 0, range(1, 7), "lifts_as_poisson", 0, "abelian"),
    "diagonal_affine": (
        diagonal_affine, 1, range(1, 6), "lifts_as_poisson", 0, "R acting diagonally on R^n"
    ),
}


def catalog_entries() -> list[CatalogEntry]:
    entries = [
        CatalogEntry(
            "scaled_so3_bundle",
            5,
            "bundle",
            "depends_on_f",
            None,
            "so(3) fibres scaled by f(y1,y2); use --f",
        )
    ]
    for name, (_, dim, members, verdict, height, note) in _CATALOG.items():
        for n in members or (None,):
            label, size = (name, dim) if n is None else (f"{name}{n}", n + dim)
            entries.append(CatalogEntry(label, size, "algebra", verdict, height, note))
    return sorted(entries, key=lambda e: (e.dim, e.name))


def catalog_algebra(name: str) -> LieAlgebra:
    """Resolve a catalog name to a validated algebra; parametrized names
    (abelianN, diagonal_affineN) accept any N in the digits 0-9 with
    resulting dim <= MAX_DIM."""
    row = _CATALOG.get(name)
    if row is not None and row[2] is None:
        return row[0]().validate()
    match = re.fullmatch(f"([a-z_]+)({DIGIT}+)", name)
    family = _CATALOG.get(match.group(1)) if match else None
    if family is None or family[2] is None:
        raise DomainError(f"unknown catalog name {name!r}")
    build, offset = family[:2]
    try:
        n = int(match.group(2))
    except ValueError:  # longer than int() accepts, far beyond the cap
        raise DomainError(f"{name!r} has dimension > {MAX_DIM}") from None
    if n < 1:
        raise DomainError(f"catalog parameter must be positive in {name!r}")
    if n + offset > MAX_DIM:
        raise DomainError(f"{name!r} has dimension {n + offset} > {MAX_DIM}")
    return build(n).validate()


# -- reports ----------------------------------------------------------------------
# One builder per command returns the JSON-ready report document; the text
# views below read that document only, so they show nothing the JSON lacks.


def _covector_json(xi: Covector) -> list[str]:
    return [format_rational(v) for v in xi]


def _witness_json(w) -> list[str] | dict:
    if not isinstance(w, RealRootWitness):
        return _covector_json(w)
    return {
        "kind": "real_root",
        "line": [_covector_json(w.base), _covector_json(w.direction)],
        "polynomial": str(Polynomial(("t",), {(e,): c for e, c in enumerate(w.g)})),
        "interval": _covector_json(w.interval),
    }


def classification_to_dict(c: ClassificationVerdict) -> dict:
    out: dict = {"kind": c.kind, "constant_height": c.constant_height}
    if c.param is not None:
        out["param"] = c.param
    if c.witnesses is not None:
        out["witnesses"] = [_witness_json(w) for w in c.witnesses]
        out["witness_heights"] = list(c.witness_heights)
    return out


def certificate_to_dict(cert: OrderCertificate) -> dict:
    out: dict = {
        "chart": cert.chart,
        "order": cert.order,
        "status": cert.status,
        "leading_form": cert.leading.render(),
    }
    if cert.certificate:
        out["certificate"] = cert.certificate
    if cert.witness_point is not None:
        out["witness_point"] = [format_rational(v) for v in cert.witness_point]
    return out


def verdict_to_dict(verdict: LiftVerdict) -> dict:
    classification = classification_to_dict(verdict.classification)
    out: dict = {
        "kind": verdict.kind,
        "constant_height": classification["constant_height"],
        "classification": classification,
        "charts": {
            str(chart): certificate_to_dict(cert)
            for chart, cert in sorted(verdict.certificates.items())
        },
        "cross_checks": {
            "expected_order": verdict.expected_order,
            "charts": {
                str(chart): {"order": cert.order, "status": cert.status}
                for chart, cert in sorted(verdict.certificates.items())
            },
            "spinor_agreement": verdict.spinor_agreement,
        },
    }
    for key in ("witnesses", "witness_heights"):
        if key in classification:
            out[key] = classification[key]
    return out


def spectrum_to_dict(spectrum: HeightSpectrum) -> dict:
    heights = {
        str(k): {"count": n, "witness": _covector_json(spectrum.witnesses[k])}
        for k, n in sorted(spectrum.counts.items())
    }
    return {"samples": spectrum.samples, "heights": heights}


def analysis_to_dict(
    algebra: LieAlgebra, seed: int, samples: int, verdict: LiftVerdict,
    spectrum: HeightSpectrum, orbit: OrbitRankReport, line: LineOrderReport,
) -> dict:
    return {
        "command": "analyze",
        "algebra": algebra.name or "anonymous",
        "dimension": algebra.dim,
        "seed": seed,
        "samples": samples,
        "verdict": verdict_to_dict(verdict),
        "spectrum": spectrum_to_dict(spectrum),
        "orbit_crosscheck": {
            "samples": orbit.samples,
            "mismatches": len(orbit.mismatches),
            "heights_observed": list(orbit.heights),
            "constant_height": orbit.constant_height,
        },
        "line_order_crosscheck": {
            "samples": line.samples,
            "mismatches": len(line.mismatches),
        },
    }


def spinor_to_dict(name: str, seed: int, charts: list[tuple[ChartForm, OrderCertificate]]) -> dict:
    pulled = {
        str(cf.chart): {"pullback": cf.render(), "certificate": certificate_to_dict(cert)}
        for cf, cert in charts
    }
    return {"command": "spinor", "input": name, "seed": seed, "charts": pulled}


def crosscheck_to_dict(
    algebra: LieAlgebra, seed: int, samples: int, line: LineOrderReport, orbit: OrbitRankReport
) -> dict:
    return {
        "command": "crosscheck",
        "algebra": algebra.name or "anonymous",
        "seed": seed,
        "samples": samples,
        "line_orders": {
            "mismatches": len(line.mismatches),
            "records": [
                {
                    "xi": _covector_json(r.xi),
                    "chart": r.chart,
                    "order": r.order,
                    "expected": r.expected,
                }
                for r in line.records
            ],
        },
        "orbit_ranks": {
            "mismatches": len(orbit.mismatches),
            "heights_observed": list(orbit.heights),
            "constant_height": orbit.constant_height,
            "records": [_orbit_record_json(r) for r in orbit.records],
        },
    }


def _orbit_record_json(record: OrbitRankRecord) -> dict:
    inv = record.invariants
    out = {
        "v": _covector_json(record.v),
        "height": inv.height,
        "type": int(inv.element_type),
        "class": inv.cartan_class,
        "orbit_dim": inv.orbit_dim,
        "radial": inv.radial_in_orbit,
        "distribution_rank": record.distribution_rank,
        "ok": record.ok,
    }
    if record.failures:
        out["failures"] = list(record.failures)
    return out


def catalog_to_dict(entries: list[CatalogEntry]) -> dict:
    return {"command": "catalog", "entries": [e._asdict() for e in entries]}


# -- text views: each reads one report document --------------------------------------


_VERDICT_TEXT = {
    "lifts_as_poisson": "lifts as a Poisson structure",
    "lifts_as_dirac_only": "lifts as a Dirac structure only (not Poisson)",
    "does_not_lift": "does not lift",
}


def _vector_text(values: list[str]) -> str:
    return "(" + ", ".join(values) + ")"


def _witness_text(w: list[str] | dict) -> str:
    if isinstance(w, list):
        return _vector_text(w)
    base, direction = w["line"]
    return "{} + t*{} at the root of {} in ({}, {}]".format(
        _vector_text(base), _vector_text(direction), w["polynomial"], *w["interval"]
    )


def _by_number(table: dict) -> list:
    # keys are numbers as text, which sort_keys orders "1", "10", "2"
    return sorted(table.items(), key=lambda item: int(item[0]))


def _analysis_text(report: dict) -> list[str]:
    verdict = report["verdict"]
    c = verdict["classification"]
    k = c["constant_height"]
    lines = [
        f"algebra: {report['algebra']} (dim {report['dimension']})",
        f"seed: {report['seed']}   samples: {report['samples']}",
        f"classification: {c['kind']}" + (f" (constant height {k})" if k is not None else ""),
        f"verdict: {_VERDICT_TEXT[verdict['kind']]}" + (f" [k = {k}]" if k is not None else ""),
    ]
    if "witnesses" in c:
        (w1, w2), (h1, h2) = c["witnesses"], c["witness_heights"]
        lines.append(
            f"witnesses: {_witness_text(w1)} has height {h1}; "
            f"{_witness_text(w2)} has height {h2}"
        )
    lines.append("spinor vanishing orders along the divisor:")
    for chart, cert in _by_number(verdict["charts"]):
        entry = f"  chart {chart}: order {cert['order']}, {cert['status']}"
        if "certificate" in cert:
            entry += f" ({cert['certificate']})"
        if "witness_point" in cert:
            entry += f" (vanishes at {_vector_text(cert['witness_point'])})"
        lines.append(entry)
    lines.append(f"spinor agreement: {verdict['cross_checks']['spinor_agreement']}")
    spectrum = report["spectrum"]
    spec_text = ", ".join(
        f"{h}: {entry['count']} samples" for h, entry in _by_number(spectrum["heights"])
    )
    lines.append(f"height spectrum ({spectrum['samples']} samples): {{{spec_text}}}")
    orbit = report["orbit_crosscheck"]
    lines.append(
        f"orbit/rank identities: {orbit['samples']} samples, "
        f"{orbit['mismatches']} mismatches, heights {set(orbit['heights_observed'])}"
        + ("" if orbit["constant_height"] else " (non-constant)")
    )
    line = report["line_order_crosscheck"]
    lines.append(
        f"line-order identity: {line['samples']} samples, {line['mismatches']} mismatches"
    )
    return lines


def _spinor_text(report: dict) -> list[str]:
    lines = [f"spinor analysis: {report['input']}"]
    for chart, entry in _by_number(report["charts"]):
        cert = entry["certificate"]
        lines += [
            f"chart {chart}:",
            f"  pullback: {entry['pullback']}",
            f"  order: {cert['order']}, {cert['status']}",
            f"  leading form: {cert['leading_form']}",
        ]
        if "certificate" in cert:
            lines.append(f"  certificate: {cert['certificate']}")
        if "witness_point" in cert:
            lines.append(f"  leading form vanishes at: {_vector_text(cert['witness_point'])}")
    return lines


def _crosscheck_text(report: dict) -> list[str]:
    line, orbit = report["line_orders"], report["orbit_ranks"]
    lines = [
        f"crosscheck: {report['algebra']} (seed {report['seed']}, {report['samples']} samples)",
        "line-order identity (order == dim - 1 - height):",
    ]
    for r in line["records"]:
        mark = "ok" if r["order"] == r["expected"] else "MISMATCH"
        lines.append(
            f"  xi={_vector_text(r['xi'])} chart {r['chart']}: order {r['order']}, "
            f"expected {r['expected']}  [{mark}]"
        )
    lines.append("orbit/rank identities:")
    for r in orbit["records"]:
        mark = "ok" if r["ok"] else "MISMATCH: " + "; ".join(r["failures"])
        lines.append(
            f"  v={_vector_text(r['v'])} height {r['height']} "
            f"type {r['type']} class {r['class']} "
            f"orbit {r['orbit_dim']} radial {str(r['radial']).lower()} "
            f"rank {r['distribution_rank']}  [{mark}]"
        )
    constancy = "constant" if orbit["constant_height"] else "globally non-constant"
    violated = line["mismatches"] or orbit["mismatches"]
    status = "VIOLATIONS FOUND" if violated else "pointwise-consistent"
    lines.append(f"summary: {status}, heights {set(orbit['heights_observed'])} ({constancy})")
    return lines


def _catalog_text(report: dict) -> list[str]:
    lines = ["catalog:"]
    for e in report["entries"]:
        height = f", height {e['expected_height']}" if e["expected_height"] is not None else ""
        lines.append(
            f"  {e['name']}  (dim {e['dim']}, {e['kind']}): "
            f"{e['expected_verdict']}{height} -- {e['note']}"
        )
    return lines


_TEXT_VIEWS = {
    "analyze": _analysis_text,
    "spinor": _spinor_text,
    "crosscheck": _crosscheck_text,
    "catalog": _catalog_text,
}


def render_text(report: dict) -> str:
    """The human view of a report document, read from the document alone."""
    return "\n".join(_TEXT_VIEWS[report["command"]](report)) + "\n"


def _write_json(value, out: list, indent: str = "\n") -> None:
    """Append to `out` the text of `json.dumps(value, sort_keys=True,
    indent=2)` for `value` nested at `indent` (a newline, two spaces a
    level): str, int, bool, None, list, tuple, and dict with str or int keys,
    sorted as they are; any other type raises TypeError."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (dict, list, tuple)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, (str, int)) or key is True or key is False:
                raise TypeError(f"keys must be str or int, not {type(key).__name__}")
            name = key if isinstance(key, str) else int.__repr__(key)
            out.append(f"{sep}{inner}{encode_basestring_ascii(name)}: ")
            _write_json(value[key], out, inner)
            sep = ","
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(indent + "]")
    elif value is None or isinstance(value, bool):
        out.append({None: "null", True: "true", False: "false"}[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_report(fmt: str, build, *parts) -> str:
    """Build one report document from its parts and print it as text or, for
    fmt "machine", as the bytes of `json.dumps(report, sort_keys=True,
    indent=2)`, written in one pass; the same inputs give the same bytes."""
    report = build(*parts)
    if fmt == "machine":
        out = []
        _write_json(report, out)
        return "".join(out) + "\n"
    return render_text(report)
