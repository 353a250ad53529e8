"""Geometric oracle: the divisor distribution spanned by lifted Hamiltonian
fields, and the exact identities tying its rank to heights and coadjoint orbits.

For a nonzero direction v, the distribution at the divisor point [v] is
spanned by the lifts of the Hamiltonian fields of constant covectors
annihilating v, evaluated at [v].  Its rank equals twice the height of the
corresponding covector; together with the orbit-dimension case split
(2k + 2 when the radial line is tangent to the orbit, 2k otherwise) and the
Cartan-class identity, this gives a per-point cross-check that must hold
with zero violations on every input.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .charts import BlowupChart, integer_terms, integer_value, preferred_chart
from .errors import InternalError
from .liealg import Covector, HeightReport, LieAlgebra, invariant_failures, sampled_covectors
from .poisson_spinor import hamiltonian_field, shared_linear_poisson
from .sampling import DEFAULT_SEED


def _compiled_lifts(L: LieAlgebra, chart: int):
    """The lifts through `chart` of the Hamiltonian fields of dx_1, ...,
    dx_dim of the integer bivector D pi (D times those of pi: the same
    ranks), as `integer_terms` with one padding degree for every field,
    built once per algebra and chart."""

    def build():
        pi, _ = shared_linear_poisson(L)
        bc = BlowupChart(pi.ring, chart)
        fields = [bc.lift_vector_field(hamiltonian_field(pi, i)) for i in range(1, L.dim + 1)]
        compiled = iter(integer_terms(*(poly.terms for field in fields for poly in field)))
        return tuple(tuple(next(compiled) for _ in field) for field in fields)

    return L.memo(("lifts", chart), build)


def _distribution_rank(L: LieAlgebra, x: tuple[int, ...]) -> int:
    """The rank of the span of lifted Hamiltonian fields of v-annihilating
    covectors at [v], for x the primitive integer multiple of v.

    Works with the linear part of the bivector, which determines the
    distribution: covectors are taken constant, and the annihilator of v is
    spanned by dx_j - (v_j / v_c) dx_c for j != c in the chart c of largest
    |v component|.  Evaluated in integers at x: the lifted fields at the
    divisor point x / x_c (chart entry zeroed) come out as at[j] = D q^top
    times their values, q = x_c, and the rows q at[j] - x_j at[c] are the
    annihilator fields times q D q^top.
    """
    chart = preferred_chart(x)
    q = x[chart - 1]
    point = x[: chart - 1] + (0,) + x[chart:]
    at = [
        [integer_value(poly, point, q) for poly in field]
        for field in _compiled_lifts(L, chart)
    ]
    rows = [
        [q * a - x[j] * b for a, b in zip(at[j], at[chart - 1])]
        for j in range(L.dim)
        if j != chart - 1
    ]
    if any(row[chart - 1] for row in rows):
        raise InternalError("lifted annihilator field is not tangent to the divisor")
    r = linalg.rank(rows)
    if r % 2:
        raise InternalError("divisor distribution has odd rank")
    return r


class OrbitRankRecord(NamedTuple):
    v: Covector
    invariants: HeightReport
    distribution_rank: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class OrbitRankReport(NamedTuple):
    samples: int
    records: tuple[OrbitRankRecord, ...]
    mismatches: tuple[OrbitRankRecord, ...]
    heights: tuple[int, ...]

    @property
    def constant_height(self) -> bool:
        return len(self.heights) == 1


def orbit_rank_crosscheck(
    L: LieAlgebra, samples: int = 100, seed: int = DEFAULT_SEED
) -> OrbitRankReport:
    """Check, at seeded sample points, every exact identity between the
    distribution rank, height, orbit dimension, radial membership and Cartan
    class.  Identities hold pointwise on any algebra; global constancy of
    the height is reported separately."""
    records = []
    for sample in sampled_covectors(L, samples, seed):
        inv = sample.invariants
        rank = _distribution_rank(L, sample.x)
        failures = []
        if rank != 2 * inv.height:
            failures.append(f"distribution rank {rank} != 2*height {2 * inv.height}")
        expected_rank = inv.orbit_dim - 2 if inv.radial_in_orbit else inv.orbit_dim
        if rank != expected_rank:
            failures.append(f"distribution rank {rank} != orbit-dim rule {expected_rank}")
        failures.extend(invariant_failures(inv))
        records.append(OrbitRankRecord(sample.xi, inv, rank, tuple(failures)))
    records = tuple(records)
    mismatches = tuple(r for r in records if not r.ok)
    heights = tuple(sorted({r.invariants.height for r in records}))
    return OrbitRankReport(samples, records, mismatches, heights)
