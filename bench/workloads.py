"""The three benchmark workloads, each a fixed command list built from a seed.

A workload is one pass over its command list; the benchmark repeats passes
as a closed loop with one client.  The seed picks the input documents (basis
shuffles and rational conjugations) and, except on ``conjugate_witness``, the
sampling seed handed to the program, so the same seed always gives the same
commands and the same bytes.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import generators as gen


@dataclass(frozen=True)
class Command:
    label: str
    command: str  # analyze | spinor | crosscheck
    algebra: gen.Algebra
    options: tuple[str, ...]  # everything after --input PATH
    # True only where the witness search is known to exhaust its cap today,
    # so exit 3 is allowed; anywhere else exit 3 is an error.
    may_give_up: bool = False

    @property
    def all_charts(self) -> bool:
        return "--chart" not in self.options


def _options(seed: int, samples: int, *extra: str) -> tuple[str, ...]:
    return ("--format", "machine", "--seed", str(seed), "--samples", str(samples)) + extra


# Sample counts keep one pass to seconds rather than minutes; README.md has
# the timings and what each workload stresses.
LADDER_SAMPLES = 48
SPINOR_SAMPLES = 20
DENSE_CROSSCHECK_SAMPLES = 5
WITNESS_SAMPLES = 10
CONJUGATES_PER_FAMILY = 3
# The witness search draws random covectors from the sampling seed, and a
# lucky draw can find sl2_late's witness early.  A fixed sampling seed keeps
# the work on the fixed inputs the same for every workload seed.
WITNESS_SEED = 1729


def catalog_ladder(rng: random.Random) -> list[Command]:
    seed = rng.randrange(1, 2**31)
    algebras = [
        gen.so(3),
        gen.sl(2),
        gen.heis(3),
        gen.abelian(6),
        gen.diagonal_affine(5),
        gen.heis(5),
        gen.filiform(5),
    ]
    out = []
    for alg in algebras:
        alg = gen.signed_permutation(alg, rng)
        for command in ("analyze", "crosscheck"):
            out.append(
                Command(f"{command} {alg.name}", command, alg, _options(seed, LADDER_SAMPLES))
            )
    return out


def dense_spinor(rng: random.Random) -> list[Command]:
    seed = rng.randrange(1, 2**31)
    sl3, so4, gl3, so5 = (
        gen.signed_permutation(a, rng) for a in (gen.sl(3), gen.so(4), gen.gl(3), gen.so(5))
    )
    chart = rng.randint(1, so5.dim)
    out = [
        Command(f"spinor {a.name}", "spinor", a, _options(seed, SPINOR_SAMPLES))
        for a in (sl3, so4, gl3)
    ]
    # a so(5) pullback takes ~1.5 s per chart (README.md), so one seeded chart
    out.append(
        Command(
            f"spinor {so5.name} chart {chart}",
            "spinor",
            so5,
            _options(seed, SPINOR_SAMPLES, "--chart", str(chart)),
        )
    )
    out += [
        Command(f"crosscheck {a.name}", "crosscheck", a, _options(seed, DENSE_CROSSCHECK_SAMPLES))
        for a in (so4, sl3, gl3)
    ]
    return out


def conjugate_witness(rng: random.Random) -> list[Command]:
    algebras = []
    for base in (gen.so(3), gen.heis(3), gen.diagonal_affine(3)):
        for index in range(CONJUGATES_PER_FAMILY):
            conj = gen.seeded_conjugate(base, rng)
            algebras.append(dataclasses.replace(conj, name=f"{conj.name}{index + 1}"))
    # sl2_late gets its verdict after ~7,500 candidates, so a lower witness
    # cap shows as an error there.  The sl2 conjugate (usually) and the
    # anisotropic form (always: its cone has no rational point) exhaust the
    # cap and exit 3 today; they stay in, and count as failed.
    algebras.append(gen.late_witness_sl2())
    hard = [gen.seeded_conjugate(gen.sl(2), rng), gen.anisotropic_sl2()]
    options = _options(WITNESS_SEED, WITNESS_SAMPLES)
    return [Command(f"analyze {a.name}", "analyze", a, options) for a in algebras] + [
        Command(f"analyze {a.name}", "analyze", a, options, may_give_up=True) for a in hard
    ]


WORKLOADS = {
    "catalog_ladder": catalog_ladder,
    "dense_spinor": dense_spinor,
    "conjugate_witness": conjugate_witness,
}


def build(workload: str, seed: int) -> list[Command]:
    commands = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for alg in {id(cmd.algebra): cmd.algebra for cmd in commands}.values():
        bad = gen.jacobi_defects(alg)
        if bad:
            raise ValueError(f"generated {alg.name} violates Jacobi on {bad[:3]}")
    return commands
