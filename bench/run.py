"""blowuplab benchmark: time to a certified verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catalog_ladder --seed 1 --seconds 40 --trace 0

One client drives ``blowuplab.cli.main`` in this process as a closed loop:
each command starts only after the previous one returned, with no worker
threads.  The program sees only generated schema-1 documents, passed with
``--input``; the seed picks them.  The client cycles through the workload's
command list while the next command should end within ``--seconds``; the
first pass over the list always completes.  The repeats of a command are
timing samples of one operation: ``attempted`` on the last line counts the
commands of the workload, and ``failed`` those with any failing run, so both
are fixed by the seed and do not depend on how many passes fit in the time.
After each command, and before the next starts, one set-up round runs in a
fresh interpreter (``setup_round.py``), so set-up samples spread over the
whole run.  Every output is checked against the oracle in ``oracle.py`` and
every repeated command must reproduce its bytes.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` the run makes a fixed amount of work instead: one
untraced pass, then one pass under the tracer (``tracing.py``), and the last
line holds the per-layer metrics, whose counts repeat exactly for a seed.
Lines before the last are a readable report.  ``--workload all`` runs the
three workloads one after another, each in a fresh process, so each report
and result line (``peak_rss_mb`` too) is that workload's own.  The exit code
is 0 whenever a result was printed, and 2 when the program cannot be loaded
from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import generators
import oracle
import stats
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Outcome statuses; every status but OK counts as a failed command.
OK = "ok"
WRONG = "wrong"  # exit 0 but the output disagrees with the oracle
NO_VERDICT = "no_verdict"  # exit 3 (witness cap) on a command that may give up
ERROR = "error"  # any other non-zero exit, or an exception escaped main()
NONDETERMINISTIC = "nondeterministic"  # a repeat gave different bytes


@dataclass(frozen=True)
class Raw:
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


@dataclass(frozen=True)
class Outcome:
    index: int  # position of the command in the workload's list
    label: str
    command: str
    seconds: float
    status: str
    detail: str = ""


def setup_round(paths: list[str]) -> float:
    """Seconds that ``setup_round.py`` reports for the documents at `paths`."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_round.py"), *paths],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


class Client:
    """Runs commands one at a time and judges each result."""

    def __init__(self, cli, commands, paths):
        self.cli = cli
        self.commands = commands
        self.paths = paths
        self.digests: dict[int, str] = {}

    def execute(self, index: int) -> Raw:
        cmd = self.commands[index]
        argv = [cmd.command, "--input", self.paths[index], *cmd.options]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed command
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return Raw(code, out.getvalue(), err.getvalue(), error, seconds)

    def judge(self, index: int, raw: Raw) -> Outcome:
        cmd = self.commands[index]
        status, detail = self._status(cmd, raw)
        digest = hashlib.sha256(f"{raw.code}\0{raw.stdout}".encode()).hexdigest()
        first = self.digests.setdefault(index, digest)
        if first != digest:
            status, detail = NONDETERMINISTIC, "output bytes differ from the first run"
        return Outcome(index, cmd.label, cmd.command, raw.seconds, status, detail)

    def run(self, index: int) -> Outcome:
        return self.judge(index, self.execute(index))

    @staticmethod
    def _status(cmd, raw: Raw) -> tuple[str, str]:
        first_err = raw.stderr.strip().splitlines()[0] if raw.stderr.strip() else ""
        if raw.error is not None:
            return ERROR, raw.error
        if raw.code == 3 and "witness" in raw.stderr and cmd.may_give_up:
            return NO_VERDICT, first_err
        if raw.code != 0:
            return ERROR, f"exit {raw.code}: {first_err}"
        try:
            out = json.loads(raw.stdout)
        except json.JSONDecodeError as exc:
            return ERROR, f"machine output is not JSON: {exc}"
        if cmd.command == "analyze":
            problems = oracle.check_analyze(cmd.algebra, out)
        elif cmd.command == "spinor":
            problems = oracle.check_spinor(cmd.algebra, out, cmd.all_charts)
        else:
            problems = oracle.check_crosscheck(cmd.algebra, out)
        return (WRONG, "; ".join(problems)) if problems else (OK, "")


def per_command(n: int, outcomes: list[Outcome]) -> list[Outcome]:
    """One outcome per command: its first failing run, else its first run."""
    chosen: list[Outcome | None] = [None] * n
    for o in outcomes:
        if chosen[o.index] is None or (chosen[o.index].status == OK and o.status != OK):
            chosen[o.index] = o
    return chosen


# -- measurement and report ---------------------------------------------------------


def measure(client: Client, seconds: float, trace: bool, setup):
    """Cycle through the commands, calling `setup()` after each, while the
    next command and set-up round should end within `seconds`; the first pass
    always completes (one pass and no set-up rounds when tracing).  Then the
    determinism repeat and, when tracing, one traced pass.  Returns (outcomes
    per command, set-up times, extra outcomes, traced results or None)."""
    n = len(client.commands)
    runs: list[list[Outcome]] = [[] for _ in range(n)]
    setup_times = []
    deadline = time.perf_counter() + seconds
    for step in itertools.count():
        index = step % n
        if step >= n:
            if trace:
                break
            expected = statistics.median(o.seconds for o in runs[index]) + setup_times[-1]
            if time.perf_counter() + expected > deadline:
                break
        runs[index].append(client.run(index))
        if not trace:
            setup_times.append(setup())
    extra = []
    if all(len(r) == 1 for r in runs):
        # the determinism check: repeat the cheapest command once
        cheapest = min(range(n), key=lambda i: runs[i][0].seconds)
        extra.append(client.run(cheapest))
    traced = None
    if trace:
        raws, layer, totals = tracing.traced(lambda: [client.execute(i) for i in range(n)])
        extra += [client.judge(i, raw) for i, raw in enumerate(raws)]
        traced = (sum(raw.seconds for raw in raws), layer, totals)
    return runs, setup_times, extra, traced


def end_to_end(runs: list[list[Outcome]], setup_times: list[float], outcomes: list[Outcome]):
    """{name: (value, unit, sample count)} for the BENCHMARK.json metrics, and
    for the report-only ones.  A pass costs the sum of each command's median
    time, so a partial last pass still adds samples."""
    medians = [statistics.median(o.seconds for o in r) for r in runs]
    samples = sum(len(r) for r in runs)
    wall = sum(medians)
    ok_per_pass = sum(sum(o.status == OK for o in r) / len(r) for r in runs)
    metrics = {
        "wall_s": (wall, "s", samples),
        "verdicts_per_min": (ok_per_pass / (wall / 60), "1/min", samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    if setup_times:
        metrics["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    # The median lands on whichever command ranks in the middle, so it is
    # reported but not bounded.
    extra = {"verdict_p50_s": (statistics.median(medians), "s", len(medians))}
    tail = stats.tail_percentile([o.seconds for r in runs for o in r])
    if tail is not None:
        extra[f"verdict_tail_s (p{tail[0]})"] = (tail[1], "s", samples)
    for command in ("analyze", "spinor", "crosscheck"):
        times = [t for t, r in zip(medians, runs) if r[0].command == command]
        if times:
            extra[f"{command}_s"] = (sum(times), "s", len(times))
    failed = sum(o.status != OK for o in outcomes)
    extra["failed_frac"] = (failed / len(outcomes), "ratio", len(outcomes))
    return metrics, extra


def _row(name: str, value: float, unit: str, n: int | None = None) -> str:
    count = "" if n is None else f" (n={n})"
    return f"  {name:<36} {value:>14.6f} {unit}{count}"


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(workload, seed, commands, runs, outcomes, setup_times, traced) -> dict:
    """Print the readable report; return the metrics for the result line."""
    metrics, extra = end_to_end(runs, setup_times, outcomes)
    print(f"workload {workload}, seed {seed}: closed loop, one client, "
          f"{len(commands)} commands per pass, {sum(map(len, runs))} untraced runs")
    print("end to end (tracing off):")
    for name, m in {**metrics, **extra}.items():
        print(_row(name, *m))
    print("per command (median over its runs, tracing off):")
    for cmd, r in zip(commands, runs):
        statuses = ",".join(sorted({o.status for o in r}))
        median = statistics.median(o.seconds for o in r)
        print(f"  {cmd.label:<40} {median:>10.4f} s  x{len(r)}  {statuses}")
    failed = [o for o in outcomes if o.status != OK]
    if failed:
        print(f"failed commands ({len(failed)} of {len(outcomes)}):")
        for o in failed:
            print(f"  {o.status:<16} {o.label}: {o.detail}")
    if traced is None:
        return {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()}

    traced_wall, layer, totals = traced
    layer["trace.overhead_s"] = traced_wall - metrics["wall_s"][0]
    print(f"per layer (one traced pass under cProfile, {traced_wall:.3f} s):")
    for name, (count, _) in sorted(totals.items()):
        print(f"  span {name:<31} x{count}")
    for name in sorted(layer):
        print(_row(name, layer[name], _layer_unit(name)))
    return {name: {"value": layer[name], "unit": _layer_unit(name)} for name in sorted(layer)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload; print its report and then its result line."""
    commands = workloads.build(workload, seed)
    documents = {id(c.algebra): generators.to_document(c.algebra) for c in commands}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        paths = {}
        for index, (key, text) in enumerate(documents.items()):
            path = Path(work) / f"input{index}.alg"
            path.write_text(text, encoding="utf-8")
            paths[key] = str(path)
        cli = importlib.import_module("blowuplab.cli")
        loaded = Path(cli.__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            sys.stderr.write(f"bench: blowuplab was imported from {loaded}, not {SRC}\n")
            return 2
        client = Client(cli, commands, [paths[id(c.algebra)] for c in commands])
        runs, setup_times, extra, traced = measure(
            client, seconds, trace, lambda: setup_round(list(paths.values()))
        )

    outcomes = per_command(len(commands), [o for r in runs for o in r] + extra)
    metrics = report(workload, seed, commands, runs, outcomes, setup_times, traced)
    print(json.dumps({
        "correct": not ({o.status for o in outcomes} & {WRONG, ERROR, NONDETERMINISTIC}),
        "attempted": len(outcomes),
        "failed": sum(o.status != OK for o in outcomes),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blowuplab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program at {SRC}/blowuplab; run from a full checkout\n")
        return 2
    if args.workload != "all":
        sys.path.insert(0, str(SRC))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name in workloads.WORKLOADS:
        sys.stdout.flush()
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(argv, check=False).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
