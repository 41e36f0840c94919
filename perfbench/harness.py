"""Shared machinery of the four benchmark workloads.

A run first simulates a fixed sample of (pattern, chunk) pairs on the
NEW 16x1 cycle simulator once (deterministic outputs), then repeats
*whole rounds* of the same operations until the requested seconds are
used up, so the share of failed operations is the same in every run.
Each round compiles the workload's compile sample cold with
``api.compile_pattern`` and then runs the workload's own matching path.
Every verdict is checked against Python ``re`` on the same bytes.
End-to-end times are scaled to a reference host speed (:class:`Clock`).

With ``--trace 1`` rounds alternate untraced and traced; the traced
rounds record spans from this package (:class:`Ledger`) around each call
into a layer and read the compiler's ``stage_seconds`` and the
``repro_*`` counters.  End-to-end metrics only ever come from
``--trace 0`` runs; per-layer times are raw wall time.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for the service's stats file and logs; inside the
#: checkout so a run never writes elsewhere (listed in .gitignore).
WORK_DIR = ROOT / ".perfbench_tmp"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Iterations of the calibration loop (about 1.2 ms of pure Python here).
CALIBRATION_LOOP = 20_000
#: Seconds the calibration loop takes at the reference host speed; every
#: end-to-end time is scaled to that speed (see :class:`Clock`).
REFERENCE_SECONDS = 1.2e-3
#: A clock recalibrates when its last calibration is older than this.
CALIBRATION_INTERVAL = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "compile_ms_p50": "ms",
    "compile_ms_p90": "ms",
    "code_size_geomean": "instructions",
    "sim_us_geomean": "sim_us",
    "sim_kcycles_per_s": "kcycles/s",
    "match_mb_s": "MB/s",
    "match_ms_p50": "ms",
    "match_ms_p90": "ms",
}

#: Compiler stage name (``CompilationResult.stage_seconds``) → layer metric.
STAGE_METRICS = {
    "frontend": "frontend.parse_us",
    "to-regex-dialect": "regex.import_us",
    "regex-transforms": "regex.passes_us",
    "prefilter-analysis": "prefilter.analysis_us",
    "lowering": "cicero.lowering_us",
    "cicero-transforms": "cicero.passes_us",
    "codegen": "codegen_us",
}

#: Every per-layer metric with its unit.  A workload reports all of
#: them; a layer its path never enters reads 0.
PER_LAYER_UNITS = {
    **{name: "us" for name in STAGE_METRICS.values()},
    "regex.ops_after": "ops",
    "isa.d_offset_mean": "count",
    "arch.icache_misses_per_re": "count",
    "arch.instructions_per_re": "count",
    "arch.host_us_per_chunk": "us",
    "engine.build_us": "us",
    "prefilter.skip_ratio": "ratio",
    "prefilter.ns_per_byte": "ns/byte",
    "lazydfa.states": "count",
    "lazydfa.ns_per_byte": "ns/byte",
    "lazydfa.fallbacks": "count",
    "vm.steps_per_byte": "steps/byte",
    "vm.ns_per_step": "ns/step",
    "multimatch.program_size": "instructions",
    "ahocorasick.candidates_per_chunk": "count",
    "ahocorasick.skip_ratio": "ratio",
    "ahocorasick.ns_per_byte": "ns/byte",
    "multimatch.steps_per_byte": "steps/byte",
    "multimatch.ns_per_step": "ns/step",
    "http.parse_us": "us",
    "http.render_us": "us",
    "engine.match_us": "us",
    "service.overhead_us": "us",
    "engine.cache_hit_ratio": "ratio",
    "service.shed": "count",
    "trace.overhead_pct": "%",
    "ledger.coverage": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, service failed)."""


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def assert_no_newlines(texts: Iterable[bytes]) -> None:
    """Python ``re`` and the Cicero ISA disagree on ``\\n``; the
    generators never emit one, and the oracle relies on that."""
    for text in texts:
        if b"\n" in text:
            raise BenchmarkError("generated input contains a newline")


def piece(data: bytes, size: int) -> List[bytes]:
    return [data[i : i + size] for i in range(0, len(data), size)]


class Oracle:
    """Verdicts from Python ``re`` — independent of the program."""

    def __init__(self, patterns: Iterable[str]):
        self._compiled = {p: re.compile(p.encode("latin-1")) for p in patterns}

    def matches(self, pattern: str, data: bytes) -> bool:
        return self._compiled[pattern].search(data) is not None


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
def calibration_seconds() -> float:
    """The faster of two runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_LOOP):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best


def speed_factor(calibrations: Sequence[float]) -> float:
    return REFERENCE_SECONDS / median(calibrations)


class Clock:
    """Wall time scaled to a reference host speed.

    The speed of this machine's CPU moves in steps (a fixed loop takes
    1x or 1.6x as long for seconds at a time), by more than any bound a
    benchmark could hold.  A clock re-times a fixed calibration loop at
    most every :data:`CALIBRATION_INTERVAL` and scales each measured
    interval by ``REFERENCE_SECONDS / calibration``, so a slow phase
    slows the calibration as much as the work and cancels out; a change
    in the program does not touch the loop and still shows.
    """

    def __init__(self) -> None:
        self.factor = 1.0
        self._calibrated = float("-inf")

    def start(self) -> float:
        now = time.perf_counter()
        if now - self._calibrated >= CALIBRATION_INTERVAL:
            self.factor = speed_factor([calibration_seconds()])
            now = self._calibrated = time.perf_counter()
        return now

    def stop(self, started: float) -> float:
        return (time.perf_counter() - started) * self.factor


# ----------------------------------------------------------------------
# Ledger: spans recorded around calls into each layer
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_seconds


class Ledger:
    """In-memory span recorder; disabled ledgers record nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = Span(name, time.perf_counter())
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_seconds += record.end - record.start
            self.spans.append(record)

    def add(self, name: str, seconds: float) -> None:
        """A layer time measured by the program itself (stage_seconds)."""
        if not self.enabled:
            return
        record = Span(name, 0.0, seconds)
        if self._stack:
            self._stack[-1].child_seconds += seconds
        self.spans.append(record)

    def self_seconds(self) -> float:
        return sum(span.self_seconds for span in self.spans)


# ----------------------------------------------------------------------
# Run accounting
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Everything one benchmark run accumulates."""

    traced: bool = False
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    compile_seconds: List[float] = field(default_factory=list)
    match_seconds: List[float] = field(default_factory=list)
    match_bytes: int = 0
    #: Wall time of the matching path when calls overlap (``serve``);
    #: zero means the calls ran one at a time.
    match_wall: float = 0.0
    code_sizes: Dict[str, int] = field(default_factory=dict)
    sim_cycles: Dict[tuple, int] = field(default_factory=dict)
    sim_us: Dict[int, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    stage_seconds: Dict[str, List[float]] = field(default_factory=dict)
    ops_after: Dict[str, int] = field(default_factory=dict)
    d_offsets: Dict[str, int] = field(default_factory=dict)
    sim_misses: Dict[int, int] = field(default_factory=dict)
    sim_instructions: Dict[int, int] = field(default_factory=dict)
    sim_host_seconds: List[float] = field(default_factory=list)
    sim_scaled_seconds: float = 0.0
    sim_total_cycles: int = 0
    round_seconds: Dict[bool, List[float]] = field(
        default_factory=lambda: {False: [], True: []}
    )
    ledger: Ledger = field(default_factory=lambda: Ledger(False))
    clock: Clock = field(default_factory=Clock)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def check(self, ok: bool, what: str) -> None:
        if ok:
            return
        if len(self.mismatches) < 20:
            self.mismatches.append(what)
        elif self.mismatches[-1] != "...":
            self.mismatches.append("...")

    def same(self, table: dict, key, value, what: str) -> None:
        """Property: repeating a deterministic step repeats its result."""
        previous = table.setdefault(key, value)
        self.check(previous == value, f"{what} changed: {previous} -> {value}")


def run_rounds(
    seconds: float,
    traced: bool,
    one_round: Callable[[bool], None],
    run: Run,
) -> None:
    """Whole rounds until ``seconds`` pass; traced runs alternate an
    untraced and a traced round so ``trace.overhead_pct`` compares like
    with like."""
    started = time.perf_counter()
    index = 0
    while True:
        tracing = traced and index % 2 == 1
        round_started = time.perf_counter()
        one_round(tracing)
        run.round_seconds[tracing].append(time.perf_counter() - round_started)
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (not traced or index >= 2):
            return


# ----------------------------------------------------------------------
# The compile phase every round runs, and the simulator sample
# ----------------------------------------------------------------------
def compile_phase(run: Run, patterns: Sequence[str], tracing: bool) -> Dict[str, object]:
    """Compile each pattern cold once with ``api.compile_pattern``;
    returns the programs."""
    from repro import api
    from repro.isa.metrics import static_metrics
    from repro.observability import ir_stats

    ledger = run.ledger if tracing else Ledger(False)
    programs: Dict[str, object] = {}
    for pattern in patterns:
        started = run.clock.start()
        with ledger.span("compile"):
            result = api.compile_pattern(pattern, trace=tracing)
            for stage, seconds in result.stage_seconds.items():
                ledger.add("compile." + stage, seconds)
        elapsed = run.clock.stop(started)
        run.attempted += 1
        run.compile_seconds.append(elapsed)
        run.check(
            not result.dropped_passes,
            f"compile of {pattern!r} dropped {result.dropped_passes}",
        )
        run.same(run.code_sizes, pattern, len(result.program), "code size")
        if tracing:
            for stage, seconds in result.stage_seconds.items():
                run.stage_seconds.setdefault(stage, []).append(seconds)
            run.ops_after[pattern] = ir_stats(result.regex_module)["op_count"]
            run.d_offsets[pattern] = static_metrics(result.program).d_offset
        programs[pattern] = result.program
    return programs


#: Simulated pairs compiled and simulated a second time (property check).
RESIMULATE = 4


def simulate_sample(run: Run, sim_runs: Sequence[Tuple[str, Sequence[bytes]]]) -> None:
    """Run each ``(pattern, chunks)`` once on
    ``CiceroSimulator(ArchConfig.new(16))``, then the first
    :data:`RESIMULATE` again from a fresh compile, which must repeat the
    cycles.

    The outputs are deterministic, so this runs once per run, before the
    rounds, and its operations are checked but not counted in
    ``attempted`` (a count outside the rounds would change the failed
    share with the number of rounds).  ``run.sim_us[i]`` holds the
    simulated µs of entry ``i``.
    """
    from repro import api
    from repro.arch.config import ArchConfig
    from repro.arch.power import execution_time_us
    from repro.arch.simulator import CiceroSimulator

    oracle = Oracle(pattern for pattern, _ in sim_runs)
    config = ArchConfig.new(16)
    simulator = CiceroSimulator(config)
    repeats = list(enumerate(sim_runs)) + list(enumerate(sim_runs[:RESIMULATE]))
    for done, (entry, (pattern, chunks)) in enumerate(repeats):
        program = api.compile_pattern(pattern).program
        cycles = misses = instructions = 0
        for chunk in chunks:
            started = run.clock.start()
            result = simulator.run(program, chunk)
            raw = time.perf_counter() - started
            scaled = run.clock.stop(started)
            run.check(
                result.matched == oracle.matches(pattern, chunk),
                f"simulator verdict for {pattern!r} on {chunk[:40]!r}",
            )
            run.same(run.sim_cycles, (pattern, chunk), result.cycles, "cycles")
            cycles += result.cycles
            misses += result.stats.cache_misses
            instructions += result.stats.instructions
            if done >= len(sim_runs):
                continue
            run.sim_host_seconds.append(raw)
            run.sim_scaled_seconds += scaled
            run.sim_total_cycles += result.cycles
        run.sim_us[entry] = execution_time_us(cycles, config)
        run.sim_misses[entry] = misses
        run.sim_instructions[entry] = instructions


# ----------------------------------------------------------------------
# Set-up time: fresh processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources first,
    and a home directory inside the checkout so nothing the program
    writes by default lands in the user's home."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["HOME"] = str(WORK_DIR / "home")
    env.pop("REPRO_STATS_FILE", None)
    return env


def probe_setup(workload: str, seed: int) -> float:
    """Median set-up seconds over :data:`SETUP_REPEATS` fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "setup_probe.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            env=child_env(),
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            raise BenchmarkError(
                f"set-up probe failed: {completed.stderr.strip()[-500:]}"
            )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return median(samples)


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------
def compile_layers(run: Run) -> Dict[str, float]:
    """The compile and simulator layer metrics every workload has."""
    layers = {
        metric: median(run.stage_seconds.get(stage, [])) * 1e6
        for stage, metric in STAGE_METRICS.items()
    }
    layers["regex.ops_after"] = mean(list(run.ops_after.values()))
    layers["isa.d_offset_mean"] = mean(list(run.d_offsets.values()))
    layers["arch.icache_misses_per_re"] = mean(list(run.sim_misses.values()))
    layers["arch.instructions_per_re"] = mean(list(run.sim_instructions.values()))
    layers["arch.host_us_per_chunk"] = median(run.sim_host_seconds) * 1e6
    return layers


def result_json(run: Run, setup_s: float, rss_mb: float) -> dict:
    """The last line the benchmark prints."""
    if not run.traced:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "compile_ms_p50": median(run.compile_seconds) * 1e3,
            "compile_ms_p90": p90(run.compile_seconds) * 1e3,
            "code_size_geomean": statistics.geometric_mean(run.code_sizes.values()),
            "sim_us_geomean": statistics.geometric_mean(run.sim_us.values()),
            "sim_kcycles_per_s": ratio(run.sim_total_cycles, run.sim_scaled_seconds)
            / 1e3,
            "match_mb_s": ratio(
                run.match_bytes, run.match_wall or sum(run.match_seconds)
            )
            / 1e6,
            "match_ms_p50": median(run.match_seconds) * 1e3,
            "match_ms_p90": p90(run.match_seconds) * 1e3,
        }
        units = END_TO_END_UNITS
    else:
        values = {name: 0.0 for name in PER_LAYER_UNITS}
        values.update(compile_layers(run))
        values.update(run.layer)
        untraced = median(run.round_seconds[False])
        traced = median(run.round_seconds[True])
        values["trace.overhead_pct"] = (ratio(traced, untraced) - 1.0) * 100.0
        # Every span's self time is time inside some layer; the rest of a
        # traced round is the benchmark's own bookkeeping and the oracle.
        values["ledger.coverage"] = ratio(
            run.ledger.self_seconds(), sum(run.round_seconds[True])
        )
        units = PER_LAYER_UNITS
    return {
        "mismatches": run.mismatches,
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
