"""``paper_suites``: the four §6 suites compiled cold and simulated.

Each RE of protomata, brill, protomata4 and brill4 runs once on
``CiceroSimulator(ArchConfig.new(16))`` over its own 500-byte chunk of
its suite's stream (the matching path is the modelled hardware, so its
match metrics are simulated time, one call per suite), then rounds
compile every RE cold with ``api.compile_pattern``.  The compiler layers and the cycle simulator do
nearly all the work; the engine, the VMs and the service do none.
"""

from __future__ import annotations

import time

import harness
import inputs


def setup_task(seed: int):
    """Beyond the imports, a user only builds the simulator; each RE's
    compile is the measured operation itself."""

    def build() -> None:
        from repro.arch.config import ArchConfig
        from repro.arch.simulator import CiceroSimulator

        CiceroSimulator(ArchConfig.new(16))

    return build


def run(seed: int, seconds: float, traced: bool) -> dict:
    setup_s = harness.probe_setup("paper_suites", seed)
    started = time.perf_counter()
    data = inputs.paper_suites(seed)
    harness.assert_no_newlines(c for chunks in data.chunks.values() for c in chunks)
    result = harness.Run(traced=traced, ledger=harness.Ledger(traced))
    harness.simulate_sample(result, data.sim_runs)
    # One match call is one suite on the modelled hardware: every RE over
    # its chunk, in simulated time.  The paper reports per suite, and a
    # single chunk's simulated time is bimodal (an early match stops
    # it), so its p90 over 96 chunks swung 0.28 between seeds.
    entry = 0
    for suite in data.suites.values():
        micros = sum(result.sim_us[entry + i] for i in range(len(suite)))
        entry += len(suite)
        result.match_seconds.append(micros / 1e6)
        result.match_bytes += len(suite) * inputs.CHUNK_BYTES

    def one_round(tracing: bool) -> None:
        harness.compile_phase(result, data.patterns, tracing)

    harness.run_rounds(seconds - (time.perf_counter() - started), traced, one_round, result)
    return harness.result_json(result, setup_s, harness.peak_rss_mb())
