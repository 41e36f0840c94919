"""``scan``: one warm ``Engine`` runs ``scan_corpus`` over each class.

Three pattern classes, each with its own text (see ``inputs.scan``):

* ``literal`` — brill rules; the literal prefilter rejects many chunks;
* ``class`` — protomata motifs; the prefilter rejects almost nothing
  and the lazy DFA does the work;
* ``blowup`` — one long-window pattern whose lazy DFA passes its state
  limit, so the engine falls back to the Pike VM.

Each ``scan_corpus`` call (jobs=1, 500-byte chunks) covers one 64 KiB
piece of the class text.  Compilation is one cache miss per pattern,
paid in set-up.
"""

from __future__ import annotations

import contextlib
import time

import harness
import inputs


def setup_task(seed: int):
    """Set-up a user pays before the first verdict: the engine compiles
    every pattern (one cache miss each)."""
    patterns = [p for ps in inputs.scan_patterns(seed).values() for p in ps]

    def build() -> None:
        from repro.engine import Engine

        engine = Engine(jobs=1)
        for pattern in patterns:
            engine.matcher(pattern)

    return build


def _layer_probes(run: harness.Run, data: inputs.Scan, programs: dict) -> None:
    """Direct calls into each layer's public function on the same bytes."""
    from repro.observability import MetricsRegistry
    from repro.prefilter.lazydfa import LazyDFA, LazyDFABlowup
    from repro.prefilter.scanner import build_chunk_filter
    from repro.runtime.budget import DEFAULT_BUDGET
    from repro.vm.thompson import ThompsonVM

    # Prefilter on the literal class.
    seconds, scanned = 0.0, 0
    for pattern, text in data.classes["literal"]:
        chunk_filter = build_chunk_filter(programs[pattern].analysis)
        chunks = harness.piece(text, inputs.CHUNK_BYTES)
        started = time.perf_counter()
        for chunk in chunks:
            chunk_filter(chunk)
        seconds += time.perf_counter() - started
        scanned += len(text)
    run.layer["prefilter.ns_per_byte"] = harness.ratio(seconds * 1e9, scanned)

    # Lazy DFA on the class class (warm: one pass builds the states).
    seconds, scanned, states = 0.0, 0, []
    for pattern, text in data.classes["class"]:
        dfa = LazyDFA(programs[pattern], max_states=DEFAULT_BUDGET.max_dfa_states)
        chunks = harness.piece(text, inputs.CHUNK_BYTES)
        try:
            for chunk in chunks:
                dfa.run(chunk)
        except LazyDFABlowup:
            continue  # the engine ran this one on the VM; counted in fallbacks
        started = time.perf_counter()
        for chunk in chunks:
            dfa.run(chunk)
        seconds += time.perf_counter() - started
        scanned += len(text)
        states.append(dfa.state_count)
    run.layer["lazydfa.ns_per_byte"] = harness.ratio(seconds * 1e9, scanned)
    run.layer["lazydfa.states"] = harness.mean(states)

    # Pike VM on the blow-up class.
    ((pattern, text),) = data.classes["blowup"]
    chunks = harness.piece(text, inputs.CHUNK_BYTES)
    vm = ThompsonVM(programs[pattern])
    registry = MetricsRegistry()
    for chunk in chunks:
        vm.run(chunk, metrics=registry)
    started = time.perf_counter()
    for chunk in chunks:
        vm.run(chunk)
    seconds = time.perf_counter() - started
    steps = registry.sum_values("repro_vm_steps_total")
    run.layer["vm.steps_per_byte"] = harness.ratio(steps, len(text))
    run.layer["vm.ns_per_step"] = harness.ratio(seconds * 1e9, steps)


def run(seed: int, seconds: float, traced: bool) -> dict:
    from repro import observability
    from repro.engine import Engine

    setup_s = harness.probe_setup("scan", seed)
    data = inputs.scan(seed)
    jobs = [job for class_jobs in data.classes.values() for job in class_jobs]
    harness.assert_no_newlines(text for _, text in jobs)
    oracle = harness.Oracle(data.patterns)
    calls = []  # (pattern, piece, expected chunk verdicts)
    for pattern, text in jobs:
        for part in harness.piece(text, inputs.SCAN_PIECE_BYTES):
            expected = [
                oracle.matches(pattern, chunk)
                for chunk in harness.piece(part, inputs.CHUNK_BYTES)
            ]
            calls.append((pattern, part, expected))
    compiled = inputs.compile_sample(data.patterns, inputs.SCAN_CLASS_ELEMENTS)
    result = harness.Run(traced=traced, ledger=harness.Ledger(traced))
    begun = time.perf_counter()
    harness.simulate_sample(result, inputs.sim_runs(compiled, data.chunks))
    registry = observability.MetricsRegistry()
    engines = {False: Engine(jobs=1)}
    programs: dict = {}
    build_seconds = []
    if traced:
        engines[True] = Engine(jobs=1, metrics=registry)
        with observability.recording(metrics=registry):
            for pattern in data.patterns:
                started = time.perf_counter()
                engines[True].matcher(pattern)
                build_seconds.append(time.perf_counter() - started)

    def one_round(tracing: bool) -> None:
        programs.update(harness.compile_phase(result, compiled, tracing))
        with observability.recording(metrics=registry) if tracing else contextlib.nullcontext():
            engine = engines[tracing]
            ledger = result.ledger if tracing else harness.Ledger(False)
            for pattern, part, expected in calls:
                started = result.clock.start()
                with ledger.span("engine.scan_corpus"):
                    scanned = engine.scan_corpus(
                        pattern, part, chunk_bytes=inputs.CHUNK_BYTES, jobs=1
                    )
                elapsed = result.clock.stop(started)
                result.attempted += 1
                result.match_seconds.append(elapsed)
                result.match_bytes += len(part)
                result.check(
                    scanned.chunk_matches == expected,
                    f"scan verdicts for {pattern!r}",
                )

    # Untimed warm-up: the first pass over each text builds lazy-DFA
    # states and trips the blow-up fallback; rounds measure warm scans.
    for tracing in (False, True) if traced else (False,):
        with observability.recording(metrics=registry) if tracing else contextlib.nullcontext():
            for pattern, part, _ in calls:
                engines[tracing].scan_corpus(
                    pattern, part, chunk_bytes=inputs.CHUNK_BYTES, jobs=1
                )
    harness.run_rounds(
        seconds * (0.6 if traced else 1.0) - (time.perf_counter() - begun),
        traced, one_round, result,
    )
    if traced:
        result.layer["engine.build_us"] = harness.median(build_seconds) * 1e6
        checks = registry.sum_values("repro_prefilter_checks_total")
        result.layer["prefilter.skip_ratio"] = harness.ratio(
            registry.sum_values("repro_prefilter_skips_total"), checks
        )
        result.layer["lazydfa.fallbacks"] = registry.sum_values(
            "repro_lazydfa_fallback_total"
        )
        hits = registry.sum_values("repro_cache_hits_total")
        result.layer["engine.cache_hit_ratio"] = harness.ratio(
            hits, hits + registry.sum_values("repro_cache_misses_total")
        )
        _layer_probes(result, data, programs)
    return harness.result_json(result, setup_s, harness.peak_rss_mb())

