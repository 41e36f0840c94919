"""``ruleset``: brill and protomata rule sets, compiled as one program.

Each set is compiled with ``compile_multipattern`` (in set-up, as a user
pays it) and every round scans the family's 500-byte chunks with
``PrefilteredMultiMatchVM``: Aho-Corasick pruning, then ``MultiMatchVM``.
The checked output is the set of matched rule ids per chunk.

Each round also attempts the one known-failing operation: compiling the
28 brill rules of seed 5, which pass the 8,192-instruction operand
space.  It runs outside every timer and counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import time

import harness
import inputs


def setup_task(seed: int):
    """Set-up a user pays: compile every rule set and build its matcher."""
    sets = inputs.ruleset_sets(seed)

    def build() -> None:
        from repro.multimatch.compiler import compile_multipattern
        from repro.prefilter.multi import PrefilteredMultiMatchVM

        for rules in sets.values():
            PrefilteredMultiMatchVM(compile_multipattern(rules))

    return build


def _automaton(multi_program):
    """The Aho-Corasick automaton ``PrefilteredMultiMatchVM`` builds."""
    from repro.prefilter.ahocorasick import AhoCorasick

    entries, always = [], set()
    for match_id in multi_program.patterns:
        analysis = multi_program.analyses.get(match_id)
        if analysis is None or not analysis.literals:
            always.add(match_id)
        else:
            entries.extend((literal, match_id) for literal in set(analysis.literals))
    universe = frozenset(multi_program.patterns) - always
    return AhoCorasick(entries), universe, frozenset(always)


def _layer_probes(run: harness.Run, compiled: dict, data: inputs.Ruleset) -> None:
    """Direct calls into the Aho-Corasick and multimatch layers."""
    from repro.multimatch.vm import MultiMatchVM
    from repro.observability import MetricsRegistry

    ac_seconds = vm_seconds = 0.0
    scanned = vm_bytes = steps = 0
    candidates_seen = []
    for key, multi_program in compiled.items():
        automaton, universe, always = _automaton(multi_program)
        vm = MultiMatchVM(multi_program)
        registry = MetricsRegistry()
        for chunk in data.chunks[key[:2]]:
            started = time.perf_counter()
            candidates = automaton.find_payloads(chunk, universe=universe) | always
            ac_seconds += time.perf_counter() - started
            scanned += len(chunk)
            candidates_seen.append(len(candidates))
            if not candidates:
                continue
            vm.run(chunk, metrics=registry, candidates=candidates)
            started = time.perf_counter()
            vm.run(chunk, candidates=candidates)
            vm_seconds += time.perf_counter() - started
            vm_bytes += len(chunk)
        steps += registry.sum_values("repro_vm_steps_total")
    run.layer["ahocorasick.ns_per_byte"] = harness.ratio(ac_seconds * 1e9, scanned)
    run.layer["ahocorasick.candidates_per_chunk"] = harness.mean(candidates_seen)
    run.layer["multimatch.steps_per_byte"] = harness.ratio(steps, vm_bytes)
    run.layer["multimatch.ns_per_step"] = harness.ratio(vm_seconds * 1e9, steps)
    run.layer["multimatch.program_size"] = harness.mean(
        [len(mp.program) for mp in compiled.values()]
    )


def run(seed: int, seconds: float, traced: bool) -> dict:
    from repro import observability
    from repro.multimatch.compiler import compile_multipattern
    from repro.prefilter.multi import PrefilteredMultiMatchVM

    setup_s = harness.probe_setup("ruleset", seed)
    data = inputs.ruleset(seed)
    for chunks in data.chunks.values():
        harness.assert_no_newlines(chunks)
    oracle = harness.Oracle(data.rules)
    compiled = {key: compile_multipattern(rules) for key, rules in data.sets.items()}
    expected = {
        key: [
            frozenset(
                index
                for index, rule in enumerate(rules, start=1)
                if oracle.matches(rule, chunk)
            )
            for chunk in data.chunks[key[:2]]
        ]
        for key, rules in data.sets.items()
    }
    compiled_rules = inputs.compile_sample(data.rules)
    result = harness.Run(traced=traced, ledger=harness.Ledger(traced))
    begun = time.perf_counter()
    harness.simulate_sample(result, inputs.sim_runs(compiled_rules, data.all_chunks))
    registry = observability.MetricsRegistry()
    matchers = {False: {key: PrefilteredMultiMatchVM(mp) for key, mp in compiled.items()}}
    if traced:
        matchers[True] = {
            key: PrefilteredMultiMatchVM(mp, metrics=registry)
            for key, mp in compiled.items()
        }

    def one_round(tracing: bool) -> None:
        harness.compile_phase(result, compiled_rules, tracing)
        ledger = result.ledger if tracing else harness.Ledger(False)
        with observability.recording(metrics=registry) if tracing else contextlib.nullcontext():
            for key, matcher in matchers[tracing].items():
                for index, chunk in enumerate(data.chunks[key[:2]]):
                    started = result.clock.start()
                    with ledger.span("multimatch.run"):
                        matched = matcher.run(chunk).matched_ids
                    elapsed = result.clock.stop(started)
                    result.attempted += 1
                    result.match_seconds.append(elapsed)
                    result.match_bytes += len(chunk)
                    result.check(
                        matched == expected[key][index],
                        f"rule ids of {key} on chunk {index}",
                    )
        # The known-failing operation, outside every timer.
        result.attempted += 1
        try:
            compile_multipattern(data.oversized)
        except Exception:  # any exception is the documented failure
            result.failed += 1

    harness.run_rounds(
        seconds * (0.7 if traced else 1.0) - (time.perf_counter() - begun),
        traced, one_round, result,
    )
    if traced:
        checks = registry.sum_values("repro_prefilter_checks_total")
        result.layer["ahocorasick.skip_ratio"] = harness.ratio(
            registry.sum_values("repro_prefilter_skips_total"), checks
        )
        _layer_probes(result, compiled, data)
    return harness.result_json(result, setup_s, harness.peak_rss_mb())
