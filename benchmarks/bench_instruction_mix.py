"""Ablation — WAM instruction mix (paper §2.1, §3.2).

The WAM's term-oriented compilation determines a characteristic opcode
distribution: get/unify head traffic dominates data movement, and the
choice instructions' share tracks procedure determinism.  This bench
records the opcode histogram for three classic program shapes —
deterministic recursion, list processing, and non-deterministic search —
as the raw data behind the paper's architectural arguments.

Script mode adds the optimizer axis (E14 in EXPERIMENTS.md): each shape
runs under ``optimize="off" | "full"`` and the report shows the
executed-instruction and data-reference deltas, with the answers
differentially checked across levels.

Run:  PYTHONPATH=src python benchmarks/bench_instruction_mix.py
      [--optimize all|off|full] [--exposition PATH] [--smoke]
      [--profile]

``--smoke`` is the CI entry point: non-zero exit when any level's
answers diverge from ``optimize="off"``, or when a shape on which the
optimizer demoted no chain executes a different number of instructions
or creates a different number of choice points at ``full`` — without a
``switch_on_arg`` guard the optimized block is the unoptimized one.

``--modes`` switches to the interprocedural-modes ablation (E16 in
EXPERIMENTS.md): a dispatch workload whose key column repeats values —
so per-procedure first-argument indexing and the optimizer's local
chain guards are both defeated — runs at ``optimize="full"`` with and
without the whole-program analysis feeding proven-ground argument
positions to the dispatcher (``Session.apply_global_modes``).  With
``--smoke`` the run fails unless the answers are identical, at least
one mode-driven guard was planted, and the executed instruction count
drops — a win only the interprocedural analysis can enable, since the
optimization level is pinned on both sides.

``--profile`` switches to the sampled-profiler overhead contract (E15
in EXPERIMENTS.md): each shape runs bare, with a profiler installed
but disabled (the off path), and with sampling enabled, toggling one
machine through the three configurations in rotated interleaved
trials (overhead = median of within-trial ratios to bare).  With
``--smoke`` the run fails when the off path costs more than 1 % or
sampling more than 2 %, when any configuration changes the executed
instruction count, or when the profiler's per-predicate attribution
misses the workload's own predicates.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest                                          # noqa: E402

from repro import measure                              # noqa: E402
from repro.wam.debugger import instruction_profile     # noqa: E402
from repro.wam.machine import Machine                  # noqa: E402
from repro.wam.optimizer import OPT_LEVELS             # noqa: E402

PROGRAMS = {
    "deterministic-recursion": (
        "count(N, N) :- !. "
        "count(I, N) :- I < N, I1 is I + 1, count(I1, N).",
        "count(0, 2000)",
    ),
    "list-processing": (
        "nrev([], []). "
        "nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).",
        "nrev([a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p], _)",
    ),
    "nondeterministic-search": (
        "d(X) :- member(X, [1,2,3,4,5,6,7,8]). "
        "pair(X, Y) :- d(X), d(Y), X + Y =:= 9.",
        "findall(X-Y, pair(X, Y), _)",
    ),
}


@pytest.mark.parametrize("shape", sorted(PROGRAMS))
def test_instruction_mix(benchmark, shape):
    program, goal = PROGRAMS[shape]
    machine = Machine()
    machine.consult(program)

    state = {}

    def run():
        state["profile"] = instruction_profile(machine, goal)

    benchmark.pedantic(run, rounds=3, iterations=1)
    profile = state["profile"]
    total = sum(profile.values())
    top = sorted(profile.items(), key=lambda kv: -kv[1])[:6]
    benchmark.extra_info["total_instructions"] = total
    benchmark.extra_info["top_opcodes"] = {
        op: round(n / total, 3) for op, n in top}

    # Structural expectations per shape.
    if shape == "deterministic-recursion":
        choice = sum(profile.get(op, 0) for op in
                     ("try_me_else", "retry_me_else", "try", "retry"))
        assert choice / total < 0.25
    if shape == "list-processing":
        head = sum(n for op, n in profile.items()
                   if op.startswith(("get_", "unify_")))
        assert head / total > 0.3  # data movement dominates
    if shape == "nondeterministic-search":
        assert profile.get("try_me_else", 0) + profile.get("try", 0) > 0


# ------------------------------------------------------- script mode (E14)

def _run_level(shape: str, level: str) -> dict:
    from repro import term_to_text

    program, goal = PROGRAMS[shape]
    machine = Machine(optimize=level)
    machine.consult(program)
    with measure(machine) as meas:
        answers = [
            tuple(sorted((name, term_to_text(value))
                         for name, value in sol.bindings.items()))
            for sol in machine.solve(goal)]
    return {
        "answers": answers,
        "instr_count": meas["instr_count"],
        "data_refs": meas["data_refs"],
        "cp_created": meas["cp_created"],
        "counters": machine.counters(),
        "snapshot": machine.counters(),
    }


# -------------------------------------------- interprocedural modes (E16)

#: distinct dispatch keys; each key owns two clauses, so every key
#: column value repeats and local chain guards cannot index the chain
_MODES_KEYS = 8


def _modes_program() -> str:
    lines = []
    for i in range(_MODES_KEYS):
        lines.append(f"act(S, k{i}, on) :- mark(S, on).")
        lines.append(f"act(S, k{i}, off) :- mark(S, off).")
    lines.append("mark(_, _).")
    lines.append("route(S, R) :- lookup(S, K), act(S, K, R).")
    lines.extend(f"lookup(s{i}, k{i})." for i in range(_MODES_KEYS))
    lines.append("drive(Out) :- findall(S-R, route(S, R), Out).")
    return "\n".join(lines)


def _run_modes_config(apply_modes: bool) -> dict:
    """One fresh session at ``optimize='full'``; the only axis is
    whether the whole-program analysis feeds the dispatcher."""
    from repro import EduceStar, term_to_text

    kb = EduceStar(optimize="full")
    kb.consult(_modes_program())
    report = None
    if apply_modes:
        report = kb.apply_global_modes()
    with measure(kb.machine) as meas:
        answers = [
            tuple(sorted((name, term_to_text(value))
                         for name, value in sol.bindings.items()))
            for sol in kb.solve("drive(Out)")]
    counters = kb.counters()   # session-wide: machine + analysis_global_*
    return {
        "answers": answers,
        "instr_count": meas["instr_count"],
        "data_refs": meas["data_refs"],
        "cp_created": counters["cp_created"],
        "mode_guards": counters["wam_opt_mode_guards"],
        "rejects": counters["wam_opt_rejects"],
        "bound_preds": len(report.bound_args()) if report else 0,
        "snapshot": counters,
    }


def modes_mode(args) -> int:
    """E16: the dispatch win only interprocedural modes can enable.

    Both configurations run ``optimize="full"`` — the local chain
    guards are active on both sides, and the key
    column's repeated values defeat those local guards.  The delta is
    therefore attributable to exactly one thing: the analysis proving
    ``act``'s key argument ground at every call site, which lets the
    dispatcher plant a multi-way ``switch_on_arg`` whose buckets are
    the clauses sharing a key."""
    failures = 0
    base = _run_modes_config(apply_modes=False)
    modes = _run_modes_config(apply_modes=True)

    print(f"{'config':<22} {'instr':>8} {'Δinstr':>8} {'data refs':>10} "
          f"{'cp_created':>11} {'mode guards':>12}")
    for label, r in (("full", base), ("full + global modes", modes)):
        delta = ("-" if r is base else
                 f"{(1 - r['instr_count'] / base['instr_count']):+.1%}")
        print(f"{label:<22} {r['instr_count']:>8} {delta:>8} "
              f"{r['data_refs']:>10} {r['cp_created']:>11} "
              f"{r['mode_guards']:>12}")

    if modes["answers"] != base["answers"]:
        print("FAIL: answers diverge once global modes are applied")
        failures += 1
    if modes["mode_guards"] < 1:
        print("FAIL: the analysis planted no mode-driven guard")
        failures += 1
    if base["mode_guards"] != 0:
        print("FAIL: baseline planted mode guards without an analysis")
        failures += 1
    if args.smoke and modes["instr_count"] >= base["instr_count"]:
        print("FAIL: global modes did not reduce executed instructions")
        failures += 1
    for label, r in (("full", base), ("full+modes", modes)):
        if r["rejects"]:
            print(f"FAIL {label}: verifier rejected {r['rejects']} "
                  f"block(s)")
            failures += 1
    print(f"\n{modes['bound_preds']} predicate(s) had proven-ground "
          f"arguments; answers pinned across configs "
          f"({len(base['answers'])} solutions)")

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        text = render_prometheus(MetricsRegistry.merge(
            base["snapshot"], modes["snapshot"]))
        assert "educe_wam_opt_mode_guards" in text
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"merged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    print(f"\n{'PASS' if not failures else 'FAIL'}: interprocedural-"
          f"modes ablation; see EXPERIMENTS.md E16")
    return 1 if failures else 0


# ------------------------------------------------- profiler overhead (E15)

#: per-timing-slice goal repeats, sized so one slice is long enough to
#: dwarf the timer resolution but short enough that many interleaved
#: slices fit in a CI run
_PROFILE_REPEATS = {
    "deterministic-recursion": 1,
    "list-processing": 8,
    "nondeterministic-search": 10,
}

#: the overhead contract (docs/OBSERVABILITY.md, EXPERIMENTS.md E15)
_OFF_PATH_BUDGET = 0.01
_SAMPLING_BUDGET = 0.02


def _timed_run(machine, goal: str, repeats: int) -> float:
    import time
    start = time.perf_counter()
    for _ in range(repeats):
        for _ in machine.solve(goal):
            pass
    return time.perf_counter() - start


def _median(values):
    values = sorted(values)
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def _measure_overhead(benches, trials, ratios):
    """One measurement pass: for every shape, *trials* adjacent
    base/config slice pairs per configuration, with the order inside
    each pair alternating (base-first on even trials, config-first on
    odd) so slow drift and position bias cancel.  Appends the paired
    ratios to *ratios* and returns per-shape base medians."""
    import gc

    base_ms = {}
    gc.disable()
    try:
        for shape, (machine, sampler, set_config) in benches.items():
            goal = PROGRAMS[shape][1]
            repeats = _PROFILE_REPEATS[shape]
            base_times = []
            for trial in range(trials):
                for config in ("off", "on"):
                    pair = (("base", config) if trial % 2
                            else (config, "base"))
                    set_config(pair[0])
                    t1 = _timed_run(machine, goal, repeats)
                    set_config(pair[1])
                    t2 = _timed_run(machine, goal, repeats)
                    t_cfg, t_base = (t2, t1) if pair[0] == "base" \
                        else (t1, t2)
                    ratios[shape][config].append(t_cfg / t_base)
                    base_times.append(t_base)
            base_ms[shape] = _median(base_times) * 1000
    finally:
        gc.enable()
    return base_ms


def _pooled(ratios, config):
    pool = [r for per_shape in ratios.values()
            for r in per_shape[config]]
    return _median(pool) - 1.0


def profile_mode(args) -> int:
    """Measure the sampled profiler's overhead and show its
    attribution.

    One machine per shape; the three configurations — bare, installed-
    but-disabled (the off path), and sampling — toggle the *same*
    machine, so code-layout and allocator effects cancel (separate
    Machine instances differ by several percent on their own).  Each
    overhead is the median over adjacent order-alternating slice pairs
    of the config/base wall-time ratio, pooled across shapes; Python's
    gc is parked during timing.  In ``--smoke`` mode a verdict over
    budget triggers one automatic remeasure with more trials (the
    pools merge) before failing — the contract gates the profiler's
    cost, not the host's scheduler."""
    from repro.obs.profiler import WamProfiler

    trials = 20 if args.smoke else 10
    failures = 0
    ratios = {shape: {"off": [], "on": []} for shape in PROGRAMS}
    snapshots = []
    sampler = None
    benches = {}
    for shape in sorted(PROGRAMS):
        program, goal = PROGRAMS[shape]
        machine = Machine()
        machine.consult(program)
        sampler = WamProfiler(interval=2048).install(machine)

        def set_config(config, machine=machine, sampler=sampler):
            machine.profiler = sampler if config != "base" else None
            if config == "on":
                sampler.active or sampler.enable()
            else:
                sampler.disable()

        # Differential check first (also warms the machine): neither
        # configuration may change what executes.
        counts = {}
        for config in ("base", "off", "on"):
            set_config(config)
            before = machine.instr_count
            answers = [tuple(sorted(s.bindings.items()))
                       for s in machine.solve(goal)]
            counts[config] = (machine.instr_count - before,
                              len(answers))
        if len(set(counts.values())) != 1:
            print(f"FAIL {shape}: profiler changed execution {counts}")
            failures += 1
        benches[shape] = (machine, sampler, set_config)

    base_ms = _measure_overhead(benches, trials, ratios)
    off_pct = _pooled(ratios, "off")
    on_pct = _pooled(ratios, "on")
    if args.smoke and (off_pct > _OFF_PATH_BUDGET
                       or on_pct > _SAMPLING_BUDGET):
        print(f"over budget on first pass (off {off_pct:+.2%}, "
              f"on {on_pct:+.2%}); remeasuring with {2 * trials} "
              f"trials")
        base_ms = _measure_overhead(benches, 2 * trials, ratios)
        off_pct = _pooled(ratios, "off")
        on_pct = _pooled(ratios, "on")

    print(f"{'shape':<28} {'base ms':>9} {'off %':>8} {'on %':>8} "
          f"{'samples':>8}")
    for shape in sorted(PROGRAMS):
        machine, sampler, set_config = benches[shape]
        set_config("on")
        print(f"{shape:<28} {base_ms[shape]:>9.2f} "
              f"{_median(ratios[shape]['off']) - 1.0:>8.2%} "
              f"{_median(ratios[shape]['on']) - 1.0:>8.2%} "
              f"{sampler.samples:>8}")
        snapshots.append(machine.counters())

        # Attribution sanity: the workload's own predicates must be
        # where the samples land.
        predicates = {rec["predicate"] for rec in sampler.attribution()}
        expected = {"deterministic-recursion": "count/2",
                    "list-processing": "nrev/2",
                    "nondeterministic-search": "pair/2"}[shape]
        if sampler.samples and expected not in predicates:
            print(f"FAIL {shape}: {expected} missing from "
                  f"attribution {sorted(predicates)}")
            failures += 1

    print(f"\noff-path overhead (installed, disabled): {off_pct:+.2%} "
          f"(budget {_OFF_PATH_BUDGET:.0%})")
    print(f"sampling overhead (interval 2048):        {on_pct:+.2%} "
          f"(budget {_SAMPLING_BUDGET:.0%})")
    if args.smoke and off_pct > _OFF_PATH_BUDGET:
        print("FAIL: off-path overhead exceeds budget")
        failures += 1
    if args.smoke and on_pct > _SAMPLING_BUDGET:
        print("FAIL: sampling overhead exceeds budget")
        failures += 1

    if sampler is not None:
        print("\nlast shape's attribution:")
        print(sampler.format())
        folded = sampler.folded()
        print(f"folded stacks ({len(folded)}):")
        for line in folded[:6]:
            print(f"  {line}")

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        text = render_prometheus(MetricsRegistry.merge(*snapshots))
        assert "educe_profiler_samples" in text
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nmerged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    print(f"\n{'PASS' if not failures else 'FAIL'}: sampled profiler "
          f"overhead contract; see EXPERIMENTS.md E15")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--optimize", default="all",
                        choices=("all",) + OPT_LEVELS,
                        help="optimization level axis (default: all)")
    parser.add_argument("--exposition", metavar="PATH", default=None,
                        help="write the merged wam counters as "
                             "Prometheus text format")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: differential-check answers and "
                             "pin unguarded shapes to the off counts")
    parser.add_argument("--profile", action="store_true",
                        help="measure sampled-profiler overhead (E15) "
                             "instead of the optimizer axis")
    parser.add_argument("--modes", action="store_true",
                        help="run the interprocedural-modes ablation "
                             "(E16) instead of the optimizer axis")
    args = parser.parse_args(argv)
    if args.profile:
        return profile_mode(args)
    if args.modes:
        return modes_mode(args)
    levels = OPT_LEVELS if args.optimize == "all" else (args.optimize,)

    failures = 0
    snapshots = []
    print(f"{'shape':<28} {'level':<9} {'instr':>9} {'Δinstr':>8} "
          f"{'data refs':>10} {'cp_created':>11} {'demoted':>8}")
    for shape in sorted(PROGRAMS):
        results = {}
        for level in levels:
            results[level] = _run_level(shape, level)
            snapshots.append(results[level]["snapshot"])
        base = results.get("off")
        for level in levels:
            r = results[level]
            delta = ("-" if base is None or base is r else
                     f"{(1 - r['instr_count'] / base['instr_count']):+.1%}")
            print(f"{shape:<28} {level:<9} {r['instr_count']:>9} "
                  f"{delta:>8} {r['data_refs']:>10} "
                  f"{r['cp_created']:>11} "
                  f"{r['counters']['wam_opt_chains_demoted']:>8}")
            if base is not None and r["answers"] != base["answers"]:
                print(f"FAIL {shape}: optimize={level} answers diverge "
                      f"from off")
                failures += 1
            if base is not None and r["data_refs"] != base["data_refs"]:
                print(f"FAIL {shape}: optimize={level} changed the "
                      f"data-reference accounting "
                      f"({base['data_refs']} -> {r['data_refs']})")
                failures += 1
            if r["counters"]["wam_opt_rejects"]:
                print(f"FAIL {shape}: optimize={level} rejected "
                      f"{r['counters']['wam_opt_rejects']} block(s)")
                failures += 1
        full = results.get("full")
        if (args.smoke and base is not None and full is not None
                and full["counters"]["wam_opt_chains_demoted"] == 0):
            for key in ("instr_count", "cp_created"):
                if full[key] != base[key]:
                    print(f"FAIL {shape}: no chain demoted, yet "
                          f"optimize=full changed {key} "
                          f"({base[key]} -> {full[key]})")
                    failures += 1

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        text = render_prometheus(MetricsRegistry.merge(*snapshots))
        assert "educe_wam_opt_blocks" in text
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nmerged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    print(f"\n{'PASS' if not failures else 'FAIL'}: answers pinned "
          f"across levels; see EXPERIMENTS.md E14")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
