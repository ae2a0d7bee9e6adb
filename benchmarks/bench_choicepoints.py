"""E7 — choice-point reference share (paper §3.2.1).

"Empirical studies of the WAM [19] have asserted that choice point
references are the single most significant contributor to the total
number of data references ... an average of 52% of data references are
identified as choice point references."

The machine counts choice-point field traffic separately, so we can
report the share directly — on a classic non-deterministic program mix
and on the MVV workload — and show how first-argument indexing and the
deterministic EDB collect-at-once erase it.

Script mode adds the optimizer axis (E14 in EXPERIMENTS.md): the same
workloads run under ``optimize="off" | "full"`` and the
report shows the choice-point-creation and cp-reference deltas — the
``switch_on_arg`` chain demotion is the pass that moves them.  Answers
are differentially checked across levels.

Run:  PYTHONPATH=src python benchmarks/bench_choicepoints.py
      [--optimize all|off|full] [--items 50]
      [--exposition PATH] [--smoke]

``--smoke`` is the CI entry point: non-zero exit when any level's
answers diverge from ``optimize="off"`` or ``optimize="full"`` fails to
cut choice-point traffic on the bound-lookup workload.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


from repro.engine.stats import measure                 # noqa: E402
from repro.wam.machine import Machine                  # noqa: E402
from repro.wam.optimizer import OPT_LEVELS             # noqa: E402

from conftest import record                            # noqa: E402

NONDET_PROGRAM = """
color(r). color(g). color(b). color(y).
adj(1,2). adj(1,3). adj(2,3). adj(2,4). adj(3,4).
ok(A-CA, B-CB) :- (adj(A,B) ; adj(B,A)), !, CA \\== CB.
ok(_, _).
colouring([C1,C2,C3,C4]) :-
    color(C1), color(C2), color(C3), color(C4),
    ok(1-C1, 2-C2), ok(1-C1, 3-C3), ok(2-C2, 3-C3),
    ok(2-C2, 4-C4), ok(3-C3, 4-C4).
"""


def test_choicepoint_share_nondeterministic(benchmark):
    """Unindexed, heavily non-deterministic search: the cp share of data
    references must be substantial (the Touati & Despain regime)."""
    m = Machine(index=False)
    m.consult(NONDET_PROGRAM)

    def run():
        m.count_solutions("colouring(_)")

    with measure(m) as meas:
        benchmark.pedantic(run, rounds=3, iterations=1)
    share = meas["cp_refs"] / max(meas["data_refs"], 1)
    record(benchmark, meas, cp_share=round(share, 3),
           paper_share=0.52, indexing=False)
    assert share > 0.15


def test_indexing_cuts_choicepoint_traffic(benchmark):
    """§3.2.2: indexing turns non-deterministic procedures
    deterministic; cp references collapse."""
    program = "".join(f"item(k{i}, {i}).\n" for i in range(50))
    goals = [f"item(k{i}, _)" for i in range(50)]

    results = {}

    def run():
        for index in (True, False):
            m = Machine(index=index)
            m.consult(program)
            with measure(m) as meas:
                for g in goals:
                    m.solve_once(g)
            results[index] = meas

    benchmark.pedantic(run, rounds=1, iterations=1)
    indexed = results[True]["cp_refs"]
    plain = results[False]["cp_refs"]
    benchmark.extra_info["cp_refs_indexed"] = indexed
    benchmark.extra_info["cp_refs_unindexed"] = plain
    benchmark.extra_info["reduction_factor"] = round(
        plain / max(indexed, 1), 1)
    assert indexed < plain / 3


def test_mvv_choicepoint_profile(benchmark, mvv_star, mvv_data):
    """The share on the real workload, with indexing + deterministic
    EDB fetch in place (the paper's design target: keep it low)."""
    from repro.workloads import mvv
    queries = mvv.class2_queries(mvv_data, 3)

    def run():
        for q in queries:
            for _ in mvv_star.solve(q):
                pass

    with measure(mvv_star) as meas:
        benchmark.pedantic(run, rounds=1, iterations=1)
    share = meas["cp_refs"] / max(meas["data_refs"], 1)
    record(benchmark, meas, cp_share=round(share, 3))


# ------------------------------------------------------- script mode (E14)

def _workloads(items: int):
    """name -> (program, goals, index) — the E7 program shapes."""
    table = "".join(f"item(k{i}, {i}).\n" for i in range(items))
    return {
        "colouring-unindexed": (
            NONDET_PROGRAM, ["colouring(C)"], False),
        "bound-lookups-unindexed": (
            table, [f"item(k{i}, V)" for i in range(items)], False),
        "bound-lookups-indexed": (
            table, [f"item(k{i}, V)" for i in range(items)], True),
    }


def _run_level(program: str, goals, index: bool, level: str) -> dict:
    from repro import term_to_text

    machine = Machine(index=index, optimize=level)
    machine.consult(program)
    answers = []
    with measure(machine) as meas:
        for goal in goals:
            for sol in machine.solve(goal, limit=100):
                answers.append(
                    (goal, tuple(sorted(
                        (name, term_to_text(value))
                        for name, value in sol.bindings.items()))))
    return {
        "answers": answers,
        "cp_created": meas["cp_created"],
        "cp_refs": meas["cp_refs"],
        "instr_count": meas["instr_count"],
        "counters": machine.counters(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--optimize", default="all",
                        choices=("all",) + OPT_LEVELS,
                        help="optimization level axis (default: all)")
    parser.add_argument("--items", type=int, default=50,
                        help="size of the bound-lookup fact table")
    parser.add_argument("--exposition", metavar="PATH", default=None,
                        help="write the merged wam counters as "
                             "Prometheus text format")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: differential-check answers and "
                             "require a cp-reference reduction")
    args = parser.parse_args(argv)
    levels = OPT_LEVELS if args.optimize == "all" else (args.optimize,)

    failures = 0
    snapshots = []
    print(f"{'workload':<26} {'level':<9} {'cp created':>11} "
          f"{'cp refs':>9} {'Δcp refs':>9} {'instr':>9} {'demoted':>8}")
    for name, (program, goals, index) in sorted(
            _workloads(args.items).items()):
        results = {}
        for level in levels:
            results[level] = _run_level(program, goals, index, level)
            snapshots.append(results[level]["counters"])
        base = results.get("off")
        for level in levels:
            r = results[level]
            delta = ("-" if base is None or base is r else
                     f"{(1 - r['cp_refs'] / max(base['cp_refs'], 1)):+.1%}")
            print(f"{name:<26} {level:<9} {r['cp_created']:>11} "
                  f"{r['cp_refs']:>9} {delta:>9} {r['instr_count']:>9} "
                  f"{r['counters']['wam_opt_chains_demoted']:>8}")
            if base is not None and r["answers"] != base["answers"]:
                print(f"FAIL {name}: optimize={level} answers diverge "
                      f"from off")
                failures += 1
            if r["counters"]["wam_opt_rejects"]:
                print(f"FAIL {name}: optimize={level} rejected "
                      f"{r['counters']['wam_opt_rejects']} block(s)")
                failures += 1
        if (args.smoke and base is not None
                and "full" in results
                and name == "bound-lookups-unindexed"
                and results["full"]["cp_refs"] >= base["cp_refs"]):
            print(f"FAIL {name}: optimize=full did not cut "
                  f"choice-point references")
            failures += 1

    if args.exposition:
        from repro.obs import MetricsRegistry, render_prometheus
        text = render_prometheus(MetricsRegistry.merge(*snapshots))
        assert "educe_wam_opt_chains_demoted" in text
        with open(args.exposition, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nmerged Prometheus exposition "
              f"({len(text.splitlines())} lines) -> {args.exposition}")

    print(f"\n{'PASS' if not failures else 'FAIL'}: answers pinned "
          f"across levels; see EXPERIMENTS.md E14")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
