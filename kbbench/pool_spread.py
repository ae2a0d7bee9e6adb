"""How much the MVV cost targeting steadies ``mvv_warm`` across seeds.

For each seed, times one warm pass over the benchmark's MVV pools (16
class-1 and 4 class-2 routes, drawn near the cost targets of
kb_reference.mvv_pools) and over the first 16 class-1 and 4 class-2
routes the generators give, both in one process and alternating, so a
change in machine speed hits both alike.  Prints each seed's best of
three passes and, per pool kind, the median and the spread (distance
between the quartiles over the median)::

    python3 kbbench/pool_spread.py --seeds 1-10
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import EduceStar  # noqa: E402
from repro.workloads import mvv  # noqa: E402

import kb_reference  # noqa: E402


def untargeted(data, seed: int):
    class1 = list(dict.fromkeys(mvv.class1_queries(data, 64, seed=seed + 1)))
    class2 = list(dict.fromkeys(mvv.class2_queries(data, 40, seed=seed + 2)))
    return class1[:16], class2[:4]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    first, last = map(int, parser.parse_args().seeds.split("-"))
    passes: dict = {"targeted": [], "untargeted": []}
    for seed in range(first, last + 1):
        data = mvv.generate(seed=seed)
        pools = {
            "targeted": kb_reference.mvv_pools(
                data, seed, kb_reference.MvvModel(data)),
            "untargeted": untargeted(data, seed)}
        session = mvv.load_educestar(data, EduceStar(optimize="full"))
        times: dict = {kind: [] for kind in pools}
        for rep in range(4):
            for kind, (class1, class2) in pools.items():
                start = perf_counter()
                for query in class1 + class2:
                    list(session.solve(query))
                if rep:   # the first pass warms the caches
                    times[kind].append(perf_counter() - start)
        for kind in pools:
            passes[kind].append(min(times[kind]))
        print(seed, " ".join(f"{kind}={min(t):.3f}s"
                             for kind, t in times.items()), flush=True)
    for kind, values in passes.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{kind}: median {median:.3f}s spread {(q3 - q1) / median:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
