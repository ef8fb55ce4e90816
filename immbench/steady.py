"""Steadiness check: two sets of runs with disjoint seeds.

    python3 immbench/steady.py

Run from the repository root.  For each workload the benchmark command
from BENCHMARK.json runs ten times with seeds 1-10 (set A) and ten times
with seeds 11-20 (set B).  For every end-to-end metric it prints each
set's median and quartiles, the spread (interquartile distance over the
median), the spread over both sets together, and the drift (how much
worse B's median is than A's, as a share of A's; negative when B is
better).  It exits 1 when any spread or the size of any drift is past the
metric's bound, when the share of failed queries differs between the
sets, or when a run reports a wrong answer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from statistics import median, quantiles

RUNS = 10
SEED_SETS = (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1))


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3, (q3 - q1) / median(values)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bad = []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[one_run(bench["command"], workload, s, bench["run_seconds"]) for s in seeds] for seeds in SEED_SETS]
        shares = []
        for runs in sets:
            shares.append(sorted({(r["failed"], r["attempted"]) for r in runs}))
            if not all(r["correct"] for r in runs):
                bad.append(f"{workload}: a run reported a wrong answer")
        share_a = {f / a for f, a in shares[0]}
        share_b = {f / a for f, a in shares[1]}
        print(f"{workload}: failed/attempted A {shares[0]} B {shares[1]}")
        if len(share_a | share_b) != 1:
            bad.append(f"{workload}: failed share differs between runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            (q1a, ma, q3a, sa), (q1b, mb, q3b, sb) = stats
            drift = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            print(
                f"  {name:14s} A {ma:.6g} [{q1a:.6g}, {q3a:.6g}] spread {sa:.3f} | "
                f"B {mb:.6g} [{q1b:.6g}, {q3b:.6g}] spread {sb:.3f} | drift {drift:+.3f} (bound {bound})"
            )
            pooled = spread([r["metrics"][name]["value"] for runs in sets for r in runs])[3]
            print(f"  {'':14s} spread over all {2 * RUNS} runs {pooled:.3f}")
            if max(sa, sb) > bound:
                bad.append(f"{workload} {name}: spread {max(sa, sb):.3f} > {bound}")
            if abs(drift) > bound:
                bad.append(f"{workload} {name}: drift {drift:+.3f} past {bound}")
        sys.stdout.flush()
    for line in bad:
        print(f"FAIL {line}")
    print("steady" if not bad else "not steady")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
