"""immorder benchmark: one run of one workload.

    python3 immbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from `src` (it need
not be installed).  The run generates the workload's queries from the
seed, writes the `leq` payload files, then starts one pass after another
for about S seconds (at least three), each in a fresh interpreter.  After
the passes it checks every output against the oracle and the shipped
schemas and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
wrappers installed.  With --trace 1 they are the per-layer ones: untraced
and traced passes alternate, and layer spans come from the traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
SETUP_PROBES = 8
MIN_PASSES = 3
# Times are reported at the machine speed at which the reference kernel
# (passrun.calibrate) takes this long: about its mean on the 2-core
# machine where the reference figures were taken.  Other tenants' load
# slows that machine by 20-60% for stretches of milliseconds to minutes,
# which moved raw timings by 20-40% between sets of runs; kernel samples
# taken next to each query tell how fast the machine ran for it.
REFERENCE_KERNEL_S = 0.0009


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args: list[str], env: dict) -> dict:
    """Start `passrun.py` in a fresh interpreter and return its record,
    with each query's output put back into its result:
    (id, status, seconds, output, kernel seconds)."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), args[0], repr(t0), *args[1:]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass ran past its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    stream, objects = io.BytesIO(out), []
    while stream.tell() < len(out):
        objects.append(pickle.load(stream))
    record, outputs = objects[-1], objects[:-1]
    if len(outputs) != len(record.get("results", ())):
        raise BenchError("a pass sent a different number of outputs than results")
    if "results" in record:
        record["results"] = [(qid, status, dt, value, k) for (qid, status, dt, k), value in zip(record["results"], outputs)]
    return record


def _deps_import_s(env: dict) -> float:
    """Third-party import time inside `import immorder.cli`, from
    `python -X importtime`: the cumulative time of each outermost import
    whose top-level package is neither the standard library nor immorder."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import immorder.cli"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"importtime probe failed: {proc.stderr[-2000:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip(" ")), name.strip().split(".")[0], int(cumulative)))
    # importtime prints a module after its children; reversed, parents come first
    total_us, inside = 0, None
    for indent, top, cumulative in reversed(rows):
        if inside is not None and indent > inside:
            continue
        inside = None
        if top != "immorder" and top not in sys.stdlib_module_names:
            total_us, inside = total_us + cumulative, indent
    return total_us / 1e6


class Verifier:
    """Checks each distinct (query, output) once; passes repeat outputs."""

    def __init__(self, queries: list[dict]) -> None:
        self.queries = {q["id"]: q for q in queries}
        self.seen: dict[tuple, str | None] = {}

    def outcomes(self, results: list[tuple]) -> dict[int, str | None]:
        """id -> None (answer right) or the reason it failed."""
        out: dict[int, str | None] = {}
        outputs = {}
        for qid, status, _, value, _ in results:
            if status != "ok":
                out[qid] = status if status == "deadline" else f"error: {value}"
                continue
            key = (qid, pickle.dumps(value))
            if key not in self.seen:
                self.seen[key] = checks.check(self.queries[qid], value)
            out[qid] = self.seen[key]
            outputs[qid] = value
        for qid in checks.check_shift_pairs(list(self.queries.values()), outputs):
            out[qid] = out[qid] or "shift class depends on the program seed"
        return out


def _at_reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def _summarize(passes: list[dict], verifier: Verifier):
    """(attempted, failed, wrong, [{id: (seconds, kernel seconds)} of the
    queries that did not fail, one dict per pass])."""
    attempted = failed = 0
    wrong: list[str] = []
    timings = []
    for rec in passes:
        outcomes = verifier.outcomes(rec["results"])
        ok = {qid: (dt, k) for qid, _, dt, _, k in rec["results"] if outcomes[qid] is None}
        attempted += len(rec["results"])
        failed += len(rec["results"]) - len(ok)
        wrong += [f"query {qid}: {why}" for qid, why in outcomes.items() if why and why != "deadline"]
        timings.append(ok)
    return attempted, failed, wrong, timings


def run_untraced(queries, qfile, deadline, seconds, env):
    setups = [_child(["--setup-only"], env) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(_child([qfile, str(deadline), "0"], env))
        last = time.monotonic() - t
        if len(passes) >= MIN_PASSES and time.monotonic() - start + last > seconds:
            break
    return setups, passes


def _latencies(timings: list[dict], scaled: bool) -> list[dict]:
    """Per-pass {id: seconds}, at reference speed or as measured."""
    return [{qid: _at_reference_speed(dt, k) if scaled else dt for qid, (dt, k) in ok.items()} for ok in timings]


def end_to_end(setups, passes, timings, queries, scaled=True) -> dict:
    """Each query's latency is its median over the passes."""
    timings = _latencies(timings, scaled)
    lat = {}
    for qid in set().union(*timings):
        lat[qid] = median(ok[qid] for ok in timings if qid in ok)
    top = max(q["rung"] for q in queries)
    setup = [
        _at_reference_speed(r["setup_s"], r["setup_kernel_s"]) if scaled else r["setup_s"] for r in setups + passes
    ]
    return {
        "setup_s": median(setup),
        "queries_per_s": len(lat) / sum(lat.values()),
        "query_p50_ms": median(lat.values()) * 1000.0,
        "top_rung_s": sum(dt for qid, dt in lat.items() if queries[qid]["rung"] == top),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def run_traced(queries, qfile, deadline, seconds, env):
    """Alternate untraced and traced passes (at least one pair)."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain.append(_child([qfile, str(deadline), "0"], env))
        traced.append(_child([qfile, str(deadline), "1"], env))
        last = time.monotonic() - t
        if time.monotonic() - start + last > seconds:
            break
    return plain, traced


def per_layer(traced, plain_timings, traced_timings, deps_s) -> dict:
    values = tracing.combine_passes([tracing.pass_layer_values(p["spans"]) for p in traced])
    values["setup.deps_import_s"] = deps_s
    pass_time = lambda ts: median(sum(ok.values()) for ok in _latencies(ts, scaled=True))  # noqa: E731
    values["trace.overhead_s"] = pass_time(traced_timings) - pass_time(plain_timings)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "immorder", "cli.py")):
        print("run from the repository root: src/immorder/cli.py not found", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workdir = os.path.join(root, ".immbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        queries, files = workloads.generate(args.workload, args.seed, workdir)
        for path, text in files.items():
            with open(path, "w") as fh:
                fh.write(text)
        qfile = os.path.join(workdir, "queries.json")
        with open(qfile, "w") as fh:
            json.dump(queries, fh)
        env = _env(root)
        deadline = workloads.DEADLINE_S[args.workload]
        _child(["--setup-only"], env)  # untimed: compiles bytecode caches once
        verifier = Verifier(queries)
        if args.trace:
            deps_s = median(_deps_import_s(env) for _ in range(3))
            plain, traced = run_traced(queries, qfile, deadline, args.seconds, env)
            attempted, failed, wrong, plain_t = _summarize(plain, verifier)
            attempted_t, failed_t, wrong_t, traced_t = _summarize(traced, verifier)
            attempted, failed, wrong = attempted + attempted_t, failed + failed_t, wrong + wrong_t
            metrics = per_layer(traced, plain_t, traced_t, deps_s)
        else:
            setups, passes = run_untraced(queries, qfile, deadline, args.seconds, env)
            attempted, failed, wrong, timings = _summarize(passes, verifier)
            metrics = end_to_end(setups, passes, timings, queries)
            unscaled = end_to_end(setups, passes, timings, queries, scaled=False)
            print(f"unscaled: {json.dumps(unscaled)}", file=sys.stderr)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    for line in sorted(set(wrong))[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
