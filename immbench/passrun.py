"""One pass of a workload, in a fresh interpreter.

Usage (from the checkout root, with `src` on PYTHONPATH):

    python3 immbench/passrun.py QUERIES.json T0 DEADLINE_S TRACE
    python3 immbench/passrun.py --setup-only T0

T0 is the parent's `time.monotonic()` just before it started this
interpreter, so set-up time runs from interpreter start until
`import immorder.cli` has finished.  The pass sends each query after the
previous one returned (a closed loop with one caller, no extra threads),
runs each under a wall-clock deadline, and writes pickles to stdout:
each query's output as soon as the query returns (so the pass holds one
output at a time and its peak memory is the program's own), then one
record with set-up time, per-query (status, seconds, machine speed), its
peak resident memory and, when traced, its spans.

Machine speed is sampled with a fixed reference kernel right before and
right after each query and, by SIGPROF, inside it (that sampling time is
taken out of the query's), so the parent can report latencies at a
reference speed; see `calibrate`.
"""

import time

import immorder.cli  # noqa: F401  (set-up ends when this import returns)

SETUP_END = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from statistics import mean  # noqa: E402

# The machine switches between a fast and a slow state every few tens of
# milliseconds to seconds.  A speed sample is taken right before and right
# after every query and, from a SIGPROF handler, every SAMPLE_EVERY_S of
# CPU time inside it; a query's speed is the mean of those samples.  They
# are picked by position, not by time, so a stall between queries (the
# pass writing a large output while the machine is busy) cannot leave a
# query without samples.
SAMPLE_EVERY_S = 0.1
SETUP_SAMPLES = 10


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a query; not an Exception, so the CLI's own
    error handling cannot turn it into an exit code."""


class Deadline:
    """SIGALRM handler that raises only while a query is armed: an alarm
    that fires as the query returns is handled after `disarm`, outside the
    query's try block, and must then do nothing."""

    def __init__(self) -> None:
        self.armed = False

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def on_alarm(self, signum, frame) -> None:
        if self.armed:
            raise DeadlineExceeded


def _reference_kernel() -> int:
    """Fixed pure-Python work (integer arithmetic, list and dict traffic,
    like the package's inner loops), about a millisecond on this machine."""
    acc = 0
    xs = list(range(160))
    table = {}
    for r in range(40):
        for i, x in enumerate(xs):
            acc += x * (i + r)
        table[r] = acc % 1000003
        xs = [x * 3 % 1009 for x in xs]
    return acc + len(table)


def calibrate() -> float:
    """Seconds the reference kernel takes right now.  The garbage collector
    is off while it runs, so the size of the program's heap does not move
    the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSamples:
    """Kernel seconds of the samples of one pass, in the order taken, and
    the time spent taking the ones that interrupted a query."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.in_query_s = 0.0

    def take(self) -> float:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        return time.perf_counter() - t0

    def on_prof(self, signum, frame) -> None:
        self.in_query_s += self.take()


def _setup_speed() -> float:
    return mean(calibrate() for _ in range(SETUP_SAMPLES))


def peak_rss_mb() -> float:
    """VmHWM of this process.  getrusage's ru_maxrss is not used: across
    exec it keeps the spawning parent's peak, which can exceed ours."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def prepare(query: dict):
    """A zero-argument callable for the query, with its inputs already
    built; the function itself is looked up at call time, so wrappers
    installed by the traced run are the ones called."""
    from immorder import intalg, postnikov

    if "argv" in query:
        argv = list(query["argv"])
        return lambda: sys.modules["immorder.cli"].run(argv)
    call, p = query["call"], query["params"]
    if call == "factorization_obstruction":
        return lambda: postnikov.factorization_obstruction(p["k"])
    a = intalg.IntMatrix.from_rows(p["rows"])
    if call == "solve_linear":
        rhs = list(p["rhs"])
        return lambda: intalg.solve_linear(a, rhs)
    return lambda: getattr(intalg, call)(a)


def plain(call: str, value):
    """Library results as lists and ints, so the checks need no package type."""
    if call == "smith_normal_form":
        return {
            "d": list(value.d),
            "U": value.U.to_rows(),
            "V": value.V.to_rows(),
            "uinv": value.uinv.to_rows(),
            "vinv": value.vinv.to_rows(),
        }
    if call == "kernel_basis":
        return {"rows": value.rows, "cols": value.cols, "matrix": value.to_rows()}
    if call == "cokernel":
        return {"free_rank": value.free_rank, "torsion": list(value.torsion)}
    if call == "solve_linear":
        return None if value is None else list(value)
    return value


def run_pass(queries: list[dict], deadline_s: float, sink, recorder=None) -> list[tuple]:
    """[(id, status, seconds, kernel seconds)]; status is ok, deadline or
    error.  The last field is the mean reference-kernel time of the samples
    taken right before, inside and right after the query, which tells how
    fast the machine ran for it.  Each query's output (None unless ok; the
    message of an error) is pickled to `sink` as soon as the query returns,
    in query order."""
    thunks = [prepare(q) for q in queries]
    speed = SpeedSamples()
    deadline = Deadline()
    signal.signal(signal.SIGALRM, deadline.on_alarm)
    signal.signal(signal.SIGPROF, speed.on_prof)
    clock = time.perf_counter
    results = []
    for q, thunk in zip(queries, thunks):
        first = len(speed.samples)
        speed.take()
        mark = len(recorder) if recorder is not None else 0
        buf = io.StringIO()
        status, value = "ok", None
        speed.in_query_s = 0.0
        t0 = clock()
        try:
            deadline.arm(deadline_s)
            if recorder is None:  # in a traced pass the samples would land in spans
                signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            try:
                with contextlib.redirect_stdout(buf):
                    value = thunk()
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
                deadline.disarm()
        except DeadlineExceeded:
            status = "deadline"
        except Exception as exc:  # a library call that raised: reported as a failed query
            status, value = "error", repr(exc)
        elapsed = clock() - t0 - speed.in_query_s
        speed.take()
        if status != "ok" and recorder is not None:
            recorder.truncate(mark)
        if status == "ok":
            value = {"rc": value, "out": buf.getvalue()} if "argv" in q else plain(q["call"], value)
        pickle.dump(value, sink, protocol=pickle.HIGHEST_PROTOCOL)
        del value, buf
        results.append((q["id"], status, elapsed, mean(speed.samples[first:])))
    return results


def main(argv: list[str]) -> None:
    if argv[0] == "--setup-only":
        record = {"setup_s": SETUP_END - float(argv[1]), "setup_kernel_s": _setup_speed()}
    else:
        path, t0, deadline_s, trace = argv
        setup_s = SETUP_END - float(t0)
        setup_kernel_s = _setup_speed()
        with open(path) as fh:
            queries = json.load(fh)
        recorder = None
        if trace == "1":
            import tracing

            recorder = tracing.install()
        results = run_pass(queries, float(deadline_s), sys.stdout.buffer, recorder)
        record = {
            "setup_s": setup_s,
            "setup_kernel_s": setup_kernel_s,
            "results": results,
            "peak_rss_mb": peak_rss_mb(),
            "spans": recorder.dump() if recorder is not None else None,
        }
    sys.stdout.flush()
    pickle.dump(record, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
