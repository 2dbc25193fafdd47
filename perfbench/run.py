"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_atpg --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same ops untraced, then replays them with the
per-layer ledger installed (see ``ledger.py``) and reports the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and the metrics.
"""

import os
import sys
import time

_STARTED = time.perf_counter()

# One BLAS thread, set before NumPy loads: on a small box a BLAS pool
# would measure the scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORKLOADS = ("paper_atpg", "corpus_mix", "serve_mix")
#: Set-up repetitions whose median is reported as ``setup_s``.
SETUP_REPEATS = 3
#: The ledger's self times plus the unattributed share must account for
#: the traced op wall time within this share.
ACCOUNTING_TOLERANCE = 0.03

_IMPORT_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import workloads\n"
    "print(time.perf_counter() - started)\n")


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: an observed value, no interpolation."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_cycle_median(latencies, length: int, statistic) -> float:
    """``statistic`` of each whole cycle's op latencies, median over the
    cycles: one disturbed cycle cannot move the reported value."""
    return statistics.median(
        statistic(latencies[start:start + length])
        for start in range(0, len(latencies), length))


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it is not found."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def import_seconds(own: float) -> float:
    """Median import time: this process plus fresh child processes."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class HostSpeed:
    """The host's current speed, probed with a fixed reference kernel.

    On the shared 2-vCPU VM this benchmark was built on, the wall time
    of the same op swings by up to 1.7x within minutes as the load of
    the host changes (serve_mix p50 from 1.8 to 3.6 ms across runs of
    identical work), which no statistic within a run can remove. Every
    op is therefore timed between two probes of a kernel that mixes
    interpreter work, small LAPACK solves and a sort, like the ops do,
    and its wall time is scaled by ``NOMINAL_MS`` over the median of the
    latest probes: the time the op would take on a host on which the
    probe takes ``NOMINAL_MS``. The median keeps a probe that was itself
    interrupted from scaling an op. The unscaled figures are printed on
    the ``raw`` line.
    """

    #: Probe time on the reference host (the VM above in its usual state).
    NOMINAL_MS = 1.0
    WINDOW = 8

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrices = rng.normal(size=(16, 6, 6))
        self._rhs = rng.normal(size=(16, 6, 1))
        self._values = rng.normal(size=2000)
        self._recent = collections.deque(maxlen=self.WINDOW)

    def probe(self) -> None:
        begin = time.perf_counter()
        for _ in range(3):
            total = 0
            for value in range(3000):
                total += value * value
            np.linalg.solve(self._matrices, self._rhs)
            np.sort(self._values)
        self._recent.append(1e3 * (time.perf_counter() - begin))

    def scale(self) -> float:
        return self.NOMINAL_MS / statistics.median(self._recent)


class Phase:
    """Whole cycles of ops from one closed-loop caller.

    ``canonical`` holds the first cycle's outputs; every later op (and
    every op of a traced replay) must reproduce its position's output.
    """

    def __init__(self, workload, speed: HostSpeed,
                 canonical=None) -> None:
        self.workload = workload
        self.speed = speed
        self.canonical = [] if canonical is None else canonical
        #: wall seconds per op, and the same scaled to the nominal host
        self.latencies = []
        self.scaled = []
        self.windows = []
        #: (position, output ok) per op
        self.outcomes = []

    def run(self, seconds: float = 0.0, ops: int = 0, ledger=None):
        """Run ``ops`` ops, or whole cycles until ``seconds`` passed."""
        length = self.workload.cycle_length
        started = time.perf_counter()
        index = 0
        while (index < ops) if ops else (
                index % length or not index or
                time.perf_counter() - started < seconds):
            position = index % length
            self.speed.probe()
            if ledger is not None:
                ledger.active = True
            begin = time.perf_counter()
            try:
                output = self.workload.op(position)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                output = None
            end = time.perf_counter()
            if ledger is not None:
                ledger.active = False
            self.speed.probe()
            self.latencies.append(end - begin)
            self.scaled.append((end - begin) * self.speed.scale())
            self.windows.append((begin, end))
            if len(self.canonical) < length:
                self.canonical.append(output)
            self.outcomes.append(
                (position, output is not None and
                 output == self.canonical[position]))
            index += 1
        return self

    def failures(self, valid) -> int:
        """Ops that raised, differed from the first cycle's output, or
        whose position failed verification."""
        return sum(1 for position, ok in self.outcomes
                   if not ok or not valid[position])


def verify(workload, canonical):
    try:
        return workload.verify(canonical)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return [False] * workload.cycle_length, {
            "hard_accuracy": 0.0, "posterior_accuracy": 0.0,
            "ga_fitness": 0.0}


def end_to_end(workload, args, own_import_s: float, ledger_module):
    speed = HostSpeed()
    setups, scales = [], []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)
        speed.probe()
        scales.append(speed.scale())
    raw_setup_s = import_seconds(own_import_s) + statistics.median(setups)
    setup_s = raw_setup_s * statistics.median(scales)

    phase = Phase(workload, speed).run(seconds=args.seconds)
    # Peak memory of set-up and timed ops, before verification adds its own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    valid, quality = verify(workload, phase.canonical)
    attempted = len(phase.latencies)
    failed = phase.failures(valid)
    leaked = ledger_module.installed()
    if leaked:
        print(f"ledger wrappers present in an untraced run: {leaked}",
              file=sys.stderr)
    length = workload.cycle_length

    def timings(latencies):
        return {
            "op_p50_ms": 1e3 * per_cycle_median(
                latencies, length, lambda c: percentile(c, 0.50)),
            "op_p90_ms": 1e3 * per_cycle_median(
                latencies, length, lambda c: percentile(c, 0.90)),
            "throughput_per_s": per_cycle_median(
                latencies, length, lambda c: len(c) / sum(c)),
        }

    scaled = timings(phase.scaled)
    print("raw " + json.dumps(dict(timings(phase.latencies),
                                   setup_s=raw_setup_s)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_p90_ms": (scaled["op_p90_ms"], "ms"),
        "throughput_per_s": (scaled["throughput_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_success_ratio": ((attempted - failed) / attempted, "ratio"),
        "hard_accuracy": (quality["hard_accuracy"], "ratio"),
        "posterior_accuracy": (quality["posterior_accuracy"], "ratio"),
        "ga_fitness": (quality["ga_fitness"], "fitness"),
    }
    print(f"ops {attempted} in {attempted // length} cycles of {length}; "
          f"setup repeats "
          f"{[round(value, 4) for value in setups]}")
    correct = failed == 0 and all(valid) and not leaked
    return correct, attempted, failed, metrics


def per_layer(workload, args, ledger_module):
    workload.setup()
    # Untraced and traced cycles alternate, so drift of the machine's
    # speed during the run does not show up as tracing overhead. The
    # wrappers are installed for the traced cycles only.
    speed = HostSpeed()
    untraced = Phase(workload, speed)
    traced = Phase(workload, speed, canonical=untraced.canonical)
    ledger = ledger_module.Ledger()
    length = workload.cycle_length
    started = time.perf_counter()
    while not untraced.latencies or \
            time.perf_counter() - started < args.seconds:
        untraced.run(ops=length)
        ledger.install()
        try:
            traced.run(ops=length, ledger=ledger)
        finally:
            ledger.remove()
    valid, _ = verify(workload, untraced.canonical)
    attempted = len(untraced.latencies) + len(traced.latencies)
    failed = untraced.failures(valid) + traced.failures(valid)

    ledger_totals = ledger.summarize(traced.windows)
    ops = len(traced.latencies)
    wall = ledger_totals["wall_s"]
    self_s = ledger_totals["self_s"]
    unattributed = 1.0 - ledger_totals["covered_s"] / wall
    accounted = sum(self_s.values()) / wall + unattributed
    metrics = {}
    for layer, seconds in self_s.items():
        metrics[f"{layer}_ms"] = (1e3 * seconds / ops, "ms/op")
    for name, count in ledger_totals["counts"].items():
        metrics[name] = (count / ops, "count/op")
    metrics["trace.overhead_ratio"] = (
        sum(traced.scaled) / sum(untraced.scaled), "ratio")
    metrics["trace.unattributed_share"] = (unattributed, "ratio")

    print(f"traced {ops} ops; self times + unattributed = "
          f"{accounted:.4f} of traced op wall time")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<30} {100.0 * seconds / wall:6.2f}%",
              file=sys.stderr)
    correct = failed == 0 and all(valid) and \
        abs(accounted - 1.0) <= ACCOUNTING_TOLERANCE and \
        not ledger_module.installed()
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ledger as ledger_module
    import workloads
    from repro.corpus.runner import environment_info
    own_import_s = time.perf_counter() - _STARTED

    environment = dict(environment_info(), blas_threads=blas_threads())
    print("environment " + json.dumps(environment, sort_keys=True))
    workload = {cls.name: cls for cls in (
        workloads.PaperATPG, workloads.CorpusMix, workloads.ServeMix,
    )}[args.workload](args.seed)

    if args.trace:
        correct, attempted, failed, metrics = per_layer(
            workload, args, ledger_module)
    else:
        correct, attempted, failed, metrics = end_to_end(
            workload, args, own_import_s, ledger_module)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
