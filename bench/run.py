"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload markings --seed 1 --seconds 20 --trace 0

The program is imported from ../src.  Set-up (import plus every context the
workload uses) is measured SETUP_REPEATS times before the rounds, once per
round and SETUP_REPEATS times after the rounds, and reported as the median
of all of them, so that it samples both ends of the run.  A run
then repeats whole rounds until at least --seconds have passed and the
workload's minimum number of rounds is done; each round re-imports the
package, so every round starts cold.  With --trace 1 a run makes exactly the
minimum number of rounds with every layer wrapped, so its counts repeat for
a given seed, and it prints the per-layer metrics instead.

Every time in the metrics is scaled by the machine's speed, sampled with a
fixed reference loop between the calls (see Speed); `ref_ms`, the run's
median reference time, turns them back into seconds as measured:
multiply by ref_ms / 10.  Per-layer times are as measured.

Every metric is printed as `name value unit` on its own line, then
`digest <sha256>` over the outputs of the minimum rounds, and last one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, run_cli

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 20  # set-ups before the rounds, and again after them
REF_EVERY = 0.1  # seconds between two reference samples inside a round
REF_NOMINAL = 0.010  # seconds; every reported time is scaled to this reference time
REF_STEP = tuple((7 * j + 1) % 240 for j in range(240))


def reference_loop() -> float:
    """Time one fixed piece of pure-Python work that does not touch artinmark:
    permutations of 240 points as tuples, and dict look-ups keyed by them,
    the kind of work the coxeter and garside layers do."""
    start = time.perf_counter()
    perm, seen = tuple(range(240)), {}
    for i in range(900):
        perm = tuple(perm[j] for j in REF_STEP)
        seen[perm] = seen.get(perm, 0) + i
    return time.perf_counter() - start


class Speed:
    """The machine's speed, sampled with reference_loop between timed calls.

    The shared machine's speed drifts by up to 1.6x within minutes, and a
    fixed piece of Python slows with it.  A time is reported scaled by
    REF_NOMINAL over the mean reference time around it: the time the work
    would take on a machine on which reference_loop takes 10 ms.  The mean,
    not the median: a short stall slows the work as much as the samples
    it falls on."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside reference_loop, in all
        self.last = -float("inf")

    def sample(self, force=False):
        if force or time.perf_counter() - self.last >= REF_EVERY:
            spent = reference_loop()
            self.samples.append(spent)
            self.spent += spent
            self.last = time.perf_counter()

    def scale(self, since: int) -> float:
        """REF_NOMINAL over the mean of the samples from index `since` on."""
        return REF_NOMINAL / statistics.fmean(self.samples[since:])


class Recorder:
    """Call latencies per family, per-round sums, attempted and failed calls,
    all scaled by the machine's speed during the round.

    Rounds with the same core (round index modulo the workload's cycle) work
    on the same elements, so per-round figures are medians over the rounds
    of each core, averaged over the cores."""

    def __init__(self, cycle: int, speed: Speed):
        self.cycle = cycle
        self.speed = speed
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.sums: defaultdict[str, defaultdict[int, list[float]]] = (
            defaultdict(lambda: defaultdict(list)))
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def start_round(self):
        self._core = self.rounds % self.cycle
        self._calls: list[tuple[str, float]] = []
        self.speed.sample(force=True)
        self._first = len(self.speed.samples) - 1
        self._spent = self.speed.spent

    def end_round(self, spent: float):
        """`spent` is the round's time as measured; the reference samples
        taken inside it are taken out."""
        spent -= self.speed.spent - self._spent
        self.speed.sample(force=True)
        scale = self.speed.scale(self._first)
        sums: defaultdict[str, float] = defaultdict(float)
        for family, call_spent in self._calls:
            self.samples[family].append(scale * call_spent)
            sums[family] += scale * call_spent
        sums["round"] = scale * spent
        for family, total in sums.items():
            self.sums[family][self._core].append(total)
        self.rounds += 1

    def call(self, family, fn):
        self.attempted += 1
        self.speed.sample()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as err:  # a failed call is counted, the run goes on
            self.failed += 1
            self.errors.append(f"{family}: {type(err).__name__}: {err}")
            return None
        self._calls.append((family, time.perf_counter() - start))
        return result

    def cli(self, lib, family, argv):
        def once():
            code, out, err = run_cli(lib, argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.strip()}")
            return out
        return self.call(family, once)

    def per_round(self, family) -> float:
        """Time of the family's calls in one round."""
        return statistics.fmean(statistics.median(v) for v in self.sums[family].values())


def fresh_import(specs, tracer=None):
    """Drop every artinmark module, import again and build the contexts.
    Returns (seconds, package)."""
    for name in [n for n in sys.modules if n == "artinmark" or n.startswith("artinmark.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    package = importlib.import_module("artinmark")
    importlib.import_module("artinmark.cli")
    if tracer is not None:
        tracer.install()
    for spec in specs:
        package.context(spec)
    spent = time.perf_counter() - start
    if not str(Path(package.__file__).resolve()).startswith(str(SRC.resolve())):
        raise SystemExit(f"artinmark was imported from {package.__file__}, not from {SRC}")
    return spent, package


def scaled_setup(specs, speed: Speed, tracer=None):
    """fresh_import, its time scaled by reference samples on either side."""
    speed.sample(force=True)
    spent, package = fresh_import(specs, tracer)
    speed.sample(force=True)
    return spent * speed.scale(len(speed.samples) - 2), package


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    speed = Speed()
    _, lib = fresh_import(workload.specs)
    data = workload.prepare(lib)
    repeats = 0 if trace else SETUP_REPEATS
    setups = [scaled_setup(workload.specs, speed)[0] for _ in range(repeats)]
    rng = random.Random(seed)
    rec = Recorder(workload.cycle, speed)
    digest = hashlib.sha256()
    check_errors = []
    begin = time.perf_counter()
    while rec.rounds < workload.min_rounds or (
        not trace and time.perf_counter() - begin < seconds
    ):
        spent, lib = scaled_setup(workload.specs, speed, tracer)
        setups.append(spent)
        inputs = workload.make_round(rng, data, rec.rounds)
        rec.start_round()
        start = time.perf_counter()
        outputs = workload.run_round(lib, inputs, rec)
        rec.end_round(time.perf_counter() - start)
        try:
            workload.check_round(lib, inputs, outputs)
        except Exception as err:  # reported, and the run is marked incorrect
            check_errors.append(f"round {rec.rounds}: {type(err).__name__}: {err}")
        if rec.rounds <= workload.min_rounds:
            digest.update(json.dumps(outputs, sort_keys=True).encode())
    wall = rec.per_round("round")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += [scaled_setup(workload.specs, speed)[0] for _ in range(repeats)]
    if trace:
        metrics = tracer.metrics(wall)
        units = {name: _unit(name) for name in metrics}
    else:
        p50, tail = workload.latency(rec)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": 1000 * p50,
            "op_tail_ms": 1000 * tail,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                 "op_p50_ms": "ms", "op_tail_ms": "ms"}
        if not rec.failed:
            for name, value, unit in workload.extra_metrics(rec):
                print(f"{name} {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"ref_ms {1000 * statistics.median(speed.samples):.6g} ms")
    print(f"rounds {rec.rounds}")
    print(f"digest {digest.hexdigest()}")
    for line in rec.errors + check_errors:
        print(f"error {line}", file=sys.stderr)
    return {
        "correct": not check_errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "artinmark" / "__init__.py").is_file():
        print(f"no artinmark sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
