"""Benchmark for dendro: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Ops run one at a time in whole cycles of the workload's fixed op mix,
until ``--seconds`` have passed and at least ``MIN_OPS`` ops are done, so
the slowest tenth of the ops holds at least ten samples.  A traced run
instead runs the fewest whole cycles that make ``MIN_OPS`` ops, so its
per-layer totals cover the same ops on every run.  Every answer is
checked.  End-to-end times are brought to a nominal host speed with
units of reference work timed as the ops run (``calib.py``).  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for the metrics and mixes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100
HARD_STOP_S = 100.0  # ends a window early on a machine far slower than expected
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median of these and our own
TIMING_PROBES = 5
OUT = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print setup seconds, exit")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Window:
    """Ops run, latencies and failures of one measured pass."""

    def __init__(self):
        self.latencies: list[float] = []  # wall time of each op, less the units timed inside it
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.calibrator: calib.Calibrator | None = None
        self.failures: list[tuple[int, str, str | None]] = []  # (op, kind, gap)
        self.rss_mb = 0.0
        self.elapsed = 0.0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def nominal(self) -> list[float]:
        """Each latency at the nominal host speed, by the units timed during the op or nearest to it."""
        factor = self.calibrator.factor_at
        return [lat * factor(*span) for span, lat in zip(self.spans, self.latencies)]


def rss_ops(workload) -> int:
    """Ops whose children's peak RSS counts on ``cli``: the whole cycles
    that every run reaches, so a faster program is not charged for
    fitting more requests, each a new chance of a larger peak."""
    return -(-MIN_OPS // workload.cycle) * workload.cycle


def run_op(workload, index: int, tag: str, window: Window, tracer=None) -> None:
    """Run op ``index``, time it, check its answer and record both in ``window``."""
    op = workload.op(index, tag)
    if tracer is not None:
        tracer.op = index
    spent = window.calibrator.spent if window.calibrator else 0.0
    start = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op, and the run goes on
        error = exc
    end = time.perf_counter()
    if window.calibrator:
        spent = window.calibrator.spent - spent
    if tracer is not None:
        tracer.op = -1
        tracer.ops.append((index, start, end, op.key))
    window.latencies.append(end - start - spent)
    window.spans.append((start, end))
    ok = False
    if error is None:
        try:
            ok = bool(op.check(result))
        except Exception:  # noqa: BLE001 - a malformed answer fails its check
            ok = False
    if not ok:
        window.failures.append((index, op.kind, op.gap))
    if workload.name == "cli" and error is None and index < rss_ops(workload):
        window.rss_mb = max(window.rss_mb, result.rss_kb / 1024)


def run_window(workload, seconds: float, tag: str, min_ops: int = MIN_OPS) -> Window:
    """Run whole cycles until ``seconds`` have passed and ``min_ops`` ops
    are done, with units of reference work timed before, along and after:
    by the timer inside in-process ops, between requests on ``cli``."""
    window = Window()
    window.calibrator = calibrator = calib.Calibrator()
    calibrator.sample(calib.NEAREST)
    children = workload.name == "cli"
    started = time.perf_counter()
    index = 0
    with contextlib.nullcontext() if children else calibrator.ticking():
        while True:
            elapsed = time.perf_counter() - started
            if index % workload.cycle == 0 and index and elapsed >= seconds and index >= min_ops:
                break
            if elapsed > HARD_STOP_S and index:
                break
            if index % workload.cycle == 0:
                workload.reset()
            run_op(workload, index, tag, window)
            if children:
                calibrator.after_op(window.latencies[-1])
            index += 1
            if index == workload.cycle and not children:
                window.rss_mb = peak_rss_mb()
    if not children and index < workload.cycle:
        window.rss_mb = peak_rss_mb()
    window.elapsed = time.perf_counter() - started
    calibrator.sample(calib.NEAREST // 2 + 1)
    return window


def setup_probe(args) -> float:
    """Set up again in a fresh process and return its setup seconds at nominal speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def child_ms(code: str, env: dict) -> float:
    """Median wall time of ``python -c code`` over a few runs."""
    times = []
    for _ in range(TIMING_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def slot_medians(latencies: list[float], cycle: int) -> list[float]:
    """Each op's latency replaced by the median over its slot's repetitions."""
    slots = [statistics.median(latencies[s::cycle]) for s in range(cycle)]
    return [slots[i % cycle] for i in range(len(latencies))]


def end_to_end(window: Window, setup_s: float, cycle: int, repeated: bool = False) -> dict:
    """The six end-to-end metrics, every time at nominal host speed
    (``calib.py``).  ``ops_per_s`` is the median over the
    run's whole cycles, which all run the same mix, so one cycle that
    meets a slow minute of the host does not move it.  When every cycle
    repeats the same inputs exactly (``repeated``), the percentiles take
    each slot's median repetition, so noise on one op does not move a
    percentile that falls between two slots."""
    latencies = window.nominal()
    n = len(latencies)
    rates = [cycle / sum(latencies[first : first + cycle]) for first in range(0, n - cycle + 1, cycle)] or [
        n / sum(latencies)
    ]
    lat = slot_medians(latencies, cycle) if repeated else latencies
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_p90_ms": (deciles[8] * 1000, "ms"),
        "ok_op_share": ((n - len(window.failures)) / n, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (window.rss_mb, "MB"),
    }


def traced(workload):
    """The fewest whole cycles that make ``MIN_OPS`` ops, each run untraced
    and then again under fresh names with spans on.  The op count is fixed,
    so the per-layer counts and seconds compare between runs however fast
    the program or the host is; alternating keeps drift in the host's
    speed out of the comparison between the two passes."""
    from spans import Tracer

    workload.in_process = True  # cli: both passes go through cli.run, so they compare
    plain, spanned, tracer = Window(), Window(), Tracer()
    started = time.perf_counter()
    for first in range(0, -(-MIN_OPS // workload.cycle) * workload.cycle, workload.cycle):
        cycle = range(first, first + workload.cycle)
        workload.reset()
        for index in cycle:
            run_op(workload, index, "u", plain)
        workload.reset()
        with tracer.installed():
            for index in cycle:
                run_op(workload, index, "t", spanned, tracer)
    plain.elapsed = time.perf_counter() - started
    interpreter = child_ms("pass", dict(os.environ))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imported = child_ms("import dendro.cli", env) - interpreter
    metrics = tracer.metrics(plain.busy, spanned.busy, interpreter, imported)
    write_trace(workload, tracer)
    return [plain, spanned], metrics


def write_trace(workload, tracer) -> None:
    """Spans as tab-separated lines, and the scaling curves as JSON."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-spans.tsv", "w", encoding="utf-8") as handle:
        handle.write("name\tstart\tend\tparent\top\n")
        for span in tracer.spans:
            handle.write("\t".join(map(str, span)) + "\n")
    curves = [
        {"function": fn, "axis": axis, "edges": edges, "flavour": fl, "median_s": statistics.median(s), "samples": len(s)}
        for (fn, axis, edges, fl), s in sorted(tracer.curves().items())
    ]
    (OUT / f"{workload.name}-curves.json").write_text(json.dumps(curves, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dendro").is_dir():
        print(f"error: the program's source is not at {ROOT / 'src' / 'dendro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    calibrator = calib.Calibrator()
    calibrator.sample(calib.NEAREST)
    spent = calibrator.spent
    started = time.perf_counter()
    workload = None
    try:
        with calibrator.ticking():
            import workloads

            if args.workload not in workloads.WORKLOADS:
                names = ", ".join(workloads.WORKLOADS)
                print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
                return 2
            workload = workloads.make(args.workload, args.seed, ROOT)
            workload.warm_up()
        setup_s = time.perf_counter() - started - (calibrator.spent - spent)
        calibrator.sample(calib.NEAREST)
        setup_s *= calibrator.factor()
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            windows, metrics = traced(workload)
        else:
            window = run_window(workload, args.seconds, "u")
            windows = [window]
            setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(window, statistics.median(setups), workload.cycle, workload.repeated)
    finally:
        if workload is not None:
            workload.close()

    attempted = sum(len(w.latencies) for w in windows)
    failures = [f for w in windows for f in w.failures]
    unexpected = [f for f in failures if f[2] is None]
    gaps = sorted({f[2] for f in failures if f[2] is not None})
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} samples={attempted} "
        f"failed={len(failures)} unexpected={len(unexpected)} known_gaps={','.join(gaps) or '-'} "
        f"window_s={sum(w.elapsed for w in windows):.2f} unit_ms={(windows[0].calibrator or calibrator).unit_ms():.3f}"
    )
    for index, kind, _ in unexpected[:10]:
        print(f"# unexpected failure: op {index} ({kind})", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
