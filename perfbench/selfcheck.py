"""Self-check of the benchmark, kept out of the repository's test suite.

    python3 perfbench/selfcheck.py

Checks that the ground truth agrees with the library on small inputs,
that the same seed gives the same op sequence, that a planted wrong
answer is counted as a failed op, that the timer's units of reference
work are timed inside an op and taken out of its time, that every
workload at minimal length prints every metric ``BENCHMARK.json``
names, that a directory without the program fails without a result, and
that the test suite does not collect these files.  Takes about three minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dendro import core, terms  # noqa: E402


def test_ground_truth_matches_library():
    rng = gen.rng_for("selfcheck")
    for edges in range(1, 9):
        for fl in gen.FLAVOURS:
            node = gen.name_shape(gen.random_shape(rng, edges), "s")
            f = gen.facts(node, fl)
            poset = terms.to_broad(terms.parse_term(gen.term_text(node)), core.Flavour(fl))
            assert poset == workloads.broad(f), gen.term_text(node)
            assert terms.canonical_code(poset) == f.code
    for fl in gen.FLAVOURS:
        library = [terms.term_code(t, core.Flavour(fl)) for t in terms.enumerate_trees(6, core.Flavour(fl))]
        ours = [gen.shape_code(s, fl) for n in range(1, 7) for s in gen.corpus_shapes(n, fl)]
        assert len(ours) == len(set(ours)) and sorted(ours) == sorted(library), fl
    for width in range(6):
        assert gen.facts(gen.name_shape(gen.corolla_shape(width), "k"), gen.COMMUTATIVE).subtree_count() == width + 2
    for m in range(4):
        for n in range(4):
            dom = gen.facts(gen.name_shape(gen.chain_shape(m + 1), "a"), gen.PLANAR)
            cod = gen.facts(gen.name_shape(gen.chain_shape(n + 1), "b"), gen.PLANAR)
            assert len(gen.monotone_maps(dom, cod)) == gen.chain_hom_count(m, n)


def test_same_seed_same_ops():
    for name in workloads.WORKLOADS:
        specs = []
        for seed in (7, 7, 8):
            workload = workloads.make(name, seed, ROOT)
            try:
                specs.append([workload.op(i, "u").spec for i in range(workload.cycle + 3)])
            finally:
                workload.close()
        assert specs[0] == specs[1], name
        assert specs[0] != specs[2], name


def test_planted_wrong_answer_is_counted():
    workload = workloads.make("sweep", 1, ROOT)
    make_op = workload.make_op
    planted = next(i for i, spec in enumerate(workloads.sweep_plan(1)) if spec[1] == "degree")

    def with_wrong_expectation(seed, index, tag):
        op = make_op(seed, index, tag)
        if index == planted:
            right = op.run()
            op.check = lambda result: result == right + 1
        return op

    workload.make_op = with_wrong_expectation
    window = run.run_window(workload, 0, "u", min_ops=1)
    metrics = run.end_to_end(window, 1.0, workload.cycle)
    assert [f[0] for f in window.failures] == [planted]
    assert metrics["ok_op_share"][0] == 1 - 1 / len(window.latencies)


def test_units_come_out_of_op_time():
    calibrator = calib.Calibrator()
    calibrator.sample(calib.NEAREST)
    with calibrator.ticking():
        spent, start = calibrator.spent, time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
        spent = calibrator.spent - spent
    inside = [s for t, s in zip(calibrator.at, calibrator.seconds) if start <= t <= end]
    assert len(inside) >= calib.NEAREST and 0 < spent < end - start
    assert calibrator.factor_at(start, end) == calib.NOMINAL_S / statistics.median(inside)


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def test_every_metric_at_minimal_length():
    names = declared()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1, (name, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == names[trace], (name, trace, set(emitted) ^ set(names[trace]))


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=170)
        assert done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_outside_the_test_suite():
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert "tests/" in done.stdout and "perfbench" not in done.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok    {name}", flush=True)
            except Exception as exc:  # noqa: BLE001 - report every check, then exit non-zero
                failed += 1
                print(f"FAIL  {name}: {exc!r}", flush=True)
    sys.exit(1 if failed else 0)
