"""tourmod benchmark: drives the library from outside, through its command
line entry point, on seeded workloads.

    python3 perfbench/run.py --workload chain|wide|sweep --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Each workload is a closed loop with one client: the next instance starts
when the previous one has finished.  ``chain`` and ``wide`` run
``tourmod analyze`` then ``tourmod certify`` in-process on a generated
tourn-v1 file per instance, in whole rounds (see workloads.py).  ``sweep``
runs ``python -m tourmod sweep --max-n 7 --jobs 1`` as a child process,
repeatedly; its instances are the 530 classes each sweep verifies.
Outputs are checked after the timed loop.

S sets the amount of work, not a deadline: a run does S / 20 rounds of
chain, S / 10 rounds of wide or S / SWEEP_S sweeps, rounded and at
least one; a chain round and a wide round each took about 20 s and a
sweep SWEEP_S when the benchmark was defined.  wide does twice the
rounds because its inputs are random tournaments, whose cost varies
from seed to seed.  The sample count, and so the rank that the tail latency
reads, depends on S alone and not on how fast the program is.

The end-to-end times are taken at a fixed machine speed (see
SpeedProbe): on a shared host the share of a core that a process gets,
and the speed of that core, drift by a third within seconds.  So each
timed item's CPU time is scaled by the CPU time of a fixed reference
loop run next to it.  The wall-clock figures are in the detail line.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, taken by
wrapping the library's entry points (tracing.py), each per instance.
The line before it holds details: sample counts, the tail percentile,
input shares and the failure reasons.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 1
ROUND_S = {"chain": 20.0, "wide": 10.0}  # seconds of --seconds per round
SWEEP_S = 1.4  # nominal seconds of one sweep
SETUP_RUNS = 11
OVERHEAD_INSTANCES = 12
REF_NOMINAL_S = 0.022  # CPU s of reference_loop on an idle 2-core VM, Python 3.11
PROBE_WINDOW_S = 2.0
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SWEEP_CMD = ["-m", "tourmod", "sweep", "--max-n", "7", "--jobs", "1"]
# A fresh interpreter imports the package and builds the command parser,
# the state in which a first command is ready to run.
SETUP_CODE = (
    "import sys, tourmod, tourmod.cli; tourmod.cli.build_parser(); "
    "sys.exit(0 if tourmod.__file__.startswith(sys.argv[1]) else 3)"
)


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def use_checkout_sources():
    """Import tourmod from this checkout's src/, or exit with code 2.

    NumPy's BLAS gets one thread, here and in every child, so that the
    single client uses one core and a busy second core does not change
    the figures.
    """
    os.environ.update(THREADS_ENV)
    if not (SRC / "tourmod" / "__init__.py").is_file():
        fail(f"no tourmod sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tourmod

    if not tourmod.__file__.startswith(str(SRC)):
        fail(f"tourmod was imported from {tourmod.__file__}, not from {SRC}")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(args: list[str]) -> tuple[float, float, int, bytes, float]:
    """Run a Python child from the checkout root: (wall s, CPU s, exit
    code, stdout, peak RSS MB of the child)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, out, usage.ru_maxrss / 1024


def work_units(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


def reference_loop() -> int:
    """Fixed interpreter work that calls nothing of tourmod: it builds,
    sorts and indexes 5000 tuples six times over, the kind of
    allocation, dict and set work the library does, in about 1 MB, below
    the benchmark's own peak memory.  The garbage collector is off
    meanwhile, so the objects tourmod keeps alive cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        for salt in range(6):
            data = sorted(((i * 2654435761 + salt) & 0xFFFFF, i) for i in range(5000))
            index = dict(data)
            acc += sum(index.get(k ^ 5, v) & 255 for k, v in data[::3])
            acc += len(index.keys() & {k ^ 1 for k, _ in data[::2]})
        return acc
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """The speed the machine gives the interpreter, around each timed item.

    Call probe() before every timed item and once after the last.  An
    item's time is its CPU time scaled by REF_NOMINAL_S over the median
    CPU time of the reference loops that started within PROBE_WINDOW_S of
    it.  CPU time leaves out the turns other processes take on the core;
    the scaling takes out how much their load on the shared caches and
    the clock slows the core down while it is ours.  What is left is the
    time the item would take on an idle machine of the reference speed.
    A change to tourmod moves the item's time and not the loop's.
    """

    def __init__(self, per_gap: int = 1):
        self.per_gap = per_gap
        self.marks: list[tuple[float, float]] = []  # (wall start, loop CPU s)

    def probe(self):
        for _ in range(self.per_gap):
            t0, c0 = perf_counter(), process_time()
            reference_loop()
            self.marks.append((t0, process_time() - c0))

    def scaled(self, start: float, wall: float, cpu: float) -> float:
        """The time of an item that ran ``wall`` seconds from ``start``
        and used ``cpu`` seconds of CPU."""
        lo, hi = start - PROBE_WINDOW_S, start + wall + PROBE_WINDOW_S
        near = [s for t, s in self.marks if lo <= t <= hi]
        return cpu * REF_NOMINAL_S / statistics.median(near)

    def detail(self) -> dict:
        loops = [s for _, s in self.marks]
        return {"reference_loops": len(loops), "reference_loop_median_cpu_s": statistics.median(loops)}


def setup_median(probe: SpeedProbe) -> tuple[float, float]:
    """Median time of SETUP_RUNS fresh interpreters getting ready (see
    SETUP_CODE), launched back to back: (scaled, wall)."""
    timed = []
    for _ in range(SETUP_RUNS):
        probe.probe()
        t0 = perf_counter()
        wall, cpu, rc, _, _ = run_child(["-c", SETUP_CODE, str(SRC)])
        if rc != 0:
            fail(f"importing tourmod from {SRC} failed (exit {rc})")
        timed.append((t0, wall, cpu))
    probe.probe()
    return (
        statistics.median(probe.scaled(*item) for item in timed),
        statistics.median(wall for _, wall, _ in timed),
    )


def latency_stats(samples: list[float]) -> dict:
    """Median and the highest nearest-rank percentile with at least ten
    samples beyond it (the median when there are too few samples)."""
    ordered = sorted(samples)
    count = len(ordered)
    if count > 20:
        pct, tail = 100 * (count - 10) / count, ordered[count - 11]
    else:
        pct, tail = 50.0, statistics.median(ordered)
    return {"p50": statistics.median(ordered), "tail": tail, "tail_percentile": pct, "samples": count}


# ---------------------------------------------------------------------------
# chain and wide: analyze + certify in-process, one generated file each.


def cli_call(args: list[str]) -> tuple[int, str]:
    from tourmod import cli

    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(args)
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


def run_instance(inst, path: Path, call) -> dict:
    from tourmod import format_tourn_v1

    path.write_text(format_tourn_v1(inst.tournament), encoding="ascii")
    t0, c0 = perf_counter(), process_time()
    rc_a, out_a = call(inst.id, ["analyze", str(path)])
    rc_c, out_c = call(inst.id, ["certify", str(path)])
    return {
        "inst": inst,
        "start": t0,
        "latency": perf_counter() - t0,
        "cpu": process_time() - c0,
        "rc": (rc_a, rc_c),
        "analyze": out_a,
        "certify": out_c,
    }


def check_results(results: list[dict], pinned: list[str]) -> dict[int, list[str]]:
    """Failure reasons by instance id; ``pinned`` holds the expected
    stdout digests of the first instances (empty but for the default seed)."""
    from checks import check_instance, digest

    bad = {}
    for i, r in enumerate(results):
        reasons = check_instance(r["inst"], r["rc"], r["analyze"], r["certify"])
        if i < len(pinned) and digest(r["analyze"] + r["certify"]) != pinned[i]:
            reasons.append("stdout differs from the output pinned for the default seed")
        if reasons:
            bad[r["inst"].id] = reasons
    return bad


def _indecomposable(result: dict) -> bool:
    try:
        return json.loads(result["analyze"])["indecomposable"] is True
    except (ValueError, KeyError, TypeError):
        return False


def instance_workload(workload: str, seed: int, seconds: float, trace: bool):
    from checks import load_pinned
    from workloads import InstanceStream

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-{os.getpid()}.tourn"
    stream = InstanceStream(workload, seed)
    batches = [stream.next_round() for _ in range(work_units(seconds, ROUND_S[workload]))]
    untraced_call = lambda i, a: cli_call(a)
    try:
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            traced_call = lambda i, a: tracer.call(i, cli_call, a)
            # Overhead: each of the first instances runs both untraced and
            # traced, back to back so that drift in machine speed hits both
            # sides alike, and in alternating order because a repeat of
            # the same input runs faster.
            untraced, paired = [], []
            for k, inst in enumerate(batches[0][:OVERHEAD_INSTANCES]):
                if k % 2:
                    untraced.append(run_instance(inst, path, untraced_call))
                with tracer:
                    paired.append(run_instance(inst, path, traced_call))
                if not k % 2:
                    untraced.append(run_instance(inst, path, untraced_call))
            batches[0] = batches[0][OVERHEAD_INSTANCES:]
            with tracer:
                rounds = [[run_instance(inst, path, traced_call) for inst in batch] for batch in batches]
            rounds[0][:0] = paired
        else:
            probe = SpeedProbe()
            setup_s, setup_wall = setup_median(probe)
            rounds = []
            for batch in batches:
                rounds.append([])
                for inst in batch:
                    probe.probe()
                    rounds[-1].append(run_instance(inst, path, untraced_call))
            probe.probe()
    finally:
        path.unlink(missing_ok=True)
    results = [r for rnd in rounds for r in rnd]
    pinned = load_pinned()[workload] if seed == DEFAULT_SEED else []
    bad = check_results(results, pinned)
    n = len(results)
    kinds = [r["inst"].kind for r in results]
    prime = sum(map(_indecomposable, results))
    detail = {
        "rounds": len(rounds),
        "round_s": [sum(r["latency"] for r in rnd) for rnd in rounds],
        "instances": n,
        "sizes": sorted({r["inst"].tournament.n for r in results}),
        "kind_share": {k: kinds.count(k) / n for k in sorted(set(kinds))},
        "prime_share": prime / n,
        "decomposable_share": 1 - prime / n,
        "distinct_inputs": len({(r["inst"].tournament.n, r["inst"].tournament.bits) for r in results}) == n,
        "digests_checked": min(n, len(pinned)),
    }
    if trace:
        traced = rounds[0][:OVERHEAD_INSTANCES]
        for r, a in zip(traced, untraced):
            if (r["analyze"], r["certify"]) != (a["analyze"], a["certify"]):
                bad.setdefault(r["inst"].id, []).append("traced and untraced outputs differ")
        overhead = sum(r["latency"] for r in traced) / sum(a["latency"] for a in untraced)
        tracer.write_jsonl(OUT / f"{workload}.spans.jsonl")
        metrics = layer_metrics(tracer.summary(), n, overhead)
    else:
        scaled = [probe.scaled(r["start"], r["latency"], r["cpu"]) for r in results]
        lat = latency_stats(scaled)
        wall = latency_stats([r["latency"] for r in results])
        detail["latency"] = lat
        detail["wall_clock"] = {
            "setup_s": setup_wall,
            "instances_per_s": n / sum(r["latency"] for r in results),
            "latency_p50_ms": wall["p50"] * 1000,
            "latency_tail_ms": wall["tail"] * 1000,
        } | probe.detail()
        metrics = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (n / sum(scaled), "1/s"),
            "latency_p50_ms": (lat["p50"] * 1000, "ms"),
            "latency_tail_ms": (lat["tail"] * 1000, "ms"),
            "pass_ratio": (1 - len(bad) / n, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return metrics, n, len(bad), detail | {"failures": _first_failures(bad)}


def _first_failures(bad: dict, limit: int = 5) -> dict:
    return {str(k): v for k, v in list(bad.items())[:limit]}


# ---------------------------------------------------------------------------
# sweep: the CLI as a child process.


def sweep_workload(seconds: float, trace: bool):
    from checks import check_sweep, load_pinned

    pinned = load_pinned()["sweep_stdout"]
    classes = sum(json.loads(line)["class_count"] for line in pinned)
    OUT.mkdir(exist_ok=True)
    summary_path = OUT / f"sweep-{os.getpid()}.summary.json"
    walls, traced_walls, summaries, peaks = [], [], [], []
    failed = 0
    count = work_units(seconds, SWEEP_S)
    # One loop is a noisy reading of the speed.  The window around an
    # instance of chain or wide holds many; around a sweep it holds only
    # the loops just before and after it, so those are eight each.
    probe = SpeedProbe(per_gap=8)
    starts, cpus = [], []
    if trace:
        count = -(-count // 2)  # each pass below runs one untraced and one traced sweep
    else:
        setup_s, setup_wall = setup_median(probe)
    for _ in range(count):
        if not trace:
            probe.probe()
        starts.append(perf_counter())
        wall, cpu, rc, out, peak = run_child(SWEEP_CMD)
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        failed += check_sweep(rc, out, pinned)
        if trace:
            wall, _, rc, out, _ = run_child(
                [str(BENCH_DIR / "sweep_child.py"), str(summary_path), str(OUT / "sweep.spans.jsonl")]
            )
            traced_walls.append(wall)
            failed += check_sweep(rc, out, pinned)
            summaries.append(json.loads(summary_path.read_text(encoding="ascii")))
            summary_path.unlink()
    sweeps = len(walls) + len(traced_walls)
    detail = {"sweeps": len(walls), "traced_sweeps": len(traced_walls), "classes_per_sweep": classes}
    if trace:
        from tracing import merge_summaries

        overhead = statistics.median(traced_walls) / statistics.median(walls)
        metrics = layer_metrics(merge_summaries(summaries), classes * len(traced_walls), overhead)
    else:
        probe.probe()
        scaled = [probe.scaled(*item) for item in zip(starts, walls, cpus)]
        lat = latency_stats(scaled)
        detail["latency"] = lat
        detail["wall_clock"] = {
            "setup_s": setup_wall,
            "instances_per_s": classes / statistics.median(walls),
            "latency_p50_ms": statistics.median(walls) * 1000,
        } | probe.detail()
        metrics = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (classes / lat["p50"], "1/s"),
            "latency_p50_ms": (lat["p50"] * 1000, "ms"),
            "latency_tail_ms": (lat["tail"] * 1000, "ms"),
            "pass_ratio": (1 - failed / (classes * sweeps), "ratio"),
            "peak_rss_mb": (max(peaks), "MB"),
        }
    return metrics, classes * sweeps, failed, detail


# ---------------------------------------------------------------------------


def layer_metrics(summary: dict, instances: int, overhead: float) -> dict:
    """Per-layer metrics from a trace summary, each per instance."""
    metrics = {}
    for name, agg in summary["spans"].items():
        metrics[f"{name}.calls"] = (agg["calls"] / instances, "count")
        metrics[f"{name}.s"] = (agg["s"] / instances, "s")
        metrics[f"{name}.self_s"] = (agg["self_s"] / instances, "s")
    counters = summary["counters"]
    arcs = counters["inversion.arcs_emitted"]
    metrics["comodular.decompositions_scanned"] = (counters["comodular.decompositions_scanned"] / instances, "count")
    metrics["inversion.index_calls_per_arc"] = (
        counters["inversion.index_calls_in_synthesis"] / arcs if arcs else 0.0,
        "ratio",
    )
    metrics["inversion.guided_fallbacks"] = (counters["inversion.guided_fallbacks"] / instances, "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["chain", "wide", "sweep"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    use_checkout_sources()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))

    if args.workload == "sweep":
        metrics, attempted, failed, detail = sweep_workload(args.seconds, bool(args.trace))
    else:
        metrics, attempted, failed, detail = instance_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != wanted:
        fail(f"metrics {sorted(set(got) ^ set(wanted))} disagree with BENCHMARK.json")
    print(json.dumps({"detail": dict(workload=args.workload, seed=args.seed, trace=args.trace, **detail)}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and detail.get("distinct_inputs", True),
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
