"""Self-test of the benchmark's generator and output checks.

    python3 perfbench/selftest.py

Exits 0 when every check holds: the same seed gives the same inputs, a
certificate with one arc flipped and a tampered sweep line each count as
failures, and the untampered outputs do not.
"""

import json
import sys

import run

failures = []


def expect(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def inputs(workload: str, seed: int, rounds: int = 2) -> list:
    from workloads import InstanceStream

    stream = InstanceStream(workload, seed)
    return [(i.kind, i.tournament.n, i.tournament.bits, i.module) for _ in range(rounds) for i in stream.next_round()]


def failed_ratio(results: list[dict], pinned=()) -> float:
    return len(run.check_results(results, list(pinned))) / len(results)


def main() -> int:
    run.use_checkout_sources()
    from checks import check_sweep, digest, load_pinned
    from workloads import InstanceStream

    for workload in ("chain", "wide"):
        a = inputs(workload, 7)
        expect(a == inputs(workload, 7), f"{workload}: the same seed gives the same inputs")
        expect(a != inputs(workload, 8), f"{workload}: another seed gives other inputs")
        expect(len({x[1:3] for x in a}) == len(a), f"{workload}: no two inputs share their bits")

    # The smallest instance of the first chain round, run through the CLI.
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "selftest.tourn"
    inst = min(InstanceStream("chain", 3).next_round(), key=lambda i: i.tournament.n)
    good = run.run_instance(inst, path, lambda i, a: run.cli_call(a))
    path.unlink()
    expect(failed_ratio([good]) == 0, "an untampered certificate passes")
    expect(
        failed_ratio([good], [digest(good["analyze"] + good["certify"])]) == 0,
        "an output matching its pinned digest passes",
    )
    expect(failed_ratio([good], ["0" * 16]) > 0, "an output differing from its pinned digest fails")

    record = json.loads(good["certify"])
    tail, head = record["arcs"][0]
    record["arcs"][0] = [head, tail]
    flipped = dict(good, certify=json.dumps(record) + "\n")
    expect(failed_ratio([good, flipped]) > 0, "a certificate with one arc flipped raises failed_ratio")

    pinned = load_pinned()["sweep_stdout"]
    stdout = "".join(line + "\n" for line in pinned).encode("ascii")
    expect(check_sweep(0, stdout, pinned) == 0, "the pinned sweep output passes")
    tampered = stdout.replace(b'"max_delta": 2', b'"max_delta": 3', 1)
    expect(check_sweep(0, tampered, pinned) > 0, "a tampered sweep line fails")
    expect(check_sweep(1, stdout, pinned) > 0, "a sweep exiting nonzero fails")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
