"""Regenerate pinned.json: the expected outputs for the default seed.

    python3 perfbench/pin.py

Records a digest of the analyze + certify stdout of each instance in the
first rounds of ``chain`` and ``wide`` for the default seed, and the
stdout lines of one sweep.  Re-pin only when an output format changes on
purpose; the benchmark then compares every default-seed run against it.
"""

import json

import run

PIN_ROUNDS = {"chain": 2, "wide": 2}


def main():
    run.use_checkout_sources()
    from checks import PINNED_PATH, digest
    from workloads import InstanceStream

    pinned = {"seed": run.DEFAULT_SEED}
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "pin.tourn"
    for workload, rounds in PIN_ROUNDS.items():
        stream = InstanceStream(workload, run.DEFAULT_SEED)
        pinned[workload] = []
        for _ in range(rounds):
            for inst in stream.next_round():
                r = run.run_instance(inst, path, lambda i, a: run.cli_call(a))
                if r["rc"] != (0, 0):
                    raise SystemExit(f"instance {inst.id} failed: exit codes {r['rc']}")
                pinned[workload].append(digest(r["analyze"] + r["certify"]))
    path.unlink()
    _, _, rc, out, _ = run.run_child(run.SWEEP_CMD)
    if rc != 0:
        raise SystemExit(f"sweep failed with exit code {rc}")
    pinned["sweep_stdout"] = out.decode("ascii").splitlines()
    PINNED_PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
