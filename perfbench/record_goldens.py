"""Record the benchmark's goldens at the default seed.

    python3 perfbench/record_goldens.py

Run on the commit whose outputs are the reference.  Writes
perfbench/goldens.json: the exit code and stdout digest of every cli
case, and digests of the serialized corpus and ladder results.
"""

from __future__ import annotations

import hashlib
import json

import run


def record() -> dict:
    run._import_berklip()
    seed = run.GOLDEN_SEED
    goldens = {"seed": seed}
    for name in ("corpus", "ladder"):
        wl = run.WORKLOADS[name](seed, trace=True)
        wl.prepare()
        goldens[f"{name}_digest"] = run._sha256([wl.outputs(k, wl.run_op(k)) for k in wl.keys])
    wl = run.CliWorkload(seed, trace=False)
    wl.prepare()
    goldens["cli"] = {}
    for key in wl.keys:
        code, stdout = wl.run_op(key)
        goldens["cli"][wl.case_id(key)] = {
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        }
    return goldens


if __name__ == "__main__":
    run.GOLDENS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDENS}")
