#!/usr/bin/env python3
"""Write bench/reference.json: SHA-256 of canonical_bytes() for every session
of the default workload seed (every cell, session seeds 0..SESSION_SEEDS-1).

    python3 bench/make_reference.py

The committed file was generated from code whose results are trusted. Run it
again only when a change is meant to alter session results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    run.use_checkout_source()
    run.check_source()
    from dafstream import harness
    import workloads
    out = {}
    for name in workloads.SPECS:
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        out[name] = {}
        for cell in inp.cells:
            digests = []
            for s in range(workloads.SESSION_SEEDS):
                result = harness.run_session(inp.trace, cell.params, inp.channel, s,
                                             payloads=inp.payloads)
                problem = run.check_result(inp, cell.mode, result)
                if problem:
                    sys.exit(f"{name} {cell.mode} session {s}: {problem}")
                digests.append(run.digest(result))
            out[name][cell.mode] = digests
            print(f"{name} {cell.mode}: {len(digests)} sessions", file=sys.stderr)
    path = Path(run.HERE) / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
