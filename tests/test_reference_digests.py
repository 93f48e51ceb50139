"""Session digests pinned by bench/reference.json.

The benchmark checks every session it runs against these SHA-256 digests of
SessionResult.canonical_bytes(); here session seed 0 of every cell of every
workload is checked, so byte drift fails the test suite without a benchmark
run. Both files are only read.
"""

import hashlib
import json

import pytest

from dafstream.harness import run_session

from conftest import BENCH

CELLS = [(name, mode) for name, modes in
         (("readme-300", ("DAF", "DAF-L", "S-LT", "Block", "Expand")),
          ("long-daf-1800", ("DAF",)),
          ("relay-payload-300", ("DAF", "DAF-L")))
         for mode in modes]


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,mode", CELLS, ids=[f"{n}-{m}" for n, m in CELLS])
def test_session_seed_0_matches_reference(workloads, reference, name, mode):
    assert {m for n, m in CELLS if n == name} == set(reference[name])
    inp = workloads.build(name, workloads.DEFAULT_SEED)
    cell = next(c for c in inp.cells if c.mode == mode)
    result = run_session(inp.trace, cell.params, inp.channel, 0, payloads=inp.payloads)
    digest = hashlib.sha256(result.canonical_bytes()).hexdigest()
    assert digest == reference[name][mode][0]
