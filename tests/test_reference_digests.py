"""Session digests pinned by bench/reference.json.

The benchmark checks every session it runs against these SHA-256 digests of
SessionResult.canonical_bytes(); here every session seed of every cell of
every workload is checked (seed 0 first, on its own), so byte drift fails
the test suite without a benchmark run. Both files are only read.
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


IDS = [f"{n}-{m}" for n, m in CELLS]


def digest(workloads, name, mode, seeds):
    inp = workloads.build(name, workloads.DEFAULT_SEED)
    cell = next(c for c in inp.cells if c.mode == mode)
    return [hashlib.sha256(run_session(inp.trace, cell.params, inp.channel, seed,
                                       payloads=inp.payloads).canonical_bytes()).hexdigest()
            for seed in seeds]


@pytest.mark.parametrize("name,mode", CELLS, ids=IDS)
def test_session_seed_0_matches_reference(workloads, reference, name, mode):
    assert {m for n, m in CELLS if n == name} == set(reference[name])
    assert digest(workloads, name, mode, [0]) == reference[name][mode][:1]


@pytest.mark.parametrize("name,mode", CELLS, ids=IDS)
def test_every_session_seed_matches_reference(workloads, reference, name, mode):
    pinned = reference[name][mode]
    assert len(pinned) == workloads.SESSION_SEEDS
    assert digest(workloads, name, mode, range(1, len(pinned))) == pinned[1:]
