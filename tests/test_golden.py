"""Schedule output is byte-identical to the recorded golden digests."""

import json

import pytest

from golden import FIXTURE, digest_cell

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_schedule_and_natives_match_golden_digest(cell):
    profile, strategy, seed = cell.split("/")
    assert digest_cell(profile, strategy, int(seed)) == GOLDEN[cell]
