"""The benchmark's outputs at smoke size: the digest of each workload's
``--smoke --trace 1`` run at seed 3 against its ``smoke`` pin in
``data/digests.json``, and no check or failed op of the run's own.  The
full-size runs take minutes; ``check_digests.py`` checks them."""

import pytest

from check_digests import PINNED, detail, faults


@pytest.mark.parametrize("workload", PINNED["smoke"])
def test_smoke_digest_is_pinned(workload):
    got = detail(workload, "--smoke")
    assert (got["digest"], faults(got)) == (PINNED["smoke"][workload], [])
