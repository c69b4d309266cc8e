"""The tier-1 families of ``same_results.py`` match their committed digests:
the corpus reports, the help texts, the small search grid and the sparse
records' reprs are byte for byte what they were when the file was written.
The slower ``bounds`` and ``instances`` families are checked by running the
script itself."""

import json

import pytest

import same_results

with open(same_results.DIGESTS, encoding="utf-8") as handle:
    COMMITTED = json.load(handle)


@pytest.mark.parametrize("family", same_results.TIER1)
def test_family_matches_committed_digest(family):
    if family == "help" and COMMITTED["python"] != same_results.PYTHON:
        pytest.skip(f"help digests were written under Python {COMMITTED['python']}")
    assert same_results.digest(family) == COMMITTED[family]
