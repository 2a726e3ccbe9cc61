"""Outputs match the differential corpus (tests/corpus.py), record by record.

The digests were written from the program before its polynomials became
integer numerators over one denominator; every third record is
recomputed here, a few seconds' worth.  `python tests/corpus.py check`
recomputes all of them.
"""

import pytest

import corpus

DIGESTS = corpus.read_digests()
SLICE = sorted(DIGESTS)[::3]


def test_corpus_covers_every_workload_and_parser_kind():
    names = {key.split(":")[1] for key in SLICE}
    assert names == {*corpus.workloads.WORKLOADS, *corpus.PARSE_KINDS}
    assert len(DIGESTS) == len(corpus.keys())


@pytest.mark.parametrize("prefix", ["cli", "parse"])
def test_records_match(prefix):
    keys = [key for key in SLICE if key.startswith(prefix + ":")]
    assert [key for key in keys if corpus.record(key) != DIGESTS[key]] == []
