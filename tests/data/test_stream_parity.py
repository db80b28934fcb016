"""The synthetic stream's lookup ids, pinned to literals.

``LookupDistribution.sample`` is the inverse-CDF sampler every synthetic
batch draws its ids through; any change to how it turns uniforms into ids
must leave each id, and the generator's state afterwards, exactly where
they were.  Each case below hashes the ``src`` of every table of the first
batches of a :class:`~repro.data.generator.SyntheticCTRStream` and records
the next uniform the generator would hand out.
"""

import hashlib

import numpy as np
import pytest

from repro.data.datasets import get_dataset
from repro.data.distributions import UniformDistribution, ZipfDistribution
from repro.data.generator import SyntheticCTRStream

TABLES, GATHERS, BATCH, BATCHES = 3, 32, 128, 3

CASES = {
    "uniform": lambda: [UniformDistribution(100_000)] * TABLES,
    "zipf-1.05": lambda: [ZipfDistribution(100_000, 1.05)] * TABLES,
    "movielens": lambda: [get_dataset("movielens").distribution()] * TABLES,
}


def _digest(distributions):
    stream = SyntheticCTRStream(
        num_tables=TABLES,
        num_rows=distributions[0].num_rows,
        lookups_per_sample=GATHERS,
        dense_features=4,
        distributions=distributions,
    )
    rng = np.random.default_rng(7)
    sha = hashlib.sha256()
    for _ in range(BATCHES):
        for index in stream.next_batch(BATCH, rng).indices:
            sha.update(np.ascontiguousarray(index.src, dtype=np.int64).tobytes())
    return sha.hexdigest(), rng.random().hex()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_ids_unchanged(case):
    assert _digest(CASES[case]()) == STREAM_DIGESTS[case]


# Recorded by running this file against the argsort + sorted-search sampler.
STREAM_DIGESTS = {
    "movielens": (
        "3174382d8cbaa2c3b04b152affaa757b25a1750d9c7569594d27724940fb4e67",
        "0x1.e90fa1fd66d39p-1",
    ),
    "uniform": (
        "b9b783cbceddac6de06f79bb671027c609598b31959e1e254bd6c116f2d7c434",
        "0x1.e90fa1fd66d39p-1",
    ),
    "zipf-1.05": (
        "27934a3d6ae0ac7811c7ef2fc9171fa7a586d8f030758321ac15fede638aa36e",
        "0x1.e90fa1fd66d39p-1",
    ),
}
