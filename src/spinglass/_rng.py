"""Counter-based random streams for the solver's multistarts.

The solver draws its random starts from a Philox generator keyed by
(seed, stream, substream); the Monte Carlo lab keys its own streams
(mclab._stream). Philox is counter based, so streams for different keys
are independent and a keyed stream can be recreated anywhere without
sharing state.
"""
from __future__ import annotations

import numpy as np

# stream id of the solver multistarts; keeps their keys apart from other streams
STREAM_SOLVER = 3


def stream(seed: int, stream_id: int = 0, substream: int = 0) -> np.random.Generator:
    """Return a generator for the (seed, stream_id, substream) key."""
    key = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
           np.uint64(((stream_id & 0xFFFFFFFF) << 32) | (substream & 0xFFFFFFFF)))
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
