"""Named, seedable random streams.

All randomness flows through PCG64 generators keyed by (seed, stream name,
extra keys). Instance generation and annealing draw from different streams,
so reusing one user seed for both never correlates them, and benchmark
instance seeds can be derived deterministically from a single base seed.
"""

from __future__ import annotations

import numpy as np

from .errors import check_integer

_STREAMS = {"instance": 1, "anneal": 2, "bench": 3}


def stream_seed_sequence(name: str, seed: int | None, *keys: int) -> np.random.SeedSequence:
    spawn = (_STREAMS[name], *(int(k) for k in keys))
    if seed is None:
        return np.random.SeedSequence(spawn_key=spawn)
    check_integer("seed", seed, 0)
    return np.random.SeedSequence(int(seed), spawn_key=spawn)


def stream_rng(name: str, seed: int | None, *keys: int) -> np.random.Generator:
    return np.random.default_rng(stream_seed_sequence(name, seed, *keys))


def derive_seed(name: str, seed: int | None, *keys: int) -> int:
    """Collapse a stream position into a plain integer seed (for records)."""
    state = stream_seed_sequence(name, seed, *keys).generate_state(1, np.uint64)
    return int(state[0])
