"""Named RNG sub-streams derived from a single base seed.

Every source of randomness in the pipeline pulls from its own named stream
so that, e.g., changing the negative-sampling ratio never perturbs parameter
initialization.
"""

import numpy as np

_STREAMS = {
    "init": 0,
    "sampling": 1,
    "shuffle": 2,
    "synth": 3,
}


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a generator for the named sub-stream of `seed`."""
    try:
        idx = _STREAMS[name]
    except KeyError:
        raise ValueError(f"unknown rng stream {name!r}") from None
    # the trailing 0 is part of every stream's entropy; dropping it would
    # change every stream, and with it every recorded run
    return np.random.default_rng(np.random.SeedSequence([seed, idx, 0]))
