"""Seeds of the library's random draws, checked once.

Every seeded entry point (`graphs.random_chain_graph`,
`sem.random_parameters`, `sem.sample`, and through them the experiments,
the searches and the CLI) passes its seed through `compose_seed`, so a
negative seed raises ValueError naming it rather than numpy's bare
message. The module sits below `graphs` and `sem` so both can import it.
"""

from __future__ import annotations

import numpy as np


def compose_seed(seed, *extra) -> list:
    """Derive an independent child seed deterministically from `seed`, a non-negative integer or a sequence of them.

    A negative entry raises ValueError naming the seed. The one-entry
    result [seed] draws the same stream as the bare integer seed.
    """
    base = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(x) for x in seed]
    if any(x < 0 for x in base):
        raise ValueError(f"seed must be non-negative, got {seed}")
    return base + [int(x) for x in extra]
