"""Seeds of the library's random draws, and the library's one rule for an integer input.

An integer input (a node count, a sample size, a restart count, a seed
entry, an `ExperimentConfig` field, a node index) is a `numbers.Integral`
that is not a bool, checked by `_integer`: numpy integers pass, and 2.0,
True and "3" are rejected by name rather than truncated or parsed.

Every seeded entry point (`graphs.random_chain_graph`,
`sem.random_parameters`, `sem.sample`, and through them the experiments,
the searches and the CLI) passes its seed through `compose_seed`, so a
negative seed raises ValueError naming it rather than numpy's bare
message. The module sits below `graphs` and `sem` so both can import it.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable


def _integer(value, noun: str, positive: bool = False, error: type = ValueError) -> int:
    """`value` as an int, or `error` naming `noun` and the value unless it is an integer, and positive if asked.

    An integer is a `numbers.Integral` that is not a bool. The message is
    "<noun> must be an integer, got <value>", or "<noun> must be a positive
    integer, got <value>" when `positive` is set.
    """
    # isinstance(x, numbers.Integral) costs about 0.5 µs even for an int, and greedy search checks
    # ~100 node indices per problem: skipping it for a plain int raised greedy-data problems/s by
    # 2.4 % (10 of 10 paired runs, 2-core VM)
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{noun} must be {'a positive' if positive else 'an'} integer, got {value!r}")
        value = int(value)
    if positive and value < 1:
        raise error(f"{noun} must be a positive integer, got {value}")
    return value


def compose_seed(seed, *extra) -> list:
    """Derive an independent child seed deterministically from `seed`, a non-negative integer or a sequence of them.

    A sequence is any iterable but a string (a list, a tuple, a range, a
    numpy array). Every entry must be an integer (`_integer`), and a
    negative entry of `seed` raises ValueError naming the seed. The
    one-entry result [seed] draws the same stream as the bare integer seed.
    """
    entries = seed if isinstance(seed, Iterable) and not isinstance(seed, str) else [seed]
    base = [_integer(x, "seed") for x in entries]
    if any(x < 0 for x in base):
        raise ValueError(f"seed must be non-negative, got {seed}")
    return base + [_integer(x, "seed") for x in extra]
