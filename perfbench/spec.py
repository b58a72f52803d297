"""Workload definitions shared by the runner and its child processes.

Pure Python on purpose: the runner imports this module without importing
numpy or liftchar, so that it can refuse to start cleanly when the
library sources are missing.
"""

from __future__ import annotations

from itertools import product

DEFAULT_SEED = 1
# A claimed gain must also hold on this seed, which is not used while a
# change is being written.
HELDOUT_SEED = 90317

ALL_GROUPS = ("sigmas", "resolvent", "factorization", "minimal")

# Environment of every process that imports liftchar.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LIFTCHAR_THREADS": "1",
}

SETUP_REPEATS = 10  # half before the loop, half after it


def _grid(ds, dim_choices):
    return [(d, dims) for d in ds for dims in product(dim_choices, repeat=3)]


# Every scenario shape (d, (dim C, dim A, dim A')) appears a fixed number of
# times, so a seed changes only the matrix entries, never the mix of sizes.
# Each workload has an odd number of scenarios, and a run an odd number of
# passes, so the median latency is one sample of the middle scenario's cost
# class, not the mean of two samples at the edges of two classes.
WORKLOADS = {
    "battery-small": {
        # three d=1 shapes and all eight d=2 shapes: the median falls inside
        # the two close d=2 cost classes (1,2,1) and (2,1,1)
        "shapes": [(1, dims) for dims in ((1, 1, 1), (1, 2, 2), (2, 2, 2))]
                  + _grid((2,), (1, 2)),
        "degree": 5,
        "groups": ALL_GROUPS,
        "must_call_all_listed": True,
    },
    "fock-deep": {
        # all eight d=3 shapes, and (1,2,1) twice: four shapes cost within 4%
        # of each other, and the extra one puts the median in their middle
        "shapes": _grid((3,), (1, 2)) + [(3, (1, 2, 1))],
        "degree": 5,
        "groups": ("resolvent", "factorization", "minimal"),
        "must_not_call": ("ncfock.realized_norm",),
    },
}

# Nominal time of one untraced pass over a workload's scenarios on the
# reference machine.  It fixes how many passes a run of --seconds makes, so
# that every run and every commit collects the same number of samples.
PASS_S = 5.0


def passes_for(seconds: float) -> int:
    """Untraced passes a run of `seconds` makes: odd, and at least three."""
    return max(3, round(seconds / PASS_S)) | 1
