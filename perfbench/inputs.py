"""Write a workload's seeded scenario files and record their sizes.

    python perfbench/inputs.py <workload> <seed> <outdir>

Runs before any timed process.  Each scenario is a two-level lifting drawn
by liftchar.gen from its own generator, seeded by (seed, scenario index), so
the same seed always gives the same files.  Writes scenario-NNN.json files
and sizes.json into <outdir>.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from spec import WORKLOADS

from liftchar.charfact import lifting_char_fn, row_char_fn
from liftchar.cli import mat_to_json
from liftchar.gen import random_iterated_lifting
from liftchar.ncfock import fock_basis


def scenario_doc(scen_id: str, seed: int, degree: int, it) -> dict:
    first, second = it.first, it.second
    return {
        "schema": 1,
        "id": scen_id,
        "seed": seed,
        "d": first.d,
        "degree": degree,
        "tolerance": 1e-8,
        "C": [mat_to_json(m) for m in first.C.ops],
        "A": [mat_to_json(m) for m in first.A.ops],
        "B": [mat_to_json(m) for m in first.B],
        "Aprime": [mat_to_json(m) for m in second.A.ops],
        "Bprime": [mat_to_json(m) for m in second.B],
    }


def scenario_sizes(it, d: int, dims, degree: int) -> dict:
    """Problem sizes of one scenario, computed outside any timed run."""
    first, second = it.first, it.second
    lift_c = it.as_c_lifting
    ranks = {
        "C": first.dC.rank, "C*": first.dstarC.rank,
        "A": first.dA.rank, "A*": first.dstarA.rank,
        "E": first.dE.rank, "E*": first.dstarE.rank,
        "Aprime": second.dA.rank, "Aprime*": second.dstarA.rank,
        "Eprime": second.dE.rank, "Eprime*": second.dstarE.rank,
        "Ahat": lift_c.dA.rank, "Ahat*": lift_c.dstarA.rank,
    }
    fns = {
        "M_A": row_char_fn(first.A, degree),
        "M_CE": lifting_char_fn(first, degree),
        "M_Aprime": row_char_fn(second.A, degree),
        "M_EEprime": lifting_char_fn(second, degree),
        "M_CEprime": lifting_char_fn(lift_c, degree),
    }
    words = len(fock_basis(d, degree))
    return {
        "d": d,
        "N": degree,
        "dims": list(dims),
        "words": words,
        "defect_ranks": ranks,
        "coeff_entries": {k: sum(m.size for m in f.op.coeffs.values()) for k, f in fns.items()},
        # side of the dense realization the sigmas group builds for each symbol
        "realized_side_max": max(words * max(f.op.dom.dim, f.op.cod.dim)
                                 for f in fns.values()),
    }


def main(argv: list[str]) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    spec = WORKLOADS[workload]
    os.makedirs(outdir, exist_ok=True)
    sizes = []
    for idx, (d, dims) in enumerate(spec["shapes"]):
        rng = np.random.default_rng([seed, idx])
        it = random_iterated_lifting(rng, d, dims)
        scen_id = f"{workload}-{seed}-{idx:03d}"
        with open(os.path.join(outdir, f"scenario-{idx:03d}.json"), "w") as fh:
            json.dump(scenario_doc(scen_id, seed, spec["degree"], it), fh)
        sizes.append({"id": scen_id, **scenario_sizes(it, d, dims, spec["degree"])})
    with open(os.path.join(outdir, "sizes.json"), "w") as fh:
        json.dump(sizes, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
