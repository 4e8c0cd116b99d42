"""Compute the sweep-n8 reference values once and write reference.json.

For each rank r of the sweep, the exact ||A^{-1} - B_H||_2 is taken from
LAPACK (numpy.linalg.norm(E, 2), all singular values of the dense residual
E), where B_H is the blockwise rank-r truncation built here from numpy
SVDs, not from the package's H-matrix code. ||A^{-1}||_2 comes the same
way, and A^{-1} from numpy.linalg.inv rather than the package's LU path.
Only the mesh, the system matrix and the block partition are taken from
the package: they define the problem being measured.

Run from the repository root (about two minutes and 1 GB at n=8):

    PYTHONPATH=src python3 bench/make_reference.py
"""

import json
import os
import sys

import numpy as np

from workloads import REFERENCE, SWEEP_ARGS, SWEEP_RANKS

from hmaxwell.cli import build_parser, build_pipeline, load_config


def sweep_reference() -> dict:
    cfg = load_config(build_parser().parse_args(["rank-sweep", *SWEEP_ARGS]))
    _, system, tree, partition, _ = build_pipeline(cfg)
    binv = np.linalg.inv(system.A)
    norm_binv = float(np.linalg.norm(binv, 2))
    svds = []
    counts = {}
    for t, s in partition.far:
        u, sv, vh = np.linalg.svd(binv[np.ix_(t.indices, s.indices)],
                                  full_matrices=False)
        svds.append((t.indices, s.indices, u, sv, vh))
        counts[("r", t.id)] = counts.get(("r", t.id), 0) + 1
        counts[("c", s.id)] = counts.get(("c", s.id), 0) + 1
    rows = []
    for r in sorted(int(tok) for tok in SWEEP_RANKS.split(",")):
        err = np.zeros_like(binv)
        sig_next = 0.0
        for rid, cid, u, sv, vh in svds:
            if r < sv.size:
                err[np.ix_(rid, cid)] = (u[:, r:] * sv[r:]) @ vh[r:]
                sig_next = max(sig_next, float(sv[r]))
        exact = float(np.linalg.norm(err, 2))
        rows.append({"r": r, "abs_exact": exact, "rel_exact": exact / norm_binv,
                     "max_block_sigma": sig_next})
        print(f"r = {r:3d}  exact rel = {exact / norm_binv:.12e}", flush=True)
    return {
        "N": int(system.n_dofs),
        "n_far": len(partition.far),
        "n_near": len(partition.near),
        "c_sp": max(counts.values()),
        "depth": int(tree.depth),
        "norm_binv": norm_binv,
        "ranks": rows,
    }


def main() -> int:
    ref = {"sweep-n8": sweep_reference(),
           "numpy": np.__version__}
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(REFERENCE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
