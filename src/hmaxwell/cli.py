"""Command-line experiment runner.

Verbs: mesh-info, assemble, rank-sweep, block-svd, caccioppoli, helmholtz,
verify, each on the mesh of the unit cube [0, 1]^3, whose coordinates
compare to a tolerance of 1e-12. OPTIONS declares every option once:
parser, default and flag help. A JSON config file can set any option
(tolerances only there) and no other key; flags win over the file, the
file over defaults, and one parser reads both, so a non-integral integer
or a non-finite number is a config error from either.

Exit codes: 0 ok; 1 check failure (a failed check, or a numeric guard such
as dense_inverse's conditioning test); 2 config error (also an output
directory or artifact that cannot be written); 3 resource limit (arrays
over physical memory, a failed allocation, a full disk or quota on write).

Every verb runs with each loaded OpenBLAS on one thread; only the N x N
kernels widen (blas.kernel), and main restores the thread counts it found
however the verb ends.

Every run writes its artifacts into a per-experiment subdirectory of
--out together with a manifest (config echo, timings, size counters, the
N x N kernels' BLAS threads, peak RSS, file checksums).
Data files contain no wall-clock state, so a rerun with the same config
and seed reproduces them byte for byte.
"""

import argparse
import errno
import json
import os
import re
import resource
import sys
import time
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .blas import kernel_counts, threads
from .checks import (HARMONIC_CONSTRAINT_TOL, CheckResult, check_bound,
                     check_commuting, check_dual_biorthogonality,
                     check_dual_norm_scaling, check_exact_sequence,
                     check_gradient_kernel, check_gradient_part,
                     check_helmholtz, check_partition_tiles, check_symmetry,
                     check_transfer, default_tolerances, random_field)
from .cluster import (build_block_partition, build_cluster_tree,
                      partition_to_dict, sparsity_constant)
from .fem import (assemble_system, build_dof_map, discrete_gradient,
                  dual_basis, matrix_to_coordinate_text, sparse_operator)
from .harmonic import (Region, caccioppoli_ratio, constraint_residual,
                       default_pairs, harmonic_space, helmholtz_report)
from .hmatrix import far_mirrors, owned_svds
from .inverse_lab import SweepRow, dense_inverse, fit_decay, rank_sweep
from .mesh import (build_box_mesh, conformity_report, mesh_to_dict,
                   shape_regularity_constant)
from .report import RunManifest, svg_decay_plot, write_csv, write_json


class ConfigError(Exception):
    pass


def _int(value) -> int:
    """A decimal string, an int or an integral float, within int64; never a
    bool."""
    if isinstance(value, bool) or not (isinstance(value, str)
                                       or float(value).is_integer()):
        raise ValueError("not an integer")
    if not -2**63 <= (value := int(value)) < 2**63:
        raise ValueError("outside int64")
    return value


def _float(value) -> float:
    """A finite number, or a string that parses as one; never a bool."""
    if isinstance(value, bool) or not np.isfinite(value := float(value)):
        raise ValueError("not a finite number")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _name(value):
    """None, or one path component: no separator, and not . or .."""
    if value is not None and (os.path.basename(_text(value)) != value
                              or value in (".", "..")):
        raise ValueError("not a single path component")
    return value


def _ranks(value) -> list:
    """"1,2,4" or a list of integers."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    if not isinstance(value, list) or not value:
        raise ValueError("not a nonempty list or comma-separated string")
    return [_int(r) for r in value]


def _tolerances(value) -> dict:
    """Overrides of checks.default_tolerances, merged into them."""
    tol = default_tolerances()
    if not isinstance(value, dict):
        raise TypeError("not an object")
    if unknown := sorted(set(value) - set(tol)):
        raise ValueError(f"unknown tolerance key(s) {unknown}")
    return {**tol, **{key: _float(v) for key, v in value.items()}}


# name -> (parser, default, flag help); a help of None means the option is
# set only from the config file. Defaults go through the parser as well.
OPTIONS = {
    "n": (_int, 3, "subdivisions per axis"),
    "kappa_re": (_float, 1.0, "Re(kappa)"),
    "kappa_im": (_float, 0.0, "Im(kappa)"),
    "eta": (_float, 2.0, "admissibility parameter"),
    "n_leaf": (_int, 32, "cluster leaf size"),
    "ranks": (_ranks, "1,2,4,8,12,16,20", "comma-separated ranks"),
    "seed": (_int, 0, "RNG seed"),
    "out": (_text, "runs", "output root directory"),
    "name": (_name, None, "experiment subdirectory name"),
    "tolerances": (_tolerances, {}, None),
}


def load_config(args) -> dict:
    """Defaults, then the config file, then the flags, each value through
    its option's parser; then the range checks."""
    values = {key: default for key, (_, default, _) in OPTIONS.items()}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(file_cfg)
    values.update({key: flag for key in OPTIONS
                   if (flag := getattr(args, key, None)) is not None})
    cfg = {}
    for key, value in values.items():
        if key not in OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = OPTIONS[key][0](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {key} value {value!r}: {exc}") from None
    for bad, message in (
            (cfg["n"] < 1, "n must be >= 1"),
            (cfg["kappa_re"] == 0.0 and cfg["kappa_im"] == 0.0,
             "kappa must be nonzero"),
            (cfg["eta"] <= 0, "eta must be positive"),
            (cfg["n_leaf"] < 1, "n-leaf must be >= 1"),
            (any(r < 0 for r in cfg["ranks"]), "ranks must be nonnegative"),
            (cfg["seed"] < 0, "seed must be >= 0")):
        if bad:
            raise ConfigError(message)
    return cfg


class Runner:
    """Shared plumbing: output directory, phase timings, counters, manifest."""

    def __init__(self, verb: str, cfg: dict):
        self.cfg = cfg
        name = cfg["name"] or f"{verb.replace('-', '_')}-n{cfg['n']}"
        self.outdir = os.path.join(cfg["out"], name)
        try:
            os.makedirs(self.outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.outdir}: {exc}")
        self.manifest = RunManifest(
            command=verb, version=__version__, config=cfg,
            timestamp=datetime.now(timezone.utc).isoformat())
        self._t0 = time.perf_counter()
        self._phase = None

    def phase(self, name: str):
        now = time.perf_counter()
        if self._phase is not None:
            self.manifest.timings[self._phase] = round(now - self._t0, 6)
        self._phase, self._t0 = name, now

    def path(self, filename: str) -> str:
        return os.path.join(self.outdir, filename)

    def finish(self, *paths, system=None, partition=None) -> str:
        """Write the manifest, with counters: tets, N and nonzeros of A; far
        and near blocks, C_sp, depth and the far-block SVDs, one per owned
        far block; the BLAS threads of the N x N kernels, which a run with
        a partition ran at its N, and the peak RSS so far."""
        self.phase(None)
        counters = self.manifest.counters
        if system is not None:
            nnz = int(np.count_nonzero(sparse_operator(system).data))
            counters.update(n_tets=system.mesh.n_tets, N=system.n_dofs, nnz_A=nnz)
        if partition is not None:
            counters.update(n_far=len(partition.far), n_near=len(partition.near),
                            c_sp=sparsity_constant(partition),
                            depth=partition.tree.depth,
                            far_svds=partition.mirror.count(None))
        counters["blas_threads"] = (1 if partition is None else
                                    max(kernel_counts(partition.n_dofs), default=1))
        # ru_maxrss is in kilobytes on Linux
        counters["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        for p in paths:
            self.manifest.add_file(p, self.outdir)
        out = self.manifest.write(self.outdir)
        print(f"wrote {len(paths)} files + manifest to {self.outdir}")
        return out


def build_system(cfg: dict):
    """The Galerkin system on the configured mesh."""
    return assemble_system(build_box_mesh(cfg["n"]),
                           kappa=complex(cfg["kappa_re"], cfg["kappa_im"]))


def build_pipeline(cfg: dict, need_inverse: bool = False):
    """(mesh, system, cluster tree, block partition, dense inverse or None)."""
    system = build_system(cfg)
    tree = build_cluster_tree(system.mesh, system.dofmap, n_leaf=cfg["n_leaf"])
    partition = build_block_partition(tree, eta=cfg["eta"])
    binv = dense_inverse(sparse_operator(system), tree.perm) if need_inverse else None
    return system.mesh, system, tree, partition, binv


def verdict(results) -> int:
    """Print every check's line; exit code 0 when all pass, 1 otherwise."""
    for res in results:
        print(res.line())
    return 0 if all(res.passed for res in results) else 1


# verbs ----------------------------------------------------------------------

def cmd_mesh_info(run: Runner, cfg: dict) -> int:
    run.phase("build")
    mesh = build_box_mesh(cfg["n"])
    conf = conformity_report(mesh)
    info = {
        "n": mesh.n,
        "h": mesh.h,
        "n_vertices": mesh.n_vertices,
        "n_tets": mesh.n_tets,
        "n_edges": mesh.n_edges,
        "n_dofs": build_dof_map(mesh).n_dofs,
        "n_boundary_edges": int(mesh.boundary_edge.sum()),
        "shape_regularity": shape_regularity_constant(mesh),
        "conformity": conf,
    }
    for key in ("n", "h", "n_vertices", "n_tets", "n_edges", "n_dofs"):
        print(f"{key} = {info[key]}")
    run.phase("write")
    p1 = write_json(run.path("mesh_info.json"), info)
    p2 = write_json(run.path("mesh.json"), mesh_to_dict(mesh))
    run.finish(p1, p2)
    return 0


def cmd_assemble(run: Runner, cfg: dict) -> int:
    run.phase("assemble")
    system = build_system(cfg)
    run.phase("write")
    p1 = run.path("A.txt")
    with open(p1, "w", encoding="utf-8", newline="\n") as f:
        f.write(matrix_to_coordinate_text(sparse_operator(system)))
    meta = {
        "N": system.n_dofs,
        "kappa": {"re": cfg["kappa_re"], "im": cfg["kappa_im"]},
        "h": system.h,
        "n": system.mesh.n,
    }
    p2 = write_json(run.path("system.json"), meta)
    print(f"assembled N = {system.n_dofs}, h = {system.h:.6f}")
    run.finish(p1, p2, system=system)
    return 0


def cmd_rank_sweep(run: Runner, cfg: dict) -> int:
    run.phase("assemble")
    mesh, system, tree, partition, binv = build_pipeline(cfg, need_inverse=True)
    run.phase("sweep")
    rows = rank_sweep(binv, partition, cfg["ranks"], seed=cfg["seed"])
    run.phase("fit")
    fit = fit_decay([row.r for row in rows], [row.rel_err for row in rows])
    run.phase("write")
    p1 = write_csv(run.path("sweep.csv"), [f.name for f in fields(SweepRow)],
                   [astuple(row) for row in rows])
    p2 = write_json(run.path("fit.json"), {
        "fit": fit,
        "n": mesh.n,
        "N": system.n_dofs,
        "kappa": {"re": cfg["kappa_re"], "im": cfg["kappa_im"]},
        "eta": cfg["eta"],
        "n_leaf": cfg["n_leaf"],
        "seed": cfg["seed"],
        "c_sp": sparsity_constant(partition),
        "depth": partition.tree.depth,
    })
    p3 = svg_decay_plot(run.path("decay.svg"), [row.r for row in rows],
                        [row.rel_err for row in rows], fit)
    for row in rows:
        print(f"r = {row.r:3d}  rel_err = {row.rel_err:.6e}  "
              f"bound = {row.bound_value:.6e}")
    if not fit.skipped:
        print(f"root-exponential fit b = {fit.b:.4f}, "
              f"exponential fit q = {fit.q:.4f}")
    code = verdict([check_bound(rows, len(partition.far),
                                cfg["tolerances"]["bound_slack"])])
    run.finish(p1, p2, p3, system=system, partition=partition)
    return code


def cmd_block_svd(run: Runner, cfg: dict) -> int:
    run.phase("assemble")
    mesh, system, tree, partition, binv = build_pipeline(cfg, need_inverse=True)
    if not partition.far:
        print("no admissible blocks at this size; nothing to decompose")
        run.finish(system=system, partition=partition)
        return 0
    run.phase("svd")
    rank = max(cfg["ranks"])
    # a mirror reads its partner's sigma and fit; only owned blocks are SVD'd
    own = [i if j is None else j for i, j in enumerate(far_mirrors(binv, partition))]
    svds = dict(owned_svds(binv, partition, rank))
    fits = {i: fit_decay(np.arange(1, sv.size + 1), sv)
            for i, (_, sv, _) in svds.items()}
    blocks = [{"tau": t.id, "sigma": s.id, "rows": t.size, "cols": s.size,
               "sigma_head": svds[i][1][:8], "fit": fits[i]}
              for (t, s), i in zip(partition.far, own)]
    run.phase("write")
    big = max(range(len(blocks)),
              key=lambda i: min(blocks[i]["rows"], blocks[i]["cols"]))
    largest = {key: blocks[big][key] for key in ("tau", "sigma", "rows", "cols")}
    p1 = write_csv(run.path("block_sigmas.csv"), ["k", "sigma"],
                   list(enumerate(svds[own[big]][1])))
    p2 = write_json(run.path("blocks.json"), {
        "n": mesh.n,
        "N": system.n_dofs,
        "eta": cfg["eta"],
        "n_leaf": cfg["n_leaf"],
        "largest_block": largest,
        "blocks": blocks,
    })
    p3 = write_json(run.path("partition.json"), partition_to_dict(partition))
    # per owned block, X = U_k and Y = conj(V_k) Sigma_k, k = min(rank, dims),
    # each raveled row-major; a mirror's factors are its partner's transposed
    p4 = run.path("factors.npz")
    np.savez(p4, owned=np.fromiter(svds, dtype=np.int64),
             X=np.concatenate([u.ravel() for u, _, _ in svds.values()]),
             Y=np.concatenate([(vh.conj().T * sv[:vh.shape[0]]).ravel()
                               for _, sv, vh in svds.values()]))
    print(f"{len(blocks)} admissible blocks, largest "
          f"{largest['rows']}x{largest['cols']}, factors stored at rank {rank}")
    run.finish(p1, p2, p3, p4, system=system, partition=partition)
    return 0


def cmd_caccioppoli(run: Runner, cfg: dict) -> int:
    run.phase("assemble")
    system = build_system(cfg)
    run.phase("solve")
    out = {"n": system.mesh.n, "h": system.mesh.h, "pairs": {}}
    for label, pair in default_pairs().items():
        entry, region = {}, Region(system, pair.outer)
        inner = Region(system, pair.inner)
        for variant in ("curl", "grad"):
            space = harmonic_space(region, variant)
            res = caccioppoli_ratio(space, pair, inner)
            entry[variant] = {**asdict(res),
                              "constraint_residual": constraint_residual(space),
                              "n_constraints": int(space.constraint_rows.size)}
            print(f"{label}/{variant}: ratio = {res.ratio:.6e}, "
                  f"normalized = {res.normalized:.6e}, dim = {res.dim}")
        entry["geometry"] = asdict(pair)
        out["pairs"][label] = entry
    run.phase("write")
    p1 = write_json(run.path("caccioppoli.json"), out)
    run.finish(p1, system=system)
    return 0


def cmd_helmholtz(run: Runner, cfg: dict) -> int:
    run.phase("assemble")
    system = build_system(cfg)
    coeffs = random_field(system, cfg["seed"])
    run.phase("solve")
    out = {"n": system.mesh.n, "seed": cfg["seed"], "regions": {}}
    for label, pair in default_pairs().items():
        rep = helmholtz_report(Region(system, pair.outer), coeffs)
        rep = {k: v for k, v in rep.items() if k not in ("z", "p")}
        out["regions"][label] = rep
        print(f"{label}: orthogonality residual = "
              f"{rep['orthogonality_residual']:.3e}, Pythagoras defect = "
              f"{rep['pythagoras_defect']:.3e}")
    run.phase("write")
    p1 = write_json(run.path("helmholtz.json"), out)
    run.finish(p1, system=system)
    return 0


def cmd_verify(run: Runner, cfg: dict) -> int:
    tol = cfg["tolerances"]
    results = []
    run.phase("assemble")
    mesh, system, tree, partition, binv = build_pipeline(cfg, need_inverse=True)
    run.phase("structure")
    grad = discrete_gradient(system.nodal)
    results.append(check_symmetry(system))
    results.append(check_gradient_kernel(system, grad, tol["gradient_kernel"],
                                         seed=cfg["seed"]))
    results.append(check_partition_tiles(partition))
    run.phase("commuting")
    results.append(check_commuting(tol["commuting"], seed=cfg["seed"]))
    run.phase("dual basis")
    dual = dual_basis(system)
    results.append(check_dual_biorthogonality(system, dual, tol["biorthogonality"]))
    results.append(check_dual_norm_scaling(factor=tol["dual_norm_factor"]))
    run.phase("transfer")  # reads A^{-1}, which the sweep then consumes
    transfer = check_transfer(system, partition, binv, dual, tol["transfer"],
                              seed=cfg["seed"])
    run.phase("sweep")
    rows = rank_sweep(binv, partition, cfg["ranks"], seed=cfg["seed"])
    del binv  # now E_{r_max}, which no later phase reads: free it
    results += [check_bound(rows, len(partition.far), tol["bound_slack"]),
                transfer]
    run.phase("harmonic")
    pairs = default_pairs()
    regions = {label: Region(system, pair.outer) for label, pair in pairs.items()}
    results.extend(check_helmholtz(regions["interior"], tol["pythagoras"],
                                   tol["helmholtz_orthogonality"],
                                   seed=cfg["seed"]))
    spaces = {label: harmonic_space(region, "curl")
              for label, region in regions.items()}
    results.append(check_gradient_part(spaces["interior"], tol["gradient_part"]))
    for label, space in spaces.items():
        res = caccioppoli_ratio(space, pairs[label])
        cres = constraint_residual(space)
        results.append(CheckResult(
            f"harmonic space constraints ({label})",
            cres <= HARMONIC_CONSTRAINT_TOL, cres, HARMONIC_CONSTRAINT_TOL,
            f"dim {space.dim}, ratio {res.ratio:.3e}"))
    run.phase("exact sequence")
    results.append(check_exact_sequence(grad, regions["interior"],
                                        tol["exact_sequence"], seed=cfg["seed"]))
    run.phase("write")
    code = verdict(results)
    failures = [res.name for res in results if not res.passed]
    p1 = write_json(run.path("verify.json"), {
        "n": mesh.n,
        "N": system.n_dofs,
        "checks": results,
        "failures": failures,
        "passed": not failures,
    })
    run.finish(p1, system=system, partition=partition)
    if failures:
        print(f"{len(failures)} check(s) failed: " + "; ".join(failures))
    else:
        print("all checks passed")
    return code


COMMANDS = {
    "mesh-info": cmd_mesh_info,
    "assemble": cmd_assemble,
    "rank-sweep": cmd_rank_sweep,
    "block-svd": cmd_block_svd,
    "caccioppoli": cmd_caccioppoli,
    "helmholtz": cmd_helmholtz,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmaxwell",
        description="Edge-element Maxwell systems and blockwise low-rank "
                    "compression of their inverses.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    for verb in COMMANDS:
        p = sub.add_parser(verb)
        for key, (_, default, text) in OPTIONS.items():
            if text is not None:
                if default is not None:
                    text += f" (default {default})"
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        # a separate "-1e-05" is a value; argparse's pattern misses exponents
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.verb:
        parser.print_help()
        return 2
    try:
        with threads(1):  # blas.kernel widens the N x N kernels
            cfg = load_config(args)
            return COMMANDS[args.verb](Runner(args.verb, cfg), cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:  # reading the config raised ConfigError: a write
        full = exc.errno in (errno.ENOSPC, errno.EDQUOT)
        print(f"{'resource limit: ' if full else ''}cannot write output: {exc}",
              file=sys.stderr)
        return 3 if full else 2
    except ValueError as exc:
        # bad config raised ConfigError above: this is a numeric guard
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
