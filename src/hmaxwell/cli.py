"""Command-line experiment runner.

Verbs: mesh-info, assemble, rank-sweep, block-svd, caccioppoli, helmholtz,
commuting-check, dual-basis-check, verify. A JSON config file can set any
option; explicit flags win over the file, the file wins over defaults.

Exit codes: 0 ok; 1 check failure (a failed check, or a numeric guard such
as dense_inverse's conditioning test); 2 config error; 3 resource limit.

Every run writes its artifacts into a per-experiment subdirectory of
--out together with a manifest (config echo, timings, size counters, peak
RSS, file checksums).
Data files contain no wall-clock state, so a rerun with the same config
and seed reproduces them byte for byte.
"""

import argparse
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .checks import (CheckResult, check_bound, check_commuting,
                     check_dual_biorthogonality, check_dual_norm_scaling,
                     check_exact_sequence, check_gradient_kernel,
                     check_gradient_part, check_helmholtz,
                     check_partition_tiles, check_symmetry, check_transfer,
                     default_tolerances)
from .cluster import (build_block_partition, build_cluster_tree,
                      partition_to_dict)
from .fem import (assemble_system, build_dof_map, dual_basis, dual_norms,
                  matrix_to_coordinate_text)
from .harmonic import (caccioppoli_ratio, constraint_residual, default_pairs,
                       harmonic_space, helmholtz_report)
from .hmatrix import compress_dense, far_svds, hmatrix_manifest
from .inverse_lab import block_decay_report, dense_inverse, fit_decay, rank_sweep
from .mesh import (build_box_mesh, conformity_report, mesh_to_dict,
                   shape_regularity_constant)
from .report import RunManifest, svg_decay_plot, write_csv, write_json


class ConfigError(Exception):
    pass


class ResourceLimit(Exception):
    pass


DEFAULTS = {
    "n": 3,
    "length": 1.0,
    "kappa_re": 1.0,
    "kappa_im": 0.0,
    "eta": 2.0,
    "n_leaf": 32,
    "ranks": [1, 2, 4, 8, 12, 16, 20],
    "seed": 0,
    "out": "runs",
    "name": None,
    "dense_limit": 8000,
    "tolerances": {},
}


def parse_ranks(text):
    try:
        ranks = [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --ranks value {text!r}: {exc}") from None
    if not ranks:
        raise ConfigError("--ranks must list at least one rank")
    return ranks


def load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    cfg["tolerances"] = dict(default_tolerances())
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in file_cfg.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            if key == "ranks" and isinstance(val, str):
                val = parse_ranks(val)
            if key == "tolerances":
                if not isinstance(val, dict):
                    raise ConfigError("tolerances must be an object")
                unknown = sorted(set(val) - set(cfg["tolerances"]))
                if unknown:
                    raise ConfigError(f"unknown tolerance key(s) {unknown}")
                cfg["tolerances"].update(val)
            else:
                cfg[key] = val
    for key in ("n", "kappa_re", "kappa_im", "eta", "n_leaf", "seed",
                "out", "name", "dense_limit"):
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if getattr(args, "ranks", None) is not None:
        cfg["ranks"] = parse_ranks(args.ranks)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    try:
        cfg["n"] = int(cfg["n"])
        cfg["length"] = float(cfg["length"])
        cfg["kappa_re"] = float(cfg["kappa_re"])
        cfg["kappa_im"] = float(cfg["kappa_im"])
        cfg["eta"] = float(cfg["eta"])
        cfg["n_leaf"] = int(cfg["n_leaf"])
        cfg["seed"] = int(cfg["seed"])
        cfg["dense_limit"] = int(cfg["dense_limit"])
        cfg["ranks"] = [int(r) for r in cfg["ranks"]]
        cfg["tolerances"] = {k: float(v) for k, v in cfg["tolerances"].items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}")
    if cfg["n"] < 1:
        raise ConfigError("n must be >= 1")
    if cfg["length"] <= 0:
        raise ConfigError("length must be positive")
    if cfg["kappa_re"] == 0.0 and cfg["kappa_im"] == 0.0:
        raise ConfigError("kappa must be nonzero")
    if cfg["eta"] <= 0:
        raise ConfigError("eta must be positive")
    if cfg["n_leaf"] < 1:
        raise ConfigError("n-leaf must be >= 1")
    if any(r < 0 for r in cfg["ranks"]):
        raise ConfigError("ranks must be nonnegative")
    if cfg["dense_limit"] < 1:
        raise ConfigError("dense limit must be >= 1")


def kappa_of(cfg: dict):
    if cfg["kappa_im"] == 0.0:
        return cfg["kappa_re"]
    return complex(cfg["kappa_re"], cfg["kappa_im"])


class Runner:
    """Shared plumbing: output directory, phase timings, counters, manifest."""

    def __init__(self, verb: str, cfg: dict):
        self.cfg = cfg
        name = cfg["name"] or f"{verb.replace('-', '_')}-n{cfg['n']}"
        self.outdir = os.path.join(cfg["out"], name)
        os.makedirs(self.outdir, exist_ok=True)
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
        """Write the manifest, with counters: tets, N and nonzeros of the dense
        A, far and near blocks, and the process's peak RSS so far."""
        self.phase(None)
        counters = self.manifest.counters
        if system is not None:
            counters.update(n_tets=system.mesh.n_tets, N=system.n_dofs,
                            nnz_A=int(np.count_nonzero(system.A)))
        if partition is not None:
            counters.update(n_far=len(partition.far), n_near=len(partition.near))
        # ru_maxrss is in kilobytes on Linux
        counters["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        for p in paths:
            self.manifest.add_file(p, self.outdir)
        out = self.manifest.write(self.outdir)
        print(f"wrote {len(paths)} files + manifest to {self.outdir}")
        return out


def build_system(cfg: dict):
    """The assembled Galerkin system on the configured mesh."""
    return assemble_system(build_box_mesh(cfg["n"], cfg["length"]),
                           kappa=kappa_of(cfg))


def build_pipeline(cfg: dict, need_inverse: bool = False):
    """(mesh, system, cluster tree, block partition, dense inverse or None)."""
    system = build_system(cfg)
    mesh = system.mesh
    tree = build_cluster_tree(mesh, system.dofmap, n_leaf=cfg["n_leaf"])
    partition = build_block_partition(tree, eta=cfg["eta"])
    binv = None
    if need_inverse:
        if system.n_dofs > cfg["dense_limit"]:
            raise ResourceLimit(
                f"N = {system.n_dofs} exceeds the dense limit "
                f"{cfg['dense_limit']}; raise dense_limit or lower n")
        binv = dense_inverse(system.A)
    return mesh, system, tree, partition, binv


def verdict(results) -> int:
    """Print every check's line; exit code 0 when all pass, 1 otherwise."""
    for res in results:
        print(res.line())
    return 0 if all(res.passed for res in results) else 1


# verbs ----------------------------------------------------------------------

def cmd_mesh_info(cfg: dict) -> int:
    run = Runner("mesh-info", cfg)
    run.phase("build")
    mesh = build_box_mesh(cfg["n"], cfg["length"])
    conf = conformity_report(mesh)
    info = {
        "n": mesh.n,
        "length": mesh.length,
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


def cmd_assemble(cfg: dict) -> int:
    run = Runner("assemble", cfg)
    run.phase("assemble")
    system = build_system(cfg)
    run.phase("write")
    p1 = run.path("A.txt")
    with open(p1, "w", encoding="utf-8", newline="\n") as f:
        f.write(matrix_to_coordinate_text(system.A))
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


def cmd_rank_sweep(cfg: dict) -> int:
    run = Runner("rank-sweep", cfg)
    run.phase("assemble")
    mesh, system, tree, partition, binv = build_pipeline(cfg, need_inverse=True)
    run.phase("sweep")
    rows = rank_sweep(binv, partition, cfg["ranks"], seed=cfg["seed"])
    run.phase("fit")
    fit = fit_decay([row.r for row in rows], [row.rel_err for row in rows])
    run.phase("write")
    p1 = write_csv(run.path("sweep.csv"),
                   ["r", "abs_err", "fro_upper", "rel_err", "max_block_sigma",
                    "bound_value", "scalars", "converged"],
                   [(row.r, row.abs_err, row.fro_upper, row.rel_err,
                     row.max_block_sigma, row.bound_value, row.scalars,
                     row.converged) for row in rows])
    p2 = write_json(run.path("fit.json"), {
        "fit": fit,
        "n": mesh.n,
        "N": system.n_dofs,
        "kappa": {"re": cfg["kappa_re"], "im": cfg["kappa_im"]},
        "eta": cfg["eta"],
        "n_leaf": cfg["n_leaf"],
        "seed": cfg["seed"],
        "c_sp": rows[0].c_sp if rows else 0,
        "depth": rows[0].depth if rows else 0,
    })
    p3 = svg_decay_plot(run.path("decay.svg"), [row.r for row in rows],
                        [row.rel_err for row in rows], fit)
    for row in rows:
        print(f"r = {row.r:3d}  rel_err = {row.rel_err:.6e}  "
              f"bound = {row.bound_value:.6e}")
    if not fit.skipped:
        print(f"root-exponential fit b = {fit.b:.4f}, "
              f"exponential fit q = {fit.q:.4f}")
    code = verdict([check_bound(rows, cfg["tolerances"]["bound_slack"])])
    run.finish(p1, p2, p3, system=system, partition=partition)
    return code


def cmd_block_svd(cfg: dict) -> int:
    run = Runner("block-svd", cfg)
    run.phase("assemble")
    mesh, system, tree, partition, binv = build_pipeline(cfg, need_inverse=True)
    if not partition.far:
        print("no admissible blocks at this size; nothing to decompose")
        run.finish(system=system, partition=partition)
        return 0
    run.phase("svd")
    rank = max(cfg["ranks"])
    svds = far_svds(binv, partition, rank)
    report = block_decay_report(partition, svds)
    h = compress_dense(binv, partition, rank, svds)
    run.phase("write")
    largest = max(report, key=lambda d: min(d["rows"], d["cols"]))
    p1 = write_csv(run.path("block_sigmas.csv"),
                   ["k", "sigma"],
                   list(enumerate(largest["singular_values"])))
    p2 = write_json(run.path("blocks.json"), {
        "n": mesh.n,
        "N": system.n_dofs,
        "eta": cfg["eta"],
        "n_leaf": cfg["n_leaf"],
        "largest_block": {"tau": largest["tau"], "sigma": largest["sigma"],
                          "rows": largest["rows"], "cols": largest["cols"]},
        "blocks": [{
            "tau": d["tau"], "sigma": d["sigma"],
            "rows": d["rows"], "cols": d["cols"],
            "sigma_head": d["singular_values"][:8],
            "fit": d["fit"],
        } for d in report],
    })
    p3 = write_json(run.path("hmatrix.json"), hmatrix_manifest(h))
    p4 = write_json(run.path("partition.json"), partition_to_dict(partition))
    paths = [p1, p2, p3, p4]
    for i, blk in enumerate(h.far):
        px, py = run.path(f"block{i:03d}_X.npy"), run.path(f"block{i:03d}_Y.npy")
        np.save(px, blk.X)
        np.save(py, blk.Y)
        paths.extend([px, py])
    print(f"{len(report)} admissible blocks, largest "
          f"{largest['rows']}x{largest['cols']}, factors stored at rank {rank}")
    run.finish(*paths, system=system, partition=partition)
    return 0


def cmd_caccioppoli(cfg: dict) -> int:
    run = Runner("caccioppoli", cfg)
    run.phase("assemble")
    system = build_system(cfg)
    run.phase("solve")
    out = {"n": system.mesh.n, "h": system.mesh.h, "pairs": {}}
    for label, pair in default_pairs().items():
        entry = {}
        for variant in ("curl", "grad"):
            space = harmonic_space(system, pair.outer, variant)
            res = caccioppoli_ratio(space, pair)
            entry[variant] = {
                "ratio": res.ratio,
                "normalized": res.normalized,
                "dim": res.dim,
                "n_inner_tets": res.n_inner_tets,
                "n_outer_tets": res.n_outer_tets,
                "hypothesis_satisfied": res.hypothesis_satisfied,
                "constraint_residual": constraint_residual(space),
                "n_constraints": int(space.constraint_rows.size),
            }
            print(f"{label}/{variant}: ratio = {res.ratio:.6e}, "
                  f"normalized = {res.normalized:.6e}, dim = {res.dim}")
        entry["geometry"] = {"center": list(pair.center), "r": pair.r,
                             "eps": pair.eps}
        out["pairs"][label] = entry
    run.phase("write")
    p1 = write_json(run.path("caccioppoli.json"), out)
    run.finish(p1, system=system)
    return 0


def cmd_helmholtz(cfg: dict) -> int:
    run = Runner("helmholtz", cfg)
    run.phase("assemble")
    system = build_system(cfg)
    rng = np.random.default_rng(cfg["seed"])
    coeffs = rng.standard_normal(system.n_dofs)
    if np.iscomplexobj(system.A):
        coeffs = coeffs + 1j * rng.standard_normal(system.n_dofs)
    run.phase("solve")
    out = {"n": system.mesh.n, "seed": cfg["seed"], "regions": {}}
    for label, pair in default_pairs().items():
        rep = helmholtz_report(system, pair.outer, coeffs)
        rep = {k: v for k, v in rep.items() if k not in ("z", "p")}
        out["regions"][label] = rep
        print(f"{label}: orthogonality residual = "
              f"{rep['orthogonality_residual']:.3e}, Pythagoras defect = "
              f"{rep['pythagoras_defect']:.3e}")
    run.phase("write")
    p1 = write_json(run.path("helmholtz.json"), out)
    run.finish(p1, system=system)
    return 0


def cmd_commuting_check(cfg: dict) -> int:
    run = Runner("commuting-check", cfg)
    run.phase("check")
    res = check_commuting(tol=cfg["tolerances"]["commuting"], seed=cfg["seed"])
    code = verdict([res])
    run.phase("write")
    p1 = write_json(run.path("commuting.json"), res)
    run.finish(p1)
    return code


def cmd_dual_basis_check(cfg: dict) -> int:
    run = Runner("dual-basis-check", cfg)
    run.phase("assemble")
    system = build_system(cfg)
    run.phase("check")
    bio = check_dual_biorthogonality(system,
                                     tol=cfg["tolerances"]["biorthogonality"])
    scaling = check_dual_norm_scaling(factor=cfg["tolerances"]["dual_norm_factor"])
    norms = dual_norms(system, dual_basis(system))
    code = verdict([bio, scaling])
    run.phase("write")
    p1 = write_json(run.path("dual_basis.json"), {
        "n": system.mesh.n,
        "biorthogonality": bio,
        "norm_scaling": scaling,
        "max_norm": float(norms.max()),
        "min_norm": float(norms.min()),
    })
    run.finish(p1, system=system)
    return code


def cmd_verify(cfg: dict) -> int:
    run = Runner("verify", cfg)
    tol = cfg["tolerances"]
    results = []
    run.phase("assemble")
    mesh, system, tree, partition, binv = build_pipeline(cfg, need_inverse=True)
    run.phase("structure")
    results.append(check_symmetry(system))
    results.append(check_gradient_kernel(system, tol["gradient_kernel"],
                                         seed=cfg["seed"]))
    results.append(check_partition_tiles(partition))
    run.phase("commuting")
    results.append(check_commuting(tol["commuting"], seed=cfg["seed"]))
    run.phase("dual basis")
    results.append(check_dual_biorthogonality(system, tol["biorthogonality"]))
    results.append(check_dual_norm_scaling(factor=tol["dual_norm_factor"]))
    run.phase("sweep")
    rows = rank_sweep(binv, partition, cfg["ranks"], seed=cfg["seed"])
    results.append(check_bound(rows, tol["bound_slack"]))
    run.phase("transfer")
    results.append(check_transfer(system, partition, binv, tol["transfer"],
                                  seed=cfg["seed"]))
    run.phase("harmonic")
    pairs = default_pairs()
    interior = pairs["interior"].outer
    ortho, pyth = check_helmholtz(system, interior, tol["pythagoras"],
                                  tol["helmholtz_orthogonality"],
                                  seed=cfg["seed"])
    results.extend([ortho, pyth])
    results.append(check_gradient_part(system, interior, tol["gradient_part"]))
    for label, pair in pairs.items():
        space = harmonic_space(system, pair.outer, "curl")
        res = caccioppoli_ratio(space, pair)
        cres = constraint_residual(space)
        results.append(CheckResult(
            f"harmonic space constraints ({label})", cres <= 1e-10, cres,
            1e-10, f"dim {space.dim}, ratio {res.ratio:.3e}"))
    run.phase("exact sequence")
    results.append(check_exact_sequence(system, interior,
                                        tol["exact_sequence"],
                                        seed=cfg["seed"]))
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
    "commuting-check": cmd_commuting_check,
    "dual-basis-check": cmd_dual_basis_check,
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
        p.add_argument("--n", type=int, default=None,
                       help=f"subdivisions per axis (default {DEFAULTS['n']})")
        p.add_argument("--kappa-re", dest="kappa_re", type=float, default=None,
                       help="Re(kappa) (default 1.0)")
        p.add_argument("--kappa-im", dest="kappa_im", type=float, default=None,
                       help="Im(kappa) (default 0.0)")
        p.add_argument("--eta", type=float, default=None,
                       help="admissibility parameter (default 2.0)")
        p.add_argument("--n-leaf", dest="n_leaf", type=int, default=None,
                       help="cluster leaf size (default 32)")
        p.add_argument("--ranks", type=str, default=None,
                       help="comma-separated ranks (default 1,2,4,8,12,16,20)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default 0)")
        p.add_argument("--out", type=str, default=None,
                       help="output root directory (default runs)")
        p.add_argument("--name", type=str, default=None,
                       help="experiment subdirectory name")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override it")
        p.add_argument("--dense-limit", dest="dense_limit", type=int,
                       default=None,
                       help="max N for dense inversion (default 8000)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.verb:
        parser.print_help()
        return 2
    try:
        cfg = load_config(args)
        return COMMANDS[args.verb](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # bad config raised ConfigError above: this is a numeric guard
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
