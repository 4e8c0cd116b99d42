"""End-to-end runs of the command line driver.

Most tests call main(argv) in process so exit codes and outputs are easy
to inspect; one test goes through `python3 -m hmaxwell` to cover the real
entry point.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from hmaxwell import (assemble_system, build_block_partition, build_box_mesh,
                      build_cluster_tree, checks, cli, fem, harmonic,
                      sparsity_constant)
from hmaxwell.cli import OPTIONS, build_parser, build_pipeline, load_config, main

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*argv):
    return main(list(argv))


def test_no_verb_prints_help_and_exits_2(capsys):
    assert run_cli() == 2
    assert "verb" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    """`python -m hmaxwell` runs with the imported package first on the
    path, whether or not PYTHONPATH is set."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hmaxwell", "mesh-info", "--n", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "n_dofs = 1" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "hmaxwell", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0


def test_mesh_info_artifacts(tmp_path):
    assert run_cli("mesh-info", "--n", "2", "--out", str(tmp_path),
                   "--name", "m2") == 0
    outdir = tmp_path / "m2"
    info = json.loads((outdir / "mesh_info.json").read_text())
    assert info["n_dofs"] == 26
    assert info["n_tets"] == 48
    assert info["conformity"] == {"interior_faces": 72, "boundary_faces": 48}
    man = json.loads((outdir / "manifest.json").read_text())
    assert {f["path"] for f in man["files"]} == {"mesh_info.json", "mesh.json"}


def test_assemble_writes_coordinate_text(tmp_path):
    assert run_cli("assemble", "--n", "2", "--out", str(tmp_path),
                   "--name", "a2") == 0
    lines = (tmp_path / "a2" / "A.txt").read_text().splitlines()
    i, j, re, im = lines[0].split()
    assert (int(i), int(j)) == (0, 0)
    float(re), float(im)
    # only the nonzeros are written, and they rebuild A bitwise
    a = assemble_system(build_box_mesh(2)).A
    assert len(lines) == np.count_nonzero(a)
    back = np.zeros_like(a)
    for ln in lines:
        i, j, re, im = ln.split()
        back[int(i), int(j)] = float(re)
        assert float(im) == 0.0
    assert np.array_equal(back, a)


# config handling ------------------------------------------------------------

def test_zero_kappa_is_config_error(tmp_path, capsys):
    code = run_cli("assemble", "--n", "2", "--kappa-re", "0.0",
                   "--kappa-im", "0.0", "--out", str(tmp_path))
    assert code == 2
    assert "kappa" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "leaf_size": 16}))
    code = run_cli("mesh-info", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "leaf_size" in capsys.readouterr().err


def test_bad_ranks_string_rejected(tmp_path, capsys):
    code = run_cli("rank-sweep", "--n", "2", "--ranks", "1,two",
                   "--out", str(tmp_path))
    assert code == 2
    assert "ranks" in capsys.readouterr().err


def test_non_numeric_tolerance_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"commuting": "tight"}}))
    code = run_cli("commuting-check", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_misspelt_tolerance_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"comuting": 1e-30}}))
    code = run_cli("commuting-check", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "comuting" in err


def test_symmetry_tolerance_is_unknown(tmp_path, capsys):
    """The symmetry check is exact and reads no tolerance, so a config
    that sets one is refused rather than silently ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"symmetry": 1.0}}))
    code = run_cli("verify", "--n", "2", "--config", str(cfg),
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown tolerance key" in err and "symmetry" in err


BAD_VALUES = [
    ("mesh-info", {"n": 2.7}),
    ("mesh-info", {"n": True}),
    ("rank-sweep", {"ranks": [1.5, 2]}),
    ("mesh-info", {"name": 5}),
    ("mesh-info", {"out": 3}),
    ("mesh-info", {"length": "nan"}),
    ("commuting-check", {"tolerances": {"commuting": "nan"}}),
    ("assemble", ["--kappa-re", "nan"]),
    ("rank-sweep", ["--kappa-re", "inf"]),
    ("rank-sweep", ["--eta", "nan"]),
    ("verify", {"seed": -1}),
    ("rank-sweep", ["--seed", "-1"]),
    ("assemble", ["--name", "../x"]),
    ("mesh-info", {"name": ".."}),
]


@pytest.mark.parametrize("verb, value", BAD_VALUES,
                         ids=[json.dumps(v) for _, v in BAD_VALUES])
def test_bad_value_is_config_error(tmp_path, monkeypatch, capsys, verb, value):
    """File values and flag values go through one parser: a non-integral or
    bool integer, a non-string name or one that is not a single path
    component, a non-finite number and a negative seed all exit 2 before
    anything is written."""
    monkeypatch.chdir(tmp_path)
    argv = [verb, "--n", "2"]
    if isinstance(value, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(value))
        argv = [verb, "--config", "cfg.json"]
    else:
        argv += value
    before = sorted(os.listdir(tmp_path))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


def test_negative_exponent_value_is_a_value(tmp_path):
    """A separate "-1e-05" after a flag is its value, not a flag."""
    assert run_cli("assemble", "--n", "1", "--kappa-im", "-1e-05",
                   "--out", str(tmp_path), "--name", "neg") == 0
    meta = json.loads((tmp_path / "neg" / "system.json").read_text())
    assert meta["kappa"]["im"] == -1e-05


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "seed": 5}))
    assert run_cli("mesh-info", "--config", str(cfg), "--n", "2",
                   "--out", str(tmp_path), "--name", "ov") == 0
    info = json.loads((tmp_path / "ov" / "mesh_info.json").read_text())
    assert info["n"] == 2
    man = json.loads((tmp_path / "ov" / "manifest.json").read_text())
    assert man["config"]["seed"] == 5


def test_dense_limit_exceeded_exits_3(tmp_path, capsys):
    code = run_cli("rank-sweep", "--n", "3", "--dense-limit", "100",
                   "--out", str(tmp_path))
    assert code == 3
    assert "limit" in capsys.readouterr().err


def test_tampered_tolerance_fails_check(tmp_path):
    # an impossible tolerance from the config file must surface as exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"commuting": 1e-30}}))
    assert run_cli("commuting-check", "--config", str(cfg),
                   "--out", str(tmp_path), "--name", "t") == 1
    payload = json.loads((tmp_path / "t" / "commuting.json").read_text())
    assert payload["passed"] is False


def test_numeric_guard_is_check_failure(tmp_path, capsys):
    """kappa at a discrete eigenvalue is a valid config whose system is
    singular: dense_inverse's guard reports it as a check failure."""
    sysm = assemble_system(build_box_mesh(2))
    w = eigh(sysm.K.toarray(), sysm.M.toarray(), eigvals_only=True)
    bad = float(w[np.argmax(w > 1e-8)])  # smallest nonzero pencil eigenvalue
    code = run_cli("rank-sweep", "--n", "2", "--kappa-re", repr(bad),
                   "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert "ill-conditioned" in err
    assert "config error" not in err


def test_rank_sweep_bound_violation_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"bound_slack": -0.9999}}))
    code = run_cli("rank-sweep", "--n", "2", "--n-leaf", "8", "--ranks", "1,2,4",
                   "--config", str(cfg), "--out", str(tmp_path), "--name", "rs")
    assert code == 1
    assert "FAIL block-to-global spectral bound" in capsys.readouterr().out
    for fname in ("sweep.csv", "fit.json", "manifest.json"):
        assert (tmp_path / "rs" / fname).exists()


def test_svd_failure_is_check_failure(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken)
    code = run_cli("rank-sweep", "--n", "2", "--n-leaf", "8", "--ranks", "1,2,4",
                   "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert "check failure: SVD failed on far block (" in err


# experiment verbs ------------------------------------------------------------

def test_rank_sweep_artifacts(tmp_path):
    assert run_cli("rank-sweep", "--n", "2", "--n-leaf", "8",
                   "--ranks", "1,2,4", "--out", str(tmp_path),
                   "--name", "rs") == 0
    outdir = tmp_path / "rs"
    for fname in ("sweep.csv", "fit.json", "decay.svg", "manifest.json"):
        assert (outdir / fname).exists()
    rows = (outdir / "sweep.csv").read_text().splitlines()
    assert rows[0] == ("r,abs_err,fro_upper,rel_err,max_block_sigma,"
                       "bound_value,scalars,converged")
    assert len(rows) == 4
    system = assemble_system(build_box_mesh(2))
    partition = build_block_partition(
        build_cluster_tree(system.mesh, system.dofmap, n_leaf=8), eta=2.0)
    fit = json.loads((outdir / "fit.json").read_text())
    assert partition.far
    assert fit["c_sp"] == sparsity_constant(partition)
    assert fit["depth"] == partition.tree.depth
    assert all(row.split(",")[-1] == "true" for row in rows[1:])
    for row in rows[1:]:
        abs_err, fro_upper = map(float, row.split(",")[1:3])
        assert abs_err <= fro_upper


def test_caccioppoli_and_helmholtz_run(tmp_path):
    assert run_cli("caccioppoli", "--n", "4", "--out", str(tmp_path),
                   "--name", "c") == 0
    cac = json.loads((tmp_path / "c" / "caccioppoli.json").read_text())
    assert set(cac["pairs"]) == {"interior", "boundary"}
    assert set(cac["pairs"]["interior"]) == {"curl", "grad", "geometry"}
    for entry in cac["pairs"].values():
        for variant in ("curl", "grad"):
            assert set(entry[variant]) == {
                "ratio", "normalized", "dim", "n_inner_tets", "n_outer_tets",
                "hypothesis_satisfied", "constraint_residual", "n_constraints"}
        assert set(entry["geometry"]) == {"center", "r", "eps"}
    assert cac["pairs"]["interior"]["geometry"] == {
        "center": [0.5, 0.5, 0.5], "r": 0.4, "eps": 0.5}
    assert run_cli("helmholtz", "--n", "3", "--out", str(tmp_path),
                   "--name", "h") == 0
    hel = json.loads((tmp_path / "h" / "helmholtz.json").read_text())
    assert hel["regions"]["interior"]["pythagoras_defect"] <= 1e-10


def test_dual_basis_check_passes(tmp_path):
    assert run_cli("dual-basis-check", "--n", "2", "--out", str(tmp_path),
                   "--name", "d") == 0


def test_runs_that_never_invert_never_form_a(tmp_path, monkeypatch):
    """The local-theory verbs read K, M and kappa only, and a rank sweep
    over the dense limit (n = 12, N = 10,836) is refused before the 940 MB
    dense A exists: no read of A, and a small traced peak."""
    def refuse(system):
        raise AssertionError("dense A formed")
    monkeypatch.setattr(fem.GalerkinSystem, "A", property(refuse))
    for verb in ("caccioppoli", "helmholtz", "dual-basis-check"):
        assert run_cli(verb, "--n", "3", "--out", str(tmp_path)) == 0, verb
    tracemalloc.start()
    try:
        code = run_cli("rank-sweep", "--n", "12", "--out", str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 200e6


@pytest.mark.parametrize("argv", [
    pytest.param(["rank-sweep", "--n", "4"], id="rank-sweep"),
    pytest.param(["block-svd", "--n", "4"], id="block-svd"),
    pytest.param(["mesh-info", "--n", "3"], id="mesh-info"),
    pytest.param(["assemble", "--n", "3"], id="assemble"),
    pytest.param(["assemble", "--n", "3", "--kappa-im", "0.5"],
                 id="assemble-complex"),
    pytest.param(["caccioppoli", "--n", "3"], id="caccioppoli"),
    pytest.param(["helmholtz", "--n", "3"], id="helmholtz"),
    pytest.param(["commuting-check", "--n", "3"], id="commuting-check"),
    pytest.param(["dual-basis-check", "--n", "3"], id="dual-basis-check"),
    pytest.param(["verify", "--n", "3", "--n-leaf", "16"], id="verify"),
    pytest.param(["verify", "--n", "3", "--n-leaf", "16", "--kappa-im", "0.5"],
                 id="verify-complex"),
])
def test_inverting_runs_never_form_a(tmp_path, monkeypatch, argv):
    """No verb reads the dense A: the inverse is formed from the sparse
    K - kappa M in leaf order, and the symmetry check, the coordinate dump
    and the transfer solves all work on that CSR operator."""
    def refuse(system):
        raise AssertionError("dense A formed")
    monkeypatch.setattr(fem.GalerkinSystem, "A", property(refuse))
    assert run_cli(*argv, "--out", str(tmp_path)) == 0


def test_verify_passes_end_to_end(tmp_path, capsys):
    assert run_cli("verify", "--n", "3", "--n-leaf", "16",
                   "--ranks", "1,2,4", "--out", str(tmp_path),
                   "--name", "v") == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
    payload = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["failures"] == []


def test_verify_builds_the_gradient_once(tmp_path, monkeypatch):
    """verify builds the whole-mesh nodal space and its gradient once and
    hands G to both checks that use it."""
    calls = Counter()
    for name in ("build_nodal_space", "discrete_gradient"):
        def counted(*args, _fn=getattr(fem, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (fem, checks, cli, harmonic):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert run_cli("verify", "--n", "2", "--out", str(tmp_path)) == 0
    assert calls == {"build_nodal_space": 1, "discrete_gradient": 1}


def test_verify_without_interior_vertex(tmp_path):
    """At n = 1 no vertex is interior, so there is no discrete gradient: the
    checks that need one measure 0.0 and say so, with no 0/0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("verify", "--n", "1", "--out", str(tmp_path),
                       "--name", "v1") == 0
    assert run_cli("verify", "--n", "2", "--n-leaf", "8", "--ranks", "1,2",
                   "--out", str(tmp_path), "--name", "v2") == 0
    checks = json.loads((tmp_path / "v1" / "verify.json").read_text())["checks"]
    ref = json.loads((tmp_path / "v2" / "verify.json").read_text())["checks"]
    assert [c["name"] for c in checks] == [c["name"] for c in ref]
    assert len(checks) == 14
    assert all(np.isfinite(c["measured"]) for c in checks)
    empty = [c["name"] for c in checks
             if c["detail"] == "no discrete gradient to test"]
    assert empty == ["discrete gradients lie in the curl kernel",
                     "local exact sequence recovery"]


def test_block_svd_stores_factors(tmp_path):
    assert run_cli("block-svd", "--n", "3", "--n-leaf", "16",
                   "--ranks", "1,2,4", "--out", str(tmp_path),
                   "--name", "b") == 0
    outdir = tmp_path / "b"
    blocks = json.loads((outdir / "blocks.json").read_text())
    assert blocks["blocks"], "expected admissible blocks at this size"
    assert (outdir / "block000_X.npy").exists()
    assert (outdir / "block000_Y.npy").exists()
    for blk in blocks["blocks"]:
        assert set(blk) == {"tau", "sigma", "rows", "cols", "sigma_head", "fit"}
        assert len(blk["sigma_head"]) == min(8, blk["rows"], blk["cols"])
    # the first block with the largest min(rows, cols)
    sizes = [min(blk["rows"], blk["cols"]) for blk in blocks["blocks"]]
    first = blocks["blocks"][sizes.index(max(sizes))]
    assert blocks["largest_block"] == {key: first[key]
                                       for key in ("tau", "sigma", "rows", "cols")}
    system = assemble_system(build_box_mesh(3))
    tree = build_cluster_tree(system.mesh, system.dofmap, n_leaf=16)
    tau, sigma = (tree.clusters[first[key]].indices for key in ("tau", "sigma"))
    want = np.linalg.svd(np.linalg.inv(system.A)[np.ix_(tau, sigma)],
                         compute_uv=False)
    table = (outdir / "block_sigmas.csv").read_text().splitlines()
    assert table[0] == "k,sigma"
    got = np.array([float(line.split(",")[1]) for line in table[1:]])
    assert [int(line.split(",")[0]) for line in table[1:]] == list(range(want.size))
    assert np.abs(got - want).max() <= 1e-12 * want[0]


def test_no_far_blocks_is_reported_as_such(tmp_path, capsys):
    """At n = 3 and the default leaf size no block is admissible: the bound
    check says it had nothing to bound, and verify still writes 14 checks."""
    assert run_cli("rank-sweep", "--n", "3", "--out", str(tmp_path)) == 0
    assert ("PASS block-to-global spectral bound: measured 0.000e+00, "
            "tolerance 1.000e+00 (no far blocks to bound)"
            in capsys.readouterr().out.splitlines())
    assert run_cli("verify", "--n", "3", "--out", str(tmp_path),
                   "--name", "v") == 0
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]
    assert len(checks) == 14
    bound = [c for c in checks if c["name"] == "block-to-global spectral bound"]
    assert [c["detail"] for c in bound] == ["no far blocks to bound"]
    assert run_cli("rank-sweep", "--n", "2", "--n-leaf", "8", "--ranks",
                   "1,2,4", "--out", str(tmp_path)) == 0
    assert any(line.startswith("PASS block-to-global spectral bound")
               and line.endswith("(3 ranks)")
               for line in capsys.readouterr().out.splitlines())


# determinism ------------------------------------------------------------------

RERUN_ARGV = {
    "rank-sweep": ["--n", "2", "--n-leaf", "8", "--ranks", "1,2,4"],
    "block-svd": ["--n", "2", "--n-leaf", "8", "--ranks", "1,2,4"],
    "caccioppoli": ["--n", "3"],
    "helmholtz": ["--n", "3", "--kappa-im", "0.5"],
    "verify": ["--n", "2", "--n-leaf", "8", "--ranks", "1,2,4"],
}


@pytest.mark.parametrize("verb", list(RERUN_ARGV))
def test_rerun_is_byte_identical(tmp_path, verb):
    argv = [verb, *RERUN_ARGV[verb], "--seed", "0", "--name", "same"]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    assert main(argv + ["--out", str(tmp_path / "two")]) == 0
    d1, d2 = tmp_path / "one" / "same", tmp_path / "two" / "same"
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        if name == "manifest.json":
            continue  # holds wall-clock data by design
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1["files"] == m2["files"]  # checksums cover every data file


def _data_files(outdir):
    return {p.name: p.read_bytes() for p in Path(outdir).iterdir()
            if p.name != "manifest.json"}


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), kappa_re=st.floats(0.1, 4.0),
       kappa_im=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       eta=st.floats(0.5, 4.0), n_leaf=st.integers(1, 40),
       ranks=st.lists(st.integers(0, 12), min_size=1, max_size=4),
       seed=st.integers(0, 2**31))
def test_flags_and_file_agree_and_reruns_repeat(n, kappa_re, kappa_im, eta,
                                                n_leaf, ranks, seed):
    """One config as flags and as a --config file: same exit code and
    byte-identical data files; a rerun of the flags repeats them too."""
    cfg = {"n": n, "kappa_re": kappa_re, "kappa_im": kappa_im, "eta": eta,
           "n_leaf": n_leaf, "ranks": ranks, "seed": seed}
    flags = [tok for key, val in cfg.items()
             for tok in (f"--{key.replace('_', '-')}",
                         ",".join(map(str, val)) if key == "ranks" else repr(val))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        for verb in ("rank-sweep", "helmholtz"):
            runs = {name: (main([verb, *extra, "--out", tmp, "--name", name]),
                           _data_files(os.path.join(tmp, name)))
                    for name, extra in (("flags", flags),
                                        ("file", ["--config", path]),
                                        ("rerun", flags))}
            assert runs["flags"] == runs["file"] == runs["rerun"], verb


def test_manifest_counters(tmp_path):
    """Next to the phase timings: N, nnz(A) as numerically nonzero entries
    of the dense A, tets, far and near blocks, C_sp, tree depth and the
    peak RSS."""
    argv = ["rank-sweep", "--n", "2", "--n-leaf", "8", "--ranks", "1,2,4",
            "--out", str(tmp_path), "--name", "c"]
    assert main(argv) == 0
    man = json.loads((tmp_path / "c" / "manifest.json").read_text())
    cfg = load_config(build_parser().parse_args(argv))
    _, system, _, partition, _ = build_pipeline(cfg)
    counters = man["counters"]
    assert set(counters) == {"N", "nnz_A", "n_tets", "n_far", "n_near", "c_sp",
                             "depth", "peak_rss_mb"}
    assert counters["N"] == system.n_dofs == 26
    assert counters["nnz_A"] == np.count_nonzero(system.A)
    assert counters["n_tets"] == 48
    assert (counters["n_far"], counters["n_near"]) == (len(partition.far),
                                                       len(partition.near))
    assert (counters["c_sp"], counters["depth"]) == (sparsity_constant(partition),
                                                     partition.tree.depth)
    assert counters["peak_rss_mb"] > 0
    assert main(["mesh-info", "--n", "2", "--out", str(tmp_path), "--name", "m"]) == 0
    man = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert set(man["counters"]) == {"peak_rss_mb"}  # no system was built


def test_manifest_partition_counters_match_fit(tmp_path):
    """The manifest's C_sp and depth are the values fit.json reports."""
    assert run_cli("rank-sweep", "--n", "5", "--out", str(tmp_path),
                   "--name", "s") == 0
    counters = json.loads((tmp_path / "s" / "manifest.json").read_text())["counters"]
    fit = json.loads((tmp_path / "s" / "fit.json").read_text())
    assert fit["c_sp"] > 0
    assert (counters["c_sp"], counters["depth"]) == (fit["c_sp"], fit["depth"])


# benchmark hooks ----------------------------------------------------------------

def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_exist(tmp_path, capsys):
    """bench/tracing.py wraps these names by getattr, bench/make_reference.py
    unpacks build_pipeline's 5-tuple and every workload's argv must parse;
    deleting API or a flag must break none of them."""
    tracing = _bench_module("tracing")
    targets = [(module, name) for module, names in tracing.SPAN_TARGETS.values()
               for name in names]
    targets += [pair for pairs in tracing.GROUPED_SPANS.values() for pair in pairs]
    for owner_path, name in targets:
        if not owner_path.startswith("hmaxwell"):
            continue
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        assert hasattr(owner, name), f"{owner_path}.{name}"
    element = importlib.import_module("hmaxwell.whitney").TetElement
    for methods in tracing.WHITNEY_COUNTS.values():
        for meth in methods:
            assert hasattr(element, meth), f"TetElement.{meth}"
    cfg = load_config(build_parser().parse_args(["rank-sweep", "--n", "2"]))
    assert len(build_pipeline(cfg)) == 5
    workloads = _bench_module("workloads")
    argvs = [["rank-sweep", *workloads.SWEEP_ARGS]]
    for workload in workloads.WORKLOADS.values():
        extra = ["--seed", "1", "--out", "runs", "--name", "x"]
        if workload.config is not None:  # as bench/worker.py passes it
            (tmp_path / "config.json").write_text(json.dumps(workload.config))
            extra += ["--config", str(tmp_path / "config.json")]
        argvs += [[*step, *extra] for step in workload.steps]
    for argv in argvs:
        load_config(build_parser().parse_args(argv))
    with pytest.raises(SystemExit):
        build_parser().parse_args(["rank-sweep", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert {tok for tok in text.split() if tok.startswith("--")} == {
        "--help", "--n", "--kappa-re", "--kappa-im", "--eta", "--n-leaf",
        "--ranks", "--seed", "--out", "--name", "--dense-limit", "--config"}
    for key, (_, default, flag_help) in OPTIONS.items():
        if flag_help is not None:
            if default is not None:
                flag_help += f" (default {default})"
            assert f"--{key.replace('_', '-')} {key.upper()} {flag_help}" in text


def test_traced_benchmark_worker_runs(tmp_path):
    """bench/worker.py with a trace path, in its own interpreter, on a tiny
    spec: the tracer's wrappers and observers (which run only when traced)
    must work on what the package returns."""
    spec = {"name": "tiny", "config": None, "check": None, "cli_seed": 1,
            "steps": [["rank-sweep", "--n", "3", "--n-leaf", "16"],
                      ["verify", "--n", "2", "--n-leaf", "8", "--kappa-im", "0.5"],
                      ["caccioppoli", "--n", "3"],
                      ["helmholtz", "--n", "2"]]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "work").mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(tmp_path / "spec.json"),
         str(tmp_path / "work"), str(tmp_path / "result.json"),
         str(tmp_path / "trace.json")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "result.json").read_text())["failure"] is None
    trace = json.loads((tmp_path / "trace.json").read_text())
    names = {span[1] for span in trace["spans"]}
    assert {"fem.assemble_system", "inverse_lab.rank_sweep",
            "harmonic.caccioppoli_ratio"} <= names
    assert trace["counts"]["fem.nnz_A"] > 0


@pytest.mark.parametrize("verb", ["caccioppoli", "helmholtz"])
def test_default_pairs_follow_the_configured_length(tmp_path, verb):
    """The local experiments' boxes scale with the domain: on [0, 0.05]^3
    they hold the same tets as on the unit cube, and no outer box is empty."""
    counts = {}
    for length in (1.0, 0.05):
        (tmp_path / "cfg.json").write_text(json.dumps({"length": length}))
        assert run_cli(verb, "--n", "3", "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path), "--name", str(length)) == 0
        out = json.loads((tmp_path / str(length) / f"{verb}.json").read_text())
        if verb == "caccioppoli":
            counts[length] = {label: (e["curl"]["n_outer_tets"],
                                      e["curl"]["n_inner_tets"])
                              for label, e in out["pairs"].items()}
        else:
            counts[length] = {label: (rep["n_tets"],)
                              for label, rep in out["regions"].items()}
    assert counts[0.05] == counts[1.0]
    assert all(c[0] > 0 for c in counts[1.0].values())


@pytest.mark.parametrize("kappa_im", [0.0, -0.0, 0.5])
def test_system_is_real_exactly_when_kappa_is(kappa_im):
    cfg = load_config(build_parser().parse_args(
        ["assemble", "--n", "2", f"--kappa-im={kappa_im!r}"]))
    system = cli.build_system(cfg)
    assert np.iscomplexobj(system.A) == (kappa_im != 0.0)
    assert np.iscomplexobj(checks.random_field(system)) == (kappa_im != 0.0)
    assert isinstance(system.kappa, complex) == (kappa_im != 0.0)
