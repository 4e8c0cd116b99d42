"""Check harness behavior and deterministic report emission."""

import dataclasses
import inspect
import json
import tracemalloc

import numpy as np
import pytest

from hmaxwell import assemble_system, build_box_mesh, checks, fem, harmonic
from hmaxwell.checks import (
    CheckResult,
    check_bound,
    check_commuting,
    check_dual_biorthogonality,
    check_dual_norm_scaling,
    check_exact_sequence,
    check_gradient_kernel,
    check_gradient_part,
    check_helmholtz,
    check_symmetry,
    check_transfer,
    default_tolerances,
)
from hmaxwell.fem import build_nodal_space, discrete_gradient, dual_basis
from hmaxwell.harmonic import (Region, default_pairs,
                               gradient_part_harmonic_check, harmonic_space)
from hmaxwell.hmatrix import TILE
from hmaxwell.inverse_lab import SweepRow
from hmaxwell.report import (
    RunManifest,
    jsonable,
    sha256_file,
    svg_decay_plot,
    write_csv,
    write_json,
)
from hmaxwell.whitney import commuting_residual
from test_harmonic import local_basis
from test_whitney import make_polynomial_field


@pytest.fixture(scope="module")
def sys2():
    return assemble_system(build_box_mesh(2))


def test_check_bound_judges_every_row():
    def row(abs_err, bound):
        return SweepRow(1, abs_err, abs_err, abs_err, bound, bound, 0, True, 0)
    assert check_bound([row(0.5, 1.0), row(1.0, 1.0)], 3, slack=0.0).passed
    assert not check_bound([row(0.5, 1.0), row(1.1, 1.0)], 3, slack=0.0).passed
    assert check_bound([row(1.1, 1.0)], 3, slack=0.2).passed
    assert check_bound([row(0.0, 0.0)], 3).passed  # exact at full rank
    assert not check_bound([row(1e-3, 0.0)], 3).passed  # no bound to meet
    assert check_bound([row(0.5, 1.0)], 3).detail == "1 ranks"
    for rows, n_far in (([], 3), ([row(0.0, 0.0)] * 7, 0)):
        res = check_bound(rows, n_far)
        assert res.passed and res.detail == "no far blocks to bound"
        assert res.measured == 0.0 and res.tolerance == 1.0 + 1e-6


def test_a_nan_measurement_fails_its_check(sys2, monkeypatch):
    """A NaN that is not the first value a check reduces still fails it,
    and is reported as the measurement."""
    def row(abs_err, bound):
        return SweepRow(1, abs_err, abs_err, abs_err, bound, bound, 0, True, 0)
    results = [check_bound([row(0.5, 1.0), row(np.nan, 1.0)], 3)]

    grad = discrete_gradient(build_nodal_space(sys2))

    class SecondGradientIsNan:
        shape = grad.shape
        calls = 0

        def __matmul__(self, q):
            self.calls += 1
            return (grad @ q) * (np.nan if self.calls == 2 else 1.0)

    results.append(check_gradient_kernel(sys2, SecondGradientIsNan()))
    nan_k = dataclasses.replace(sys2, K=sys2.K * np.nan)
    results.append(check_gradient_kernel(nan_k, grad))
    monkeypatch.setattr(checks, "commuting_residual",
                        lambda coords, field, curl_field: np.where(
                            np.arange(len(coords)) == 1, np.nan, 0.0))
    results.append(check_commuting())
    monkeypatch.setattr(checks, "dual_norm_scale", {2: 1.0, 3: np.nan}.get)
    monkeypatch.setattr(checks, "DUAL_NORM_NS", (2, 3))
    results.append(check_dual_norm_scaling())
    for res in results:
        assert not res.passed and np.isnan(res.measured), res.line()


def scalar_draw_sample(seed):
    """The commuting check's tets and fields drawn one scalar at a time, as
    a per-tet loop would: a tet (rejected until |det| >= 0.05), then each
    component's coefficient per monomial of degree <= 3, monomials in
    (i, j, k) loop order."""
    rng = np.random.default_rng(seed)
    monos = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
             if i + j + k <= 3]
    tets, comps = [], []
    for _ in range(50):
        while True:
            pts = rng.random((4, 3))
            if abs(np.linalg.det(pts[1:] - pts[0])) >= 0.05:
                break
        tets.append(pts)
        comps.append([{m: float(rng.standard_normal()) for m in monos}
                      for _ in range(3)])
    return tets, comps


@pytest.mark.parametrize("seed", [0, 3])
def test_commuting_check_draws_the_per_tet_sample(seed):
    """check_commuting tests the tets and coefficients of the scalar-draw
    loop bitwise, monomials sorted as make_polynomial_field sorts them, and
    its worst residual is the max of the residuals of one tet at a time."""
    coords, exps, coef = checks.commuting_sample(seed)
    tets, comps = scalar_draw_sample(seed)
    keys = sorted(comps[0][0])
    assert exps.tolist() == [list(k) for k in keys]
    assert np.array_equal(coords, np.array(tets))
    want = np.array([[[c[k] for k in keys] for c in per_tet] for per_tet in comps])
    assert np.array_equal(coef, want)
    each = [commuting_residual(x[None], *make_polynomial_field(*c))[0]
            for x, c in zip(tets, comps)]
    res = check_commuting(seed=seed)
    assert res.passed and abs(res.measured - max(each)) <= 1e-15


def test_commuting_check_stays_small():
    """One batched pass, one monomial at a time: the traced peak of the
    50-tet check stays below 1 MiB."""
    tracemalloc.start()
    try:
        assert check_commuting(seed=0).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_check_result_line_format():
    ok = CheckResult("thing", True, 1.5e-13, 1e-12, "extra")
    bad = CheckResult("thing", False, 2.0, 1e-12, "")
    assert ok.line().startswith("PASS thing:")
    assert "1.500e-13" in ok.line() and "extra" in ok.line()
    assert bad.line().startswith("FAIL thing:")


def test_structure_checks_pass(sys2):
    assert check_symmetry(sys2).passed
    assert check_gradient_kernel(sys2, discrete_gradient(build_nodal_space(sys2))).passed
    assert check_dual_biorthogonality(sys2, dual_basis(sys2)).passed


def test_symmetry_check_catches_one_ulp_and_nan(sys2):
    """One off-diagonal entry of K moved by one ulp, its mirror left alone,
    fails the exact check with the A-entry difference as measured; so does
    a NaN on the diagonal, though it sits on its own mirror."""
    k = sys2.K.copy()
    row = np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))
    slot = np.flatnonzero(row != k.indices)[0]
    i, j = row[slot], k.indices[slot]
    k.data[slot] = np.nextafter(k.data[slot], np.inf)
    bent = dataclasses.replace(sys2, K=k)
    a = fem.sparse_operator(bent).toarray()
    res = check_symmetry(bent)
    assert a[i, j] != a[j, i]
    assert not res.passed
    assert res.measured == abs(a[i, j] - a[j, i])
    k = sys2.K.copy()
    k.data[np.flatnonzero(row == k.indices)[0]] = np.nan
    assert not check_symmetry(dataclasses.replace(sys2, K=k)).passed


def test_commuting_check_runs_fifty_tets():
    res = check_commuting(seed=0)
    assert res.passed
    assert "50" in res.detail


def test_dual_scaling_band(monkeypatch):
    monkeypatch.setattr(checks, "DUAL_NORM_NS", (2, 3))
    res = check_dual_norm_scaling()
    assert res.passed
    assert res.measured < 2.0


def test_check_defaults_are_the_tolerance_table():
    """Each check's default tolerance, factor or slack is its entry of
    default_tolerances(), and every entry is some check's default."""
    defaults = {key: inspect.signature(check).parameters[param].default
                for check, param, key in [
                    (check_gradient_kernel, "tol", "gradient_kernel"),
                    (check_commuting, "tol", "commuting"),
                    (check_dual_biorthogonality, "tol", "biorthogonality"),
                    (check_dual_norm_scaling, "factor", "dual_norm_factor"),
                    (check_helmholtz, "pythagoras_tol", "pythagoras"),
                    (check_helmholtz, "orthogonality_tol",
                     "helmholtz_orthogonality"),
                    (check_gradient_part, "tol", "gradient_part"),
                    (check_exact_sequence, "tol", "exact_sequence"),
                    (check_transfer, "tol", "transfer"),
                    (check_bound, "slack", "bound_slack")]}
    assert defaults == default_tolerances()


def test_tolerances_are_fresh_copies():
    a = default_tolerances()
    a["transfer"] = 99.0
    assert default_tolerances()["transfer"] != 99.0


# report emission -------------------------------------------------------------

def test_jsonable_handles_numpy_and_complex():
    obj = {
        "arr": np.arange(3),
        "f": np.float64(1.5),
        "c": 1.0 + 2.0j,
        "nested": [np.int64(4), {"x": np.array([1.0, 2.0])}],
    }
    out = jsonable(obj)
    json.dumps(out)
    assert out["arr"] == [0, 1, 2]
    assert out["c"] == {"re": 1.0, "im": 2.0}


def test_write_json_is_byte_stable(tmp_path):
    data = {"b": 1.0 / 3.0, "a": [1, 2, 3], "z": {"y": 2.5e-17}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, data)
    write_json(p2, dict(reversed(list(data.items()))))  # insertion order differs
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_write_csv_reprs_floats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["r", "err", "ok"], [[1, 1.0 / 3.0, True], [2, 2.5e-17, False]])
    text = path.read_text()
    assert repr(1.0 / 3.0) in text
    assert "true" in text and "false" in text
    # repr round-trip keeps the exact bits
    row = text.splitlines()[1].split(",")
    assert float(row[1]) == 1.0 / 3.0


def test_sha256_matches_hashlib(tmp_path):
    import hashlib

    p = tmp_path / "x.bin"
    p.write_bytes(b"abc123")
    assert sha256_file(p) == hashlib.sha256(b"abc123").hexdigest()


def test_manifest_lists_files_sorted(tmp_path):
    man = RunManifest(command="demo", version="0.0", config={"n": 2},
                      timestamp="2024-01-01T00:00:00Z")
    (tmp_path / "zz.txt").write_text("z")
    (tmp_path / "aa.txt").write_text("a")
    man.add_file(tmp_path / "zz.txt", tmp_path)
    man.add_file(tmp_path / "aa.txt", tmp_path)
    man.write(tmp_path)
    data = json.loads((tmp_path / "manifest.json").read_text())
    names = [f["path"] for f in data["files"]]
    assert names == sorted(names)
    assert all("sha256" in f for f in data["files"])
    assert data["command"] == "demo"


def test_svg_plot_is_deterministic_and_wellformed(tmp_path):
    import xml.etree.ElementTree as ET

    rs = [1, 2, 4, 8]
    errs = [1e-1, 3e-2, 2e-3, 5e-5]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    svg_decay_plot(p1, rs, errs)
    svg_decay_plot(p2, rs, errs)
    assert p1.read_bytes() == p2.read_bytes()
    ET.fromstring(p1.read_text())  # parses as XML
    assert b"<svg" in p1.read_bytes()


def test_svg_plot_of_one_huge_rank_has_finite_coordinates(tmp_path):
    """A single rank at or above 2^53, where x + 1.0 rounds to x, still
    gets a nonzero axis span: no coordinate is NaN. Its tick is labelled
    with the rank itself, not with the float it rounds to."""
    path = tmp_path / "one.svg"
    svg_decay_plot(path, [2**63 - 1], [0.5])
    body = path.read_text()
    assert "nan" not in body
    assert ">9223372036854775807</text>" in body
    assert "9223372036854775808" not in body


def test_svg_plot_with_fit_overlay(tmp_path):
    from hmaxwell import fit_decay

    rs = np.array([1, 2, 4, 8, 12])
    errs = 0.5 ** rs
    fit = fit_decay(rs, errs)
    path = tmp_path / "fit.svg"
    svg_decay_plot(path, rs, errs, fit=fit)
    body = path.read_text()
    assert "exp" in body  # legend mentions the exponential fit


def test_gradient_part_check_works_tile_columns_at_a_time(system_cache):
    """check_gradient_part scatters and checks the harmonic columns TILE at
    a time: at n = 7 (N = 1,981 and 998 columns, four tiles) its traced peak
    stays below two N x m blocks, where one block of all columns peaks near
    five, and its worst equals the one-block check's bitwise."""
    sysm = system_cache(7)
    space = harmonic_space(
        Region(sysm, default_pairs(sysm.mesh.length)["interior"].outer), "curl")
    local = local_basis(space)
    m = local.shape[1]
    assert m > 2 * TILE
    block = np.zeros((sysm.n_dofs, m), dtype=local.dtype)
    block[space.dofs] = local
    want = gradient_part_harmonic_check(space.region, [block])
    tracemalloc.start()
    try:
        res = check_gradient_part(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.passed and res.measured == want
    assert peak < 2 * block.nbytes


def test_gradient_part_check_builds_its_region_once(system_cache, monkeypatch):
    """At n = 6 the interior space has 578 columns, three TILE chunks: on a
    fresh region, the region nodal space and the region mass matrix are
    built once for all of them, and the worst equals the max of one call
    per chunk bitwise."""
    sysm = system_cache(6)
    box = default_pairs(sysm.mesh.length)["interior"].outer
    space = harmonic_space(Region(sysm, box), "curl")
    local = local_basis(space)
    m = local.shape[1]
    assert m > 2 * TILE
    each = []
    for j in range(0, m, TILE):
        cols = np.zeros((sysm.n_dofs, min(TILE, m - j)), dtype=local.dtype)
        cols[space.dofs] = local[:, j:j + TILE]
        each.append(gradient_part_harmonic_check(space.region, [cols]))
    calls = {"region_nodal_space": 0, "assemble_region_matrix": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(harmonic, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(harmonic, name, counted)
    # the region above already holds both: count the builds on a fresh one
    res = check_gradient_part(dataclasses.replace(space, region=Region(sysm, box)))
    assert calls == {"region_nodal_space": 1, "assemble_region_matrix": 1}
    assert res.passed and res.measured == max(each)
