"""Check harness behavior and deterministic report emission."""

import dataclasses
import json

import numpy as np
import pytest

from hmaxwell import assemble_system, build_box_mesh, checks, fem
from hmaxwell.checks import (
    CheckResult,
    check_bound,
    check_commuting,
    check_dual_biorthogonality,
    check_dual_norm_scaling,
    check_gradient_kernel,
    check_symmetry,
    default_tolerances,
)
from hmaxwell.fem import build_nodal_space, discrete_gradient, dual_basis
from hmaxwell.inverse_lab import SweepRow
from hmaxwell.report import (
    RunManifest,
    jsonable,
    sha256_file,
    svg_decay_plot,
    write_csv,
    write_json,
)


@pytest.fixture(scope="module")
def sys2():
    return assemble_system(build_box_mesh(2))


def test_check_bound_judges_every_row():
    def row(abs_err, bound):
        return SweepRow(1, abs_err, abs_err, abs_err, bound, bound, 0, True)
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
        return SweepRow(1, abs_err, abs_err, abs_err, bound, bound, 0, True)
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
    residuals = iter([0.0, np.nan] + [0.0] * 48)
    monkeypatch.setattr(checks.TetElement, "commuting_residual",
                        lambda self, field, curl_field: next(residuals))
    results.append(check_commuting())
    monkeypatch.setattr(checks, "dual_norm_scale", {2: 1.0, 3: np.nan}.get)
    results.append(check_dual_norm_scaling(ns=(2, 3)))
    for res in results:
        assert not res.passed and np.isnan(res.measured), res.line()


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


def test_dual_scaling_band():
    res = check_dual_norm_scaling(ns=(2, 3))
    assert res.passed
    assert res.measured < 2.0


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


def test_svg_plot_with_fit_overlay(tmp_path):
    from hmaxwell import fit_decay

    rs = np.array([1, 2, 4, 8, 12])
    errs = 0.5 ** rs
    fit = fit_decay(rs, errs)
    path = tmp_path / "fit.svg"
    svg_decay_plot(path, rs, errs, fit=fit)
    body = path.read_text()
    assert "exp" in body  # legend mentions the exponential fit
