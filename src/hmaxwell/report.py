"""Artifact emission: CSV/JSON/SVG writers and the run manifest.

Everything written here is deterministic for a fixed config and seed;
wall-clock and process data (timestamp, timings, peak RSS) go only into
the manifest so data files can be compared byte for byte across reruns.
"""

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex numbers into
    plain JSON-encodable values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {k: jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def write_json(path: str, obj) -> str:
    text = json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return path


def write_csv(path: str, header, rows) -> str:
    """RFC-4180 style CSV; floats via repr so reruns are byte-identical."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(buf.getvalue())
    return path


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    version: str
    config: dict
    timestamp: str
    timings: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    files: list = field(default_factory=list)

    def add_file(self, path: str, outdir: str):
        self.files.append({
            "path": os.path.relpath(path, outdir),
            "sha256": sha256_file(path),
            "bytes": os.path.getsize(path),
        })

    def write(self, outdir: str) -> str:
        path = os.path.join(outdir, "manifest.json")
        payload = {
            "command": self.command,
            "version": self.version,
            "config": jsonable(self.config),
            "timestamp": self.timestamp,
            "timings_seconds": jsonable(self.timings),
            "counters": jsonable(self.counters),
            "files": sorted(self.files, key=lambda d: d["path"]),
        }
        return write_json(path, payload)


# SVG decay plot --------------------------------------------------------------

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def svg_decay_plot(path: str, rs, rel_errs, fit=None) -> str:
    """Self-contained SVG 1.1 plot: measured points (floored at 1e-16) on a
    log10 y axis with the two fitted decay curves overlaid when a fit is
    available."""
    ranks = [int(r) for r in rs]  # the tick labels: a float rounds from 2^53
    rs = np.asarray(ranks, dtype=float)
    errs = np.maximum(np.asarray(list(rel_errs), dtype=float), 1e-16)
    ys = np.log10(errs)
    y_lo = float(np.floor(ys.min())) - 0.5
    y_hi = float(np.ceil(ys.max())) + 0.5
    x_lo, x_hi = float(rs.min()), float(rs.max())
    x_span = (x_hi - x_lo) or 1.0  # one rank; x_lo + 1.0 rounds to x_lo from 2^53

    def sx(x):
        return _ML + (x - x_lo) / x_span * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="14" font-size="13" text-anchor="middle" '
        'font-family="sans-serif">relative spectral error vs block rank</text>',
    ]
    ax = (f'M {_fmt(_ML)} {_fmt(_MT)} L {_fmt(_ML)} {_fmt(_H - _MB)} '
          f'L {_fmt(_W - _MR)} {_fmt(_H - _MB)}')
    parts.append(f'<path d="{ax}" stroke="black" fill="none" stroke-width="1"/>')
    for p in range(int(np.ceil(y_lo)), int(np.floor(y_hi)) + 1):
        y = sy(p)
        parts.append(f'<line x1="{_fmt(_ML - 4)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_ML)}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(_ML - 8)}" y="{_fmt(y + 4)}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">1e{p}</text>')
        parts.append(f'<line x1="{_fmt(_ML)}" y1="{_fmt(y)}" x2="{_fmt(_W - _MR)}" '
                     f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="0.5"/>')
    for r, label in zip(rs, ranks):
        x = sx(r)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(_H - _MB + 4)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(_H - _MB + 18)}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{label}</text>')
    parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 10}" font-size="12" '
                 f'text-anchor="middle" font-family="sans-serif">block rank r</text>')
    parts.append(f'<text x="16" y="{_H / 2:.0f}" font-size="12" text-anchor="middle" '
                 f'font-family="sans-serif" transform="rotate(-90 16 {_H / 2:.0f})">'
                 'relative error</text>')

    if fit is not None and not getattr(fit, "skipped", False):
        xs = np.linspace(x_lo, x_hi, 100)
        root = fit.log_c_root - fit.b * xs ** 0.25 / np.log(xs + 2.0)
        expo = fit.log_c_exp + xs * np.log(max(fit.q, 1e-300))
        for curve, color, label, y0 in ((root, "#1f77b4", "root-exponential fit", 34),
                                        (expo, "#d62728", "exponential fit", 50)):
            pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(min(max(c / np.log(10.0), y_lo), y_hi)))}"
                           for x, c in zip(xs, curve))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
            parts.append(f'<line x1="{_W - 230}" y1="{y0}" x2="{_W - 205}" y2="{y0}" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{_W - 200}" y="{y0 + 4}" font-size="11" '
                         f'font-family="sans-serif">{label}</text>')

    for r, y in zip(rs, ys):
        parts.append(f'<circle cx="{_fmt(sx(r))}" cy="{_fmt(sy(y))}" r="3.5" '
                     'fill="black"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
    return path
