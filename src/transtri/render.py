"""Figure and mesh artifact writers (SVG for the plane, OBJ for space).

Edges are curved after perturbation, so the SVG samples each edge as a
polyline.  All writers go through a temp file and an atomic rename.
"""

import os
import secrets

import numpy as np

from .rows import matvec

__all__ = ["atomic_write", "write_svg", "write_obj", "write_curve_csv"]


def atomic_write(path, text):
    """Write text to path via temp file + rename, never leaving partials.
    The temp file is created as open(path, "w") creates a file, so path
    gets mode 0o666 less the umask."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{secrets.token_hex(8)}")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _mesh_images(state, samples=0):
    """The vertex images and, with samples, the perturbed edges as polylines
    of samples points each, from one chain pass."""
    real = state.realization
    verts = np.array([real.point(v) for v in real.vertex_ids])
    edges = state.complex.by_dim(1) if samples else []
    t = np.linspace(0.0, 1.0, samples)[:, None]
    base = [b + matvec(A, t) for b, A in map(real.simplex_frame, edges)]
    images = state.eval_eta(np.concatenate([verts] + base))
    return images[:len(verts)], np.split(images[len(verts):], len(edges)) if edges else []


def write_svg(path, state, h=None, report=None, edge_samples=16, size=800):
    """Plane figure: perturbed mesh edges, map image, intersection marks.
    Each polyline, and the vertex circles, is one %-format over a flat
    tuple: "%.2f" % x is f"{x:.2f}" for every float."""
    lo, hi = state.realization.bbox()
    span = float(max(hi - lo))
    pad = 0.06 * span
    lo = lo - pad
    width = span + 2 * pad

    def pix(pts):
        """Pixel coordinates of the rows of pts, flat: x0, y0, x1, y1, ..."""
        pts = np.asarray(pts, float).reshape(-1, state.ambient_dim)
        xy = np.empty((len(pts), 2))
        xy[:, 0] = (pts[:, 0] - lo[0]) / width * size
        xy[:, 1] = size - (pts[:, 1] - lo[1]) / width * size
        return xy.ravel().tolist()

    def polyline(pts, style):
        xy = pix(pts)
        return (f'<polyline fill="none" {style} points="'
                + " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy) + '"/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    vertices, edges = _mesh_images(state, edge_samples)
    for pts in edges:
        parts.append(polyline(pts, 'stroke="#444" stroke-width="1"'))
    if len(vertices):
        xy = pix(vertices)
        parts.append("\n".join(['<circle cx="%.2f" cy="%.2f" r="2" fill="#888"/>'] * len(vertices))
                     % tuple(xy))
    if h is not None:
        img = h.eval_batch(h.sample_domain(512))
        if img.shape[0] > 1:
            closed = h.domain.kind == "interval" and h.domain.periodic
            pts = np.vstack([img, img[:1]]) if closed else img
            parts.append(polyline(pts, 'stroke="#1f6fd6" stroke-width="1.5"'))
        else:
            x, y = pix(img[:1])
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#1f6fd6"/>')
    if report is not None:
        color = {"transverse": "#2d9b38", "tangent": "#e08b00", "skeleton-hit": "#d62718"}
        xy = pix([rec.point for rec in report.records])
        for r, x, y in zip(report.records, xy[0::2], xy[1::2]):
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="none" '
                         f'stroke="{color[r.classification]}" stroke-width="1.5"/>')
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


def write_obj(path, state):
    """Space mesh: perturbed vertices, one face line per 2-simplex."""
    vids = state.realization.vertex_ids
    remap = {v: i + 1 for i, v in enumerate(vids)}
    lines = []
    for p in _mesh_images(state)[0]:
        lines.append("v " + " ".join(f"{c:.12g}" for c in p))
    for s in state.complex.by_dim(2):
        lines.append("f " + " ".join(str(remap[v]) for v in s.vertices))
    atomic_write(path, "\n".join(lines) + "\n")


def write_curve_csv(path, h, density=256):
    """Samples of the map image, one row per parameter point."""
    ys = h.sample_domain(density)
    img = h.eval_batch(ys)
    n = ys.shape[1]
    header = ",".join([f"y{i}" for i in range(n)] + [f"x{i}" for i in range(img.shape[1])])
    # one %-format over a flat tuple: "%r" % x is repr(x) for every float
    body = np.concatenate([ys, img], axis=1)
    line = ",".join(["%r"] * body.shape[1])
    atomic_write(path, "\n".join([header] + [line] * len(body)) % tuple(body.ravel().tolist()) + "\n")
