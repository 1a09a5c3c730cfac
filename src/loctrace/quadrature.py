"""Adaptive plane quadrature.

Cells are axis-aligned rectangles carrying a tensor Gauss-Legendre rule of
order 8.  A cell is accepted when the sum over its four children agrees with
the parent value within the cell's share of the global tolerance; otherwise
the children are refined, down to a depth limit.  A level is evaluated in
blocks of 64 whole cells, ``BLOCK_POINTS`` points at most, through one reused
block buffer of points and one of values; each block is reduced to its cell
sums at once, so nothing level-sized is kept but the cells and their sums.
The integrand's temporaries, such as the rows a field's compiled tape runs
in (see ``fields``), stay block-sized too, below glibc's mmap threshold.
Both buffers, the tape's rows and the integrands' block scratch start on
64-byte cache lines (``empty_aligned``), which malloc does not give.  An
integrand that itself integrates gets buffers of its own.  Evaluation and
reduction run serially in a fixed order, so repeated runs agree bit for bit;
across machines floats agree within rel 1e-12 / abs 1e-14; all else is exact.
The rule's nodes and weights are a literal table, bit for bit numpy's
``leggauss(8)`` on the benchmark's VM and the same on every machine, so the
rule adds nothing to that drift.
"""

from __future__ import annotations

import numpy as np

__all__ = ["integrate_rect", "integrate_box", "QuadratureResult", "NonConvergenceError"]

GL_ORDER = 8
# numpy.polynomial.legendre.leggauss(8) of numpy 2.4.6 on the benchmark's VM,
# each float written as its repr, which reads back to the same bits.  leggauss
# solves an eigenproblem through the machine's LAPACK; the literal table is
# the same on every machine, and keeps numpy.polynomial and LAPACK out of a
# process that only integrates.
_nodes = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                   -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                   0.7966664774136267, 0.9602898564975362])
_weights = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                     0.22238103445337443, 0.10122853629037706])
# complex, as einsum would otherwise cast it per call into a fresh buffer
_W2 = np.outer(_weights, _weights).astype(complex)
# 64 cells of 64 points: a block's points and values, and each row of the
# tape arena, are at most 64 KiB, below the 128 KiB mmap threshold.  A tape
# whose rows for a whole block would pass the arena's byte budget
# (``fields._ARENA_BYTES``) runs each block in halved sub-blocks.  With the
# tape (benchmark ``cocycle`` workload, 2-core VM), 16 cells ran 1.35x slower,
# as numpy's cost per call then outweighs the arithmetic; 256 cells ran no
# faster and raised peak memory by 9 MB, the arena's rows growing with the
# block.
_BLOCK_CELLS = 64
BLOCK_POINTS = _BLOCK_CELLS * GL_ORDER * GL_ORDER


def empty_aligned(shape, dtype=complex):
    """np.empty(shape, dtype) starting on a 64-byte cache line."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.__array_interface__["data"][0] % 64
    return raw[start : start + size].view(dtype).reshape(shape)


class NonConvergenceError(Exception):
    """Adaptive quadrature hit its depth limit before the tolerance."""


class QuadratureResult:
    __slots__ = ("value", "est_error", "cells", "converged")

    def __init__(self, value, est_error, cells, converged):
        self.value = complex(value)
        self.est_error = float(est_error)
        self.cells = int(cells)
        self.converged = bool(converged)

    def __repr__(self):
        return (
            f"QuadratureResult({self.value:.10g}, est={self.est_error:.3g}, "
            f"cells={self.cells}, converged={self.converged})"
        )


class _Buffers:
    """A running integral's block of values and of points (complex, or x then y)."""

    __slots__ = ("vals", "pts")

    def __init__(self):
        self.vals = empty_aligned(BLOCK_POINTS)
        self.pts = empty_aligned(BLOCK_POINTS)


# the buffers of the integrals not running now
_IDLE = []


def _cell_values(f, cells, bufs, complex_points):
    """Gauss-Legendre values for an (n, 4) array of rectangles.  ``f`` maps
    one block's points, given as one complex array or, for a real chart, as
    two float arrays, to one value per point or one scalar."""
    x0, x1, y0, y1 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    cx, cy = 0.5 * (x1 + x0), 0.5 * (y1 + y0)
    sums = np.empty(len(cells), dtype=complex)
    parts = bufs.pts.view(np.float64)
    for a in range(0, len(cells), _BLOCK_CELLS):
        c = slice(a, a + _BLOCK_CELLS)
        X = cx[c, None, None] + hx[c, None, None] * _nodes[None, :, None]
        Y = cy[c, None, None] + hy[c, None, None] * _nodes[None, None, :]
        size = len(X) * GL_ORDER * GL_ORDER
        if complex_points:
            z = bufs.pts[:size]
            xy = parts[: 2 * size].reshape(len(X), GL_ORDER, GL_ORDER, 2)
            np.copyto(xy[..., 0], X)
            np.copyto(xy[..., 1], Y)
            v = f(z)
        else:
            x, y = parts[:size], parts[len(bufs.pts) : len(bufs.pts) + size]
            np.copyto(x.reshape(len(X), GL_ORDER, GL_ORDER), X)
            np.copyto(y.reshape(len(X), GL_ORDER, GL_ORDER), Y)
            v = f(x, y)
        bufs.vals[:size] = v  # a scalar broadcasts to the block
        vals = bufs.vals[:size].reshape(len(X), GL_ORDER, GL_ORDER)
        np.einsum("nij,ij->n", vals, _W2, out=sums[c])
    return (hx * hy) * sums


def _children(cells):
    x0, x1, y0, y1 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    xm = 0.5 * (x0 + x1)
    ym = 0.5 * (y0 + y1)
    quads = [
        np.stack([x0, xm, y0, ym], axis=1),
        np.stack([xm, x1, y0, ym], axis=1),
        np.stack([x0, xm, ym, y1], axis=1),
        np.stack([xm, x1, ym, y1], axis=1),
    ]
    # interleave so children of one parent are contiguous
    return np.stack(quads, axis=1).reshape(-1, 4)


def integrate_rect(f_xy, rect, tol=1e-6, max_depth=12):
    """Integrate f(x, y) dx dy over a rectangle (x0, x1, y0, y1); ``f_xy``
    maps two float arrays of points to one value per point or one scalar.
    The arrays are reused for the next block: ``f_xy`` must not keep them."""
    return _integrate(f_xy, rect, tol, max_depth, False)


def integrate_box(f_z, rect, tol=1e-6, max_depth=12):
    """Same engine with a complex-plane integrand f(z) and measure dx dy;
    ``f_z`` gets one complex array of points, reused as in ``integrate_rect``."""
    return _integrate(f_z, rect, tol, max_depth, True)


def _add_in_order(total, parts):
    """total + parts[0] + parts[1] + ..., added left to right."""
    return np.add.accumulate(np.append(total, parts))[-1]


def _integrate(f, rect, tol, max_depth, complex_points):
    x0, x1, y0, y1 = (float(v) for v in rect)
    if x1 <= x0 or y1 <= y0:
        return QuadratureResult(0.0, 0.0, 0, True)
    # an integral that raises leaves its buffers to the garbage collector
    bufs = _IDLE.pop() if _IDLE else _Buffers()
    total_area = (x1 - x0) * (y1 - y0)
    cells = np.array([[x0, x1, y0, y1]])
    coarse = _cell_values(f, cells, bufs, complex_points)
    value, est = 0j, 0.0
    ncells, converged = 1, True
    for depth in range(1, max_depth + 1):
        kids = _children(cells)
        kid_vals = _cell_values(f, kids, bufs, complex_points)
        ncells += len(kids)
        fine = kid_vals.reshape(-1, 4).sum(axis=1)
        err = np.abs(fine - coarse)
        areas = (cells[:, 1] - cells[:, 0]) * (cells[:, 3] - cells[:, 2])
        thresh = tol * areas / total_area
        accept = err <= thresh
        if depth == max_depth:
            converged = not bool(np.any(~accept))
            accept = np.ones_like(accept)
        value = _add_in_order(value, fine[accept])
        est = _add_in_order(est, err[accept])
        keep = ~accept
        if not np.any(keep):
            break
        cells = kids.reshape(-1, 4, 4)[keep].reshape(-1, 4)
        coarse = kid_vals.reshape(-1, 4)[keep].reshape(-1)
    _IDLE.append(bufs)
    return QuadratureResult(value, est, ncells, converged)
