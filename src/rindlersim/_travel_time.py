"""The travel-time table behind `oracle.travel_time_origins`.

The speed c(X) of the accelerated-frame transport does not depend on
time, so the characteristic that reaches x at time t starts where the
travel time tau(X) = integral of dX / c equals tau(x) - t.  A table of
tau spans what the traces can reach, split into segments at the zeros of
c, which no trace crosses.  A segment is a run of cells: plain cells in
X, and next to a zero z cells in w = ln|X - z|, where dtau/dw =
(X - z) / c is smooth and tends to 1 / c'(z).  Every cell holds the
monomial coefficients, in its local coordinate xi in [-1, 1], of the
integral of the degree-7 interpolant of dtau/dxi at the 8 Gauss-Legendre
nodes; over the whole cell that integral is the Gauss-Legendre sum.
"""

import functools
import math

import numpy as np

from .errors import OracleCoverageError

# 8-point Gauss-Legendre nodes and weights on [-1, 1]
GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
# A plain cell spans this many substeps of travel at the top speed on the
# table, and a table interval is split into at most SPLITS cells where
# the speed is slower.
CELL_SUBSTEPS = 16
SPLITS = 64
# The log cells next to a zero z run down to |X - z| = FLOOR times their
# outer end; closer in, tau is continued linearly in w = ln|X - z|.  The
# error of that continuation is of order (c''/c') |X - z|^2 at the floor.
FLOOR = 2.0**-24
# A bracket of a zero is cut into this many sections per speed call.
SECTIONS = 64
SECTION_PASSES = 16
# Passes that widen the table until it spans what the traces can reach.
REACH_PASSES = 16
NEWTON_CAP = 16
# Most cells per speed call: the temporaries of a call stay small.
BLOCK = 512


def left_the_region(valid_lo, valid_hi):
    """The error for a trace that leaves [valid_lo, valid_hi]."""
    return OracleCoverageError(
        "characteristic trace left the valid region "
        f"[{valid_lo:.6g}, {valid_hi:.6g}]; shrink t or enlarge the window"
    )


def speed_at(speed, points):
    """speed(points) as a float array of their shape, in a buffer of its
    own; a NaN or infinite speed is a coverage error."""
    c = np.array(np.broadcast_to(speed(points), points.shape), dtype=float)
    if not np.isfinite(c).all():
        raise OracleCoverageError(
            "the transport speed is not finite on the span the traces cross"
        )
    return c


def cell_count(cells: float) -> int:
    """At least one cell, and whole cells."""
    return max(1, math.ceil(cells))


def table_edges(speed, points, c, t, substep, valid_lo, valid_hi):
    """(edges, speed at the edges, top speed on them): the span that
    traces from points (where the speed is c) can reach in time t inside
    [valid_lo, valid_hi], in cells of CELL_SUBSTEPS substeps of travel at
    the top speed.

    A trace keeps its direction: for t > 0 it runs to lower X where
    c > 0 and to higher X where c < 0 (the other way for t < 0).  The
    span reaches |t| times the top speed, plus one cell, past the points
    on those sides (one cell on the others, which brings a zero next to
    the points into the table), and grows until no faster speed turns up
    on it or it fills the valid region.  The cells scale with the top
    speed, so the table holds about |t| / (CELL_SUBSTEPS substep) cells
    beyond the points whatever the speed."""
    x_lo, x_hi = points.min(), points.max()
    left, right = bool((t * c > 0.0).any()), bool((t * c < 0.0).any())
    top = float(np.max(np.abs(c)))
    for _ in range(REACH_PASSES):
        cell = CELL_SUBSTEPS * substep * top
        distance = abs(t) * top + cell
        lo = max(valid_lo, x_lo - (distance if left else cell))
        hi = min(valid_hi, x_hi + (distance if right else cell))
        if lo == hi:
            # the points sit on the valid edge they run towards
            raise left_the_region(valid_lo, valid_hi)
        edges = np.linspace(lo, hi, cell_count((hi - lo) / cell) + 1)
        c_edges = speed_at(speed, edges)
        faster = float(np.max(np.abs(c_edges)))
        if faster <= top or (lo == valid_lo or not left) and (hi == valid_hi or not right):
            return edges, c_edges, max(top, faster)
        top = max(faster, 2.0 * top)
    raise OracleCoverageError(
        "could not bound the region the characteristic traces reach; "
        "give finite valid bounds"
    )


def speed_zeros(speed, edges, c):
    """The zeros of the speed on the table: float pairs a <= b with one
    zero between them, and the slope of the speed there.

    Sign changes between adjacent edges give the brackets.  Each pass
    samples SECTIONS - 1 points inside every bracket (bisection, with
    more sections per speed call) and keeps the part that holds the first
    sign change, until a and b are adjacent floats.  A sample that is
    exactly zero closes its bracket, a == b, as does a zero edge."""
    i = np.flatnonzero(c[:-1] * c[1:] < 0.0)
    a, b = edges[i], edges[i + 1]
    slope = (c[i + 1] - c[i]) / (b - a)
    side = np.sign(c[i])[:, None]
    fractions = np.arange(1, SECTIONS) / SECTIONS
    rows = np.arange(i.size)
    for _ in range(SECTION_PASSES):
        if not np.any(np.nextafter(a, b) < b):
            break
        points = a[:, None] + (b - a)[:, None] * fractions
        samples = speed_at(speed, points)
        flip = np.sign(samples) != side
        found = flip.any(axis=1)
        j = flip.argmax(axis=1)
        past = points[rows, j]
        a = np.where(found, np.where(j > 0, points[rows, j - 1], a), points[:, -1])
        b = np.where(found, past, b)
        a = np.where(found & (samples[rows, j] == 0.0), past, a)
    e = np.flatnonzero(c == 0.0)
    left, right = np.maximum(e - 1, 0), np.minimum(e + 1, edges.size - 1)
    a = np.concatenate((a, edges[e]))
    b = np.concatenate((b, edges[e]))
    slope = np.concatenate((slope, (c[right] - c[left]) / (edges[right] - edges[left])))
    order = np.argsort(a)
    return a[order], b[order], slope[order]


@functools.cache
def antiderivative():
    """(9, 8) matrix from an integrand's values at the Gauss-Legendre
    nodes to the monomial coefficients, in xi, of the integral of its
    interpolant from -1 to xi: column i integrates the Lagrange
    polynomial of node i."""
    lift = np.zeros((9, 8))
    for i, node in enumerate(GL_NODES):
        basis = np.ones(1)
        for other in np.delete(GL_NODES, i):
            # times (xi - other) / (node - other), highest power first
            basis = np.convolve(basis, [1.0, -other]) / (node - other)
        integral = basis[::-1] / np.arange(1, 9)
        lift[1:, i] = integral
        lift[0, i] = -integral @ (-1.0) ** np.arange(1, 9)
    lift.flags.writeable = False  # shared by every caller
    return lift


def polynomial(coefficients, rows, xi):
    """Values and derivatives at xi of the monomial polynomials in the
    given rows of coefficients, one row per xi."""
    value = coefficients[rows, -1]
    slope = np.zeros_like(value)
    for j in range(coefficients.shape[1] - 2, -1, -1):
        slope *= xi
        slope += value
        value *= xi
        value += coefficients[rows, j]
    return value, slope


def plain_edges(a, b, cell, cmax, edges, c_edges):
    """Cell edges from a to b: the table's edges, each interval split in
    up to SPLITS equal cells so that no cell is much wider than `cell`
    times the local speed over cmax (a cell spans about as much travel
    time wherever the speed is slower than cmax)."""
    knots = np.concatenate(([a], edges[(edges > a) & (edges < b)], [b]))
    speed = np.abs(np.interp(knots, edges, c_edges))
    slowest = np.minimum(speed[:-1], speed[1:])
    width = np.diff(knots)
    ratio = width * cmax / (cell * np.maximum(slowest, cmax / SPLITS))
    m = np.maximum(np.ceil(ratio), 1.0).astype(int)
    group = np.repeat(np.arange(m.size), m)
    step = np.arange(group.size) - np.repeat(np.cumsum(m) - m, m)
    return np.append(knots[group] + step * (width / m)[group], b)


def segment_parts(lo, hi, lo_zero, hi_zero, cell, cmax, edges, c_edges):
    """The cells of one segment [lo, hi], as parts (z, o, v edges) in x
    order: X = v on plain parts (o = 0), X = z + o exp(v) on log parts.

    An end at a zero z gets a log part out to the distance rho at which
    the linearised flow there moves at the top speed cmax (at most the
    segment, or half of it between two zeros); its cells are as wide in v
    as a plain cell is in x at distance rho."""
    share = (hi - lo) / (2.0 if lo_zero and hi_zero else 1.0)

    def log_part(slope):
        rho = share if cmax >= abs(slope) * share else cmax / abs(slope)
        w_far, w_floor = math.log(rho), math.log(rho * FLOOR)
        return np.linspace(w_floor, w_far, cell_count((w_far - w_floor) * rho / cell) + 1)

    pieces, a, b = [], lo, hi
    tail = None
    if lo_zero:
        w = log_part(lo_zero[1])
        pieces.append((lo_zero[0], 1.0, w))
        a = lo_zero[0] + math.exp(w[-1])
    if hi_zero:
        w = log_part(hi_zero[1])[::-1]
        tail = (hi_zero[0], -1.0, w)
        b = hi_zero[0] - math.exp(w[0])
    if b > a:
        pieces.append((0.0, 0.0, plain_edges(a, b, cell, cmax, edges, c_edges)))
    if tail:
        pieces.append(tail)
    return pieces


class Segment:
    """The travel time tau on the cells between two zeros of the speed (or
    the ends of the table), with tau = 0 at its first cell edge."""

    def __init__(self, parts):
        z, o, mid, half, xe = [], [], [], [], []
        for zero, sign, w in parts:
            n = w.size - 1
            z.append(np.full(n, zero))
            o.append(np.full(n, sign))
            mid.append(0.5 * (w[:-1] + w[1:]))
            half.append(0.5 * (w[1:] - w[:-1]))
            xe.append(w[:-1] if sign == 0.0 else zero + sign * np.exp(w[:-1]))
        last_z, last_o, last_w = parts[-1]
        xe.append([last_w[-1] if last_o == 0.0 else last_z + last_o * math.exp(last_w[-1])])
        self.z, self.o = np.concatenate(z), np.concatenate(o)
        self.mid, self.half = np.concatenate(mid), np.concatenate(half)
        self.xe = np.concatenate(xe)
        self.log = self.o != 0.0
        self.lo_floor = parts[0][1] == 1.0
        self.hi_floor = parts[-1][1] == -1.0
        # Newton stops once its update moves X by a few ulp
        width = np.diff(self.xe)
        top = np.maximum(np.abs(self.xe[:-1]), np.abs(self.xe[1:]))
        self.tol = np.maximum(4.0 * np.spacing(top) / width, 16.0 * np.finfo(float).eps)

    def fill(self, speed):
        """Tabulate tau from q = (dX/dxi) / speed at the Gauss-Legendre
        nodes of every cell, BLOCK cells per speed call.  q @ lift.T and
        q @ weights are summed column by column: a first BLAS call
        would page about 0.4 MB of library into the process for good."""
        lift = antiderivative()
        self.coefficients = np.zeros((self.mid.size, lift.shape[0]))
        increments = np.zeros(self.mid.size)
        for start in range(0, self.mid.size, BLOCK):
            cells = slice(start, start + BLOCK)
            x = self.mid[cells, None] + self.half[cells, None] * GL_NODES  # v
            log, z, o = self.log[cells], self.z[cells, None], self.o[cells, None]
            offset = o[log] * np.exp(x[log])  # X - z on log cells
            x[log] = z[log] + offset  # X = v on plain cells
            q = np.divide(self.half[cells, None], speed_at(speed, x))
            q[log] *= offset  # dX/dxi = (X - z) dv/dxi
            for i, weight in enumerate(GL_WEIGHTS):
                self.coefficients[cells] += q[:, i, None] * lift[:, i]
                increments[cells] += weight * q[:, i]
        self.tau = np.concatenate(([0.0], np.cumsum(increments)))
        self.sign = 1.0 if self.tau[-1] > self.tau[0] else -1.0
        # tau is linear in v beyond the floors, with the slope it has there
        self.floors = {}
        if self.lo_floor:
            _, slope = polynomial(self.coefficients, [0], np.array([-1.0]))
            self.floors[0] = (self.mid[0] - self.half[0], self.tau[0], slope[0] / self.half[0])
        if self.hi_floor:
            _, slope = polynomial(self.coefficients, [-1], np.array([1.0]))
            self.floors[-1] = (self.mid[-1] + self.half[-1], self.tau[-1], slope[0] / self.half[-1])

    def _v(self, x, k):
        """The coordinate v of positions x in cells k."""
        v = x.copy()
        log = self.log[k]
        # a point on the anchor of a zero is at w = -inf and stays there
        with np.errstate(divide="ignore"):
            v[log] = np.log(self.o[k][log] * (x[log] - self.z[k][log]))
        return v

    def _x(self, v, k):
        """The positions at coordinate v in cells k."""
        x = v.copy()
        log = self.log[k]
        x[log] = self.z[k][log] + self.o[k][log] * np.exp(v[log])
        return x

    def travel_time(self, x):
        """tau at positions x of the segment."""
        k = np.clip(np.searchsorted(self.xe, x, "right") - 1, 0, self.mid.size - 1)
        value, _ = polynomial(self.coefficients, k, (self._v(x, k) - self.mid[k]) / self.half[k])
        value += self.tau[k]
        for end, beyond in ((0, x < self.xe[0]), (-1, x > self.xe[-1])):
            if end in self.floors and beyond.any():
                v_f, tau_f, slope = self.floors[end]
                ends = np.full(np.count_nonzero(beyond), end)
                value[beyond] = tau_f + (self._v(x[beyond], ends) - v_f) * slope
        return value

    def position(self, target):
        """X with tau(X) = target: NaN past a table edge that is not a
        floor, the linear continuation past a floor, and else a guess
        interpolated between the cell's edges and Newton steps on its
        polynomial, until the update moves X by a few ulp."""
        key = self.sign * self.tau
        below, above = self.sign * target < key[0], self.sign * target > key[-1]
        x = np.empty_like(target)
        for end, beyond in ((0, below), (-1, above)):
            if not beyond.any():
                continue
            if end not in self.floors:
                x[beyond] = math.nan  # which the coverage check rejects
                continue
            v_f, tau_f, slope = self.floors[end]
            ends = np.full(np.count_nonzero(beyond), end)
            x[beyond] = self._x(v_f + (target[beyond] - tau_f) / slope, ends)
        inside = ~(below | above)
        target = target[inside]
        k = np.clip(np.searchsorted(key, self.sign * target, "right") - 1, 0, self.mid.size - 1)
        rel = target - self.tau[k]
        xi = 2.0 * rel / (self.tau[k + 1] - self.tau[k]) - 1.0
        tol = self.tol[k]
        for _ in range(NEWTON_CAP):
            value, slope = polynomial(self.coefficients, k, xi)
            step = (value - rel) / slope
            xi -= step
            np.clip(xi, -1.0, 1.0, out=xi)
            if np.all(np.abs(step) <= tol):
                break
        else:
            raise OracleCoverageError(
                "travel-time inversion did not converge; the table does not "
                "resolve the speed there (lower the substep)"
            )
        x[inside] = self._x(self.mid[k] + xi * self.half[k], k)
        return x


def origins(speed, points, c, t, substep, valid_lo, valid_hi):
    """Origins of the traces through points (where the speed c is not
    zero) over time t; NaN for an origin past the table's edge."""
    edges, c_edges, cmax = table_edges(speed, points, c, t, substep, valid_lo, valid_hi)
    cell = CELL_SUBSTEPS * substep * cmax
    za, zb, slope = speed_zeros(speed, edges, c_edges)
    # segment k runs from zero k - 1, anchored at its b, to zero k,
    # anchored at its a, so no origin lands on the far side of a zero
    which = np.searchsorted(zb, points, "right")
    result = np.empty_like(points)
    for k in np.flatnonzero(np.bincount(which)):
        lo_zero = (zb[k - 1], slope[k - 1]) if k > 0 else None
        hi_zero = (za[k], slope[k]) if k < za.size else None
        lo = zb[k - 1] if k > 0 else edges[0]
        hi = za[k] if k < za.size else edges[-1]
        segment = Segment(segment_parts(lo, hi, lo_zero, hi_zero, cell, cmax, edges, c_edges))
        segment.fill(speed)
        mine = which == k
        result[mine] = segment.position(segment.travel_time(points[mine]) - t)
    return result
