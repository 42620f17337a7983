"""The one derivative operator of the solver, as data: the diagonal-norm
SBP(4,2) first derivative D with its norm H and its SAT inflow penalty.

D is the operator of Mattsson & Nordstrom (2004, J. Comput. Phys. 199):
the fourth-order central stencil inside, four closure rows at each edge,
and norm weights 17/48, 59/48, 43/48, 49/48 (times dx) on the edge
samples, so that H D + D^T H = diag(-1, 0, ..., 0, 1).  Each transported
component gets zero incoming data through the SAT penalty of Carpenter,
Gottlieb & Abarbanel (1994, J. Comput. Phys. 111), -(c_0 / (h_0 dx)) u_0,
on an edge where its characteristics enter; where they leave, the
closure lets the field pass out.  The semi-discrete operator has no
growing mode, so the field needs no absorbing layer.

evolution's TransportStepper applies the closure through closure_rows,
step_coupled adds the penalty through inflow and NORM[0], and evolve's
growth check measures psi in the norm of norm_weights.  derivative is
the allocating reference that the tests hold the stepper against.
"""

import numpy as np

# The SBP(4,2) closure (times 12 dx): the weights of rows 0-3 on columns
# 0-5, in the order the terms are summed.  Row N-1-i mirrors row i with
# the sign flipped, and row 4 on is the central stencil.
CLOSURE = (
    (-288.0 / 17.0, 354.0 / 17.0, -48.0 / 17.0, -18.0 / 17.0, 0.0, 0.0),
    (-6.0, 0.0, 6.0, 0.0, 0.0, 0.0),
    (48.0 / 43.0, -354.0 / 43.0, 0.0, 354.0 / 43.0, -48.0 / 43.0, 0.0),
    (18.0 / 49.0, 0.0, -354.0 / 49.0, 0.0, 384.0 / 49.0, -48.0 / 49.0),
)
# SBP norm weights of samples 0-3, times dx; mirrored on the right, 1 inside
NORM = (17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0)
# the SAT penalty -(c_0 / (h_0 dx)) u_0 as a weight of row 0 (times 12 dx)
SAT_WEIGHT = 12.0 / NORM[0]


def norm_weights(n: int) -> np.ndarray:
    """The (n,) diagonal of H / dx."""
    weights = np.ones(n)
    weights[:4] = weights[:-5:-1] = NORM
    return weights


def inflow(speeds: np.ndarray) -> np.ndarray:
    """(component, edge): whether the speeds of each row of `speeds` point
    into the window at its (left, right) edge."""
    return np.stack((speeds[:, 0] > 0.0, speeds[:, -1] < 0.0), axis=1)


def closure_rows(speeds: np.ndarray):
    """The closure rows as flat indices into an (R, N) array in C order,
    one row per row of the (R, N) speeds: the targets (8 R,), the sources
    and the weights (term, R, edge), with the SAT penalty of an inflow
    edge folded into the weight of its edge sample."""
    count, n = speeds.shape
    into = inflow(speeds)
    left = np.array(CLOSURE).T  # (term, edge row)
    terms, rows = left.shape
    columns = np.arange(terms)[:, None].repeat(rows, axis=1)
    targets = np.concatenate((np.arange(rows), n - 1 - np.arange(rows)))
    sources = np.concatenate((columns, n - 1 - columns), axis=1)
    weights = np.concatenate((left, -left), axis=1)
    weights = np.repeat(weights[:, None, :], count, axis=1).astype(complex)
    weights[0, :, 0] += np.where(into[:, 0], SAT_WEIGHT, 0.0)
    weights[0, :, rows] -= np.where(into[:, 1], SAT_WEIGHT, 0.0)
    row_starts = n * np.arange(count)[:, None]
    return (
        (row_starts + targets).ravel(),
        row_starts + sources[:, None, :],
        weights,
    )


def derivative(v: np.ndarray, dx: float) -> np.ndarray:
    """The SBP(4,2) derivative of one row, without the SAT penalty."""
    d = np.empty_like(v)
    d[2:-2] = -v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]
    for row, weights in enumerate(CLOSURE):
        d[row] = weights[0] * v[0]
        d[-1 - row] = -weights[0] * v[-1]
        for column, weight in enumerate(weights[1:], start=1):
            d[row] += weight * v[column]
            d[-1 - row] += -weight * v[-1 - column]
    # a product with the reciprocal, as the stepper scales: numpy's complex
    # division by a real forms a + b*0 and flips signed zeros
    return d * (1.0 / (12.0 * dx))
