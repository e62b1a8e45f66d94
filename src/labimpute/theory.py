"""Exact accounting of what the label contributes to an imputation.

Setting: a feature x is regressed on a covariate z and a non-negative
label y (the label-stacked model), and separately predicted without the
label by dropping the y term while keeping the same fitted intercept and
z coefficient.  Writing g for the full-model coefficients and

    E_i = g2^2 * (y_i - 2 * mean(y)) + 2 * g1 * g2 * (z_i - mean(z))

the fitted sums of squares obey an exact identity:

    SSE_DI - SSE_IUL = V+ + V-,   V+ = sum_{E_i >= 0} y_i E_i,
                                  V- = sum_{E_i < 0}  y_i E_i

where SSE_IUL is the full model's squared error and SSE_DI is the
label-free model's error measured through the total-minus-regression
decomposition SSE = SST - SSR around mean(x).  The label-stacked model
wins exactly when V+ + V- >= 0, and y >= 0 forces V+ >= 0 and V- <= 0.

Measuring the label-free predictions by raw squared error instead, or
refitting the label-free model, would make the comparison vacuous: the
full fit minimizes squared error over a superset of models, so its raw SSE
can never be larger.  The SST - SSR form is what the identity is about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvariantError


@dataclass(frozen=True)
class TheoremInstance:
    """One (x, z, y) triple: n >= 3 finite rows, y non-negative."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).copy()
        z = np.asarray(self.z, dtype=np.float64).copy()
        y = np.asarray(self.y, dtype=np.float64).copy()
        if not (x.ndim == z.ndim == y.ndim == 1) or not (x.shape == z.shape == y.shape):
            raise DataError("x, z, y must be 1-D arrays of equal length")
        if x.size < 3:
            raise DataError("need at least 3 rows to fit an intercept, z, and y")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
            raise DataError("instance entries must be finite")
        if np.any(y < 0):
            raise DataError("labels must be non-negative")
        for name, arr in (("x", x), ("z", z), ("y", y)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class TheoremReport:
    gamma: tuple[float, float, float]
    v_plus: float
    v_minus: float
    sse_iul: float
    sse_di: float
    identity_residual: float
    iul_wins: bool


def _fit_ols_full(inst: TheoremInstance) -> tuple[float, float, float]:
    """Least-squares coefficients of x on [1, z, y] via normal equations.

    Rejects rank-deficient designs and verifies the residuals are
    orthogonal to every design column to 1e-9 relative.
    """
    A = np.column_stack([np.ones(inst.n), inst.z, inst.y])
    if np.linalg.matrix_rank(A) < 3:
        raise DataError("design [1, z, y] is rank deficient")
    g = np.linalg.solve(A.T @ A, A.T @ inst.x)
    r = inst.x - A @ g
    scale = max(1.0, float(np.abs(A).max() * np.abs(r).max() * inst.n))
    if float(np.abs(A.T @ r).max()) > 1e-9 * scale:
        raise InvariantError("normal-equation residuals lost orthogonality")
    return float(g[0]), float(g[1]), float(g[2])


def _compute_E(z: np.ndarray, y: np.ndarray,
               gamma: tuple[float, float, float]) -> np.ndarray:
    """Per-row effect terms E_i driven by the fitted coefficients."""
    _, g1, g2 = gamma
    return g2 * g2 * (y - 2.0 * y.mean()) + 2.0 * g1 * g2 * (z - z.mean())


def _split_V(y: np.ndarray, effects: np.ndarray) -> tuple[float, float]:
    """Split sum(y_i * E_i) by the sign of E_i; ties at zero count as plus."""
    terms = y * effects
    plus = effects >= 0
    return float(terms[plus].sum()), float(terms[~plus].sum())


def verify_theorem1(inst: TheoremInstance, tol: float = 1e-8) -> TheoremReport:
    """Fit both models, evaluate the identity, and enforce it.

    Raises InvariantError if the identity residual exceeds
    tol * max(1, |SSE_DI|) or the win condition disagrees with the sign
    of V+ + V- beyond that tolerance.
    """
    g = _fit_ols_full(inst)
    x, z, y = inst.x, inst.z, inst.y
    xhat = g[0] + g[1] * z + g[2] * y
    sse_iul = float(np.sum((xhat - x) ** 2))
    mux = float(x.mean())
    sst = float(np.sum((x - mux) ** 2))
    xd = g[0] + g[1] * z
    sse_di = sst - float(np.sum((xd - mux) ** 2))

    effects = _compute_E(z, y, g)
    v_plus, v_minus = _split_V(y, effects)
    if v_plus < 0 or v_minus > 0:
        raise InvariantError("V+ / V- landed on the wrong side of zero")
    vsum = v_plus + v_minus
    scale = max(1.0, abs(sse_di))
    residual = abs((sse_di - sse_iul) - vsum)
    if residual > tol * scale:
        raise InvariantError(
            f"identity violated: |(SSE_DI - SSE_IUL) - (V+ + V-)| = {residual:.3e} "
            f"> {tol:.1e} * {scale:.3e}"
        )
    iul_wins = sse_iul <= sse_di + tol * scale
    if iul_wins != (vsum >= -tol * scale):
        raise InvariantError("win condition disagrees with the sign of V+ + V-")
    return TheoremReport(
        gamma=g,
        v_plus=v_plus,
        v_minus=v_minus,
        sse_iul=sse_iul,
        sse_di=sse_di,
        identity_residual=residual,
        iul_wins=iul_wins,
    )


def _sample_instance(rng: np.random.Generator, n: int) -> TheoremInstance:
    """A random full-rank instance with non-negative labels."""
    if n < 3:
        raise DataError("need n >= 3")
    for _ in range(100):
        z = rng.normal(0.0, 2.0, n)
        y = np.abs(rng.normal(0.0, 2.0, n))
        x = rng.normal(0.0, 2.0, n)
        if np.linalg.matrix_rank(np.column_stack([np.ones(n), z, y])) == 3:
            return TheoremInstance(x, z, y)
    raise DataError("could not draw a full-rank instance")
