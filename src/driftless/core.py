"""Generic driftless systems q' = S(q) u and the projection feedback law.

The feedback u_i = rho * q . S_i(q) (rho < 0) drives any system whose
control vector fields have unit-norm, mutually orthogonal columns toward
the origin.  Stability is certified through boundedness of the accumulated
squared speed integral E(t) = int_0^t ||q'||^2 dt, which along the closed
loop satisfies the identity E(t) = (rho/2)(||q(t)||^2 - ||q(0)||^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError


def as_state(q) -> np.ndarray:
    """Coerce to a finite 1-D float vector."""
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError(f"state must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state entries must be finite")
    return arr


@dataclass(frozen=True)
class VectorFieldSet:
    """A collection of k control vector fields on an n-dimensional state.

    ``evaluate(q)`` must return the n x k matrix whose columns are the
    fields at q.  Column orthonormality is a hypothesis of the feedback
    law; this class does not check it.
    """

    n: int
    k: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    def matrix(self, q: np.ndarray) -> np.ndarray:
        s = np.asarray(self.evaluate(q), dtype=float)
        if s.shape != (self.n, self.k):
            raise DimensionMismatchError(
                f"field matrix has shape {s.shape}, expected {(self.n, self.k)}"
            )
        return s


def state_feedback(q, fields: VectorFieldSet, rho: float) -> np.ndarray:
    """Control vector u with u_i = rho * (q . S_i(q))."""
    qv = as_state(q)
    if not np.isfinite(rho):
        raise ValueError("rho must be finite")
    s = fields.matrix(qv)
    return rho * (s.T @ qv)


def closed_loop_field(q, fields: VectorFieldSet, rho: float) -> np.ndarray:
    """State derivative under the feedback: q' = S(q) u, u = state_feedback(q)."""
    return fields.matrix(as_state(q)) @ state_feedback(q, fields, rho)
