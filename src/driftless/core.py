"""Generic driftless systems q' = S(q) u and the projection feedback law.

The feedback u_i = rho * q . S_i(q) (rho < 0) drives any system whose
control vector fields have unit-norm, mutually orthogonal columns toward
the origin.  Stability is certified through boundedness of the accumulated
squared speed integral E(t) = int_0^t ||q'||^2 dt, which along the closed
loop satisfies the identity E(t) = (rho/2)(||q(t)||^2 - ||q(0)||^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
    law; it is checked by :func:`validate_fields`, never assumed.
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


@dataclass(frozen=True)
class SampleDeviation:
    """Worst orthonormality defects of S(q) at one sampled state."""

    norm_deviation: float  # max_i | ||S_i|| - 1 |
    orthogonality_deviation: float  # max_{i != j} | S_i . S_j |


@dataclass(frozen=True)
class ValidationReport:
    tol: float
    per_sample: tuple[SampleDeviation, ...]
    passed: bool
    max_norm_deviation: float
    max_orthogonality_deviation: float


def validate_fields(
    fields: VectorFieldSet, samples: Sequence, tol: float
) -> ValidationReport:
    """Check unit columns and mutual orthogonality of S at sampled states."""
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    per = []
    for q in samples:
        s = fields.matrix(as_state(q))
        gram = s.T @ s
        norm_dev = float(np.max(np.abs(np.sqrt(np.diag(gram)) - 1.0)))
        if fields.k > 1:
            off = gram - np.diag(np.diag(gram))
            ortho_dev = float(np.max(np.abs(off)))
        else:
            ortho_dev = 0.0
        per.append(SampleDeviation(norm_dev, ortho_dev))
    max_norm = max(d.norm_deviation for d in per)
    max_ortho = max(d.orthogonality_deviation for d in per)
    return ValidationReport(
        tol=tol,
        per_sample=tuple(per),
        passed=max_norm <= tol and max_ortho <= tol,
        max_norm_deviation=max_norm,
        max_orthogonality_deviation=max_ortho,
    )


def state_feedback(q, fields: VectorFieldSet, rho: float) -> np.ndarray:
    """Control vector u with u_i = rho * (q . S_i(q))."""
    qv = as_state(q)
    if not np.isfinite(rho):
        raise ValueError("rho must be finite")
    s = fields.matrix(qv)
    return rho * (s.T @ qv)


def closed_loop_field(q, fields: VectorFieldSet, rho: float) -> np.ndarray:
    """State derivative under the feedback: q' = rho * sum_i S_i (q . S_i)."""
    qv = as_state(q)
    s = fields.matrix(qv)
    return s @ (rho * (s.T @ qv))
