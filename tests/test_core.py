"""Generic driftless core: field validation, feedback law, energy."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftless.core import VectorFieldSet, as_state, closed_loop_field, state_feedback
from driftless.errors import DimensionMismatchError
from driftless.simulate import IntegratorConfig, integrate, unicycle_field_set


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    max_norm_deviation: float  # max over samples and i of | ||S_i|| - 1 |
    max_orthogonality_deviation: float  # max over samples and i != j of | S_i . S_j |


def validate_fields(fields: VectorFieldSet, samples, tol: float) -> ValidationReport:
    """Check unit columns and mutual orthogonality of S at sampled states."""
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    norm_devs, ortho_devs = [], []
    for q in samples:
        s = fields.matrix(as_state(q))
        gram = s.T @ s
        norm_devs.append(np.max(np.abs(np.sqrt(np.diag(gram)) - 1.0)))
        ortho_devs.append(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    # np.max, not max(): a NaN deviation must fail the check
    max_norm, max_ortho = float(np.max(norm_devs)), float(np.max(ortho_devs))
    return ValidationReport(
        passed=max_norm <= tol and max_ortho <= tol,
        max_norm_deviation=max_norm,
        max_orthogonality_deviation=max_ortho,
    )


def test_validate_unicycle_fields_pass():
    report = validate_fields(unicycle_field_set(), [np.array([0.0, 0.0, 0.7])], 1e-12)
    assert report.passed
    assert report.max_norm_deviation <= 1e-12
    assert report.max_orthogonality_deviation <= 1e-12


def test_validate_duplicate_columns_fail():
    bad = VectorFieldSet(
        n=3, k=2, evaluate=lambda q: np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    )
    report = validate_fields(bad, [np.zeros(3)], 1e-12)
    assert not report.passed
    assert report.max_orthogonality_deviation == pytest.approx(1.0)


def test_validate_random_attitudes():
    rng = np.random.default_rng(7)
    samples = [np.array([0.0, 0.0, th]) for th in rng.uniform(-math.pi, math.pi, 100)]
    assert validate_fields(unicycle_field_set(), samples, 1e-12).passed


def test_validate_dimension_mismatch():
    bad = VectorFieldSet(n=3, k=2, evaluate=lambda q: np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        validate_fields(bad, [np.zeros(3)], 1e-12)


def test_validate_argument_errors():
    with pytest.raises(ValueError):
        validate_fields(unicycle_field_set(), [], 1e-12)
    with pytest.raises(ValueError):
        validate_fields(unicycle_field_set(), [np.zeros(3)], 0.0)


@pytest.mark.parametrize("call, match", [
    (lambda: as_state([[1.0, 0.0, 0.5]]), "must be a 1-D vector"),
    (lambda: as_state([1.0, math.nan, 0.5]), "entries must be finite"),
    (lambda: state_feedback([1.0, 0.0, 0.5], unicycle_field_set(), math.nan), "rho must be finite"),
], ids=["2-D-state", "non-finite-state", "non-finite-rho"])
def test_bad_inputs_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestStateFeedback:
    def test_zero_state(self):
        u = state_feedback(np.zeros(3), unicycle_field_set(), -3.7)
        assert np.all(u == 0.0)

    def test_hand_values_on_axis(self):
        # u1 = rho (x cos th + y sin th), u2 = rho th
        u = state_feedback([1.0, 0.0, 0.0], unicycle_field_set(), -1.0)
        assert np.allclose(u, [-1.0, 0.0])

    def test_hand_values_rotated(self):
        u = state_feedback([0.0, 1.0, math.pi / 2], unicycle_field_set(), -1.0)
        assert np.allclose(u, [-1.0, -math.pi / 2])

    @given(
        lam=st.floats(-10, 10),
        x=st.floats(-5, 5),
        y=st.floats(-5, 5),
        th=st.floats(-3, 3),
    )
    def test_linear_in_state_for_fixed_fields(self, lam, x, y, th):
        # hold S(q) fixed at some attitude and scale the state
        frozen = unicycle_field_set()
        fixed = VectorFieldSet(
            n=3, k=2, evaluate=lambda q, m=frozen.matrix(np.array([0, 0, 0.9])): m
        )
        q = np.array([x, y, th])
        u1 = state_feedback(q, fixed, -1.0)
        u2 = state_feedback(lam * q, fixed, -1.0)
        assert np.allclose(lam * u1, u2, atol=1e-9)


class TestClosedLoopField:
    def test_zero_state(self):
        assert np.all(closed_loop_field(np.zeros(3), unicycle_field_set(), -1.0) == 0.0)

    def test_axis_state(self):
        qdot = closed_loop_field([1.0, 0.0, 0.0], unicycle_field_set(), -1.0)
        assert np.allclose(qdot, [-1.0, 0.0, 0.0])

    def test_projection_at_zero_heading(self):
        # u1 = -1 projected through (cos 0, sin 0) ignores the y component
        qdot = closed_loop_field([1.0, 1.0, 0.0], unicycle_field_set(), -1.0)
        assert np.allclose(qdot, [-1.0, 0.0, 0.0])


def closed_loop(q):
    return np.asarray(
        closed_loop_field(q, unicycle_field_set(), -1.0), float
    )


def test_energy_identity_factor_half():
    # E(t) = (rho/2)(||q(t)||^2 - ||q(0)||^2) with rho = -1
    q0 = np.array([1.0, 0.0, 0.5])
    traj = integrate(closed_loop, q0, IntegratorConfig(step=1e-3, t_end=20.0))
    expected = 0.5 * (q0 @ q0 - traj.final_state @ traj.final_state)
    assert traj.energy[-1] == pytest.approx(expected, rel=1e-6)


def test_norm_monotone_for_negative_gain():
    q0 = np.array([2.0, -1.0, 1.2])
    traj = integrate(closed_loop, q0, IntegratorConfig(step=1e-3, t_end=10.0))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.all(np.diff(norms) <= 1e-12)


def test_bounded_energy_forces_vanishing_integrand():
    # Barbalat-style chain: once the energy increments stall, the terminal
    # squared speed must be proportionally small
    q0 = np.array([1.0, 1.0, 0.8])
    traj = integrate(closed_loop, q0, IntegratorConfig(step=1e-3, t_end=30.0))
    window = traj.energy[-1] - traj.energy[int(0.9 * len(traj.energy))]
    assert window < 1e-8
    qdot = closed_loop(traj.final_state)
    assert float(qdot @ qdot) < 1e-6
