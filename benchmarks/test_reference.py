"""Self-test of the independent reference against values worked by hand."""

import math

import numpy as np
import pytest

import reference as ref


def test_readme_two_eigenvalue_example():
    # floors 1/2 and 1; level (2.5 + 1.5) / 2 = 2; (1/2) log(2*2 * 2*1) = (1/2) log 8
    assert ref.dense_capacity([2.0, 1.0], 1.0, 2.5, 2) == pytest.approx(
        1.0397207708399179, abs=1e-13)
    assert 0.5 * math.log(8.0) == pytest.approx(1.0397207708399179, abs=1e-15)


def test_single_active_component():
    # floors 1/4 and 1, second enters at F = 3/4; at F = 1/2 the level is 3/4
    assert ref.dense_capacity([4.0, 1.0], 1.0, 0.5, 2) == pytest.approx(
        0.5 * math.log(3.0), abs=1e-14)
    # one usable component: (1/2) log(1 + F lambda / s)
    assert ref.dense_capacity([4.0, 1.0], 2.0, 3.0, 1) == pytest.approx(
        0.5 * math.log(1.0 + 3.0 * 4.0 / 2.0), abs=1e-14)


def test_zero_budget_and_vector_shape():
    values = ref.dense_capacity([3.0, 2.0, 1.0], 1.0, np.array([0.0, 0.0, 1.0]), 3)
    assert values.shape == (3,)
    assert values[0] == 0.0 and values[1] == 0.0 and values[2] > 0.0
    assert ref.dense_capacity([3.0], 1.0, 0.0, 1) == 0.0


def test_breakpoints_by_hand():
    # floors 1/4, 1/2, 1: entries at 0, 1/4 - ... = 0.25, (1 - 1/4) + (1 - 1/2) = 1.25
    assert ref.breakpoints([1.0, 4.0, 2.0], 1.0, 3) == pytest.approx([0.0, 0.25, 1.25])
    assert ref.breakpoints([4.0, 2.0, 1.0], 2.0, 2) == pytest.approx([0.0, 0.5])


def test_capacity_is_continuous_at_a_breakpoint():
    lam, bp = [4.0, 1.0], 0.75
    below = ref.dense_capacity(lam, 1.0, bp * (1 - 1e-12), 2)
    above = ref.dense_capacity(lam, 1.0, bp * (1 + 1e-12), 2)
    assert above - below == pytest.approx(0.0, abs=1e-11)
    assert ref.dense_capacity(lam, 1.0, bp, 2) == pytest.approx(0.5 * math.log(4.0), abs=1e-14)


def test_conv_is_repetitions_times_dense_on_a_rotated_block():
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    block = rot @ np.diag([2.0, 1.0]) @ rot.T
    assert ref.conv_capacity(block, 3, 2, 1.0, 2.5) == pytest.approx(
        3 * 1.0397207708399179, abs=1e-12)
    # one filter: only the top component of each block is usable
    assert ref.conv_capacity(block, 3, 1, 1.0, 2.5) == pytest.approx(
        3 * 0.5 * math.log(6.0), abs=1e-12)


def test_mlp_uses_the_narrowest_width():
    assert ref.mlp_capacity([2.0, 1.0], (5, 1, 7), 1.0, 2.5) == pytest.approx(
        0.5 * math.log(6.0), abs=1e-14)
    assert ref.mlp_capacity([2.0, 1.0], (5, 3), 1.0, 2.5) == pytest.approx(
        1.0397207708399179, abs=1e-13)


def test_linear_mi_by_hand():
    cov = np.diag([2.0, 1.0])
    assert ref.linear_mi(np.eye(2), cov, 1.0) == pytest.approx(0.5 * math.log(6.0))
    # the water-filled weights of the README example reach its capacity
    weights = np.diag(np.sqrt([1.5, 1.0]))
    assert ref.linear_mi(weights, cov, 1.0) == pytest.approx(1.0397207708399179, abs=1e-14)
    assert ref.linear_mi(np.zeros((3, 2)), cov, 1.0) == 0.0
