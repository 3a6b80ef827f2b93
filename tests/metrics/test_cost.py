"""Unit tests for the cost models (Figure 9 pricing)."""

import pytest

from repro.metrics import (
    LAMBDA_GB_SECOND_USD,
    LAMBDA_PER_REQUEST_USD,
    VM_VCPU_SECOND_USD,
    lambda_cost,
    simplified_cost,
    vm_cost,
)


def test_lambda_cost_formula():
    # One instance busy 10 s with 30 GB + 1M requests.
    cost = lambda_cost([10_000.0], 1_000_000, 30.0)
    expected = 10 * 30 * LAMBDA_GB_SECOND_USD + 0.20
    assert cost == pytest.approx(expected)


def test_lambda_cost_zero_when_idle():
    assert lambda_cost([0.0, 0.0], 0, 30.0) == 0.0


def test_simplified_charges_provisioned_time():
    pay_per_use = lambda_cost([1_000.0], 100, 30.0)
    provisioned = simplified_cost([60_000.0], 100, 30.0)
    assert provisioned > pay_per_use


def test_vm_cost_matches_paper_calibration():
    # Figure 9: 512 vCPUs for 300 s cost $2.50.
    assert vm_cost(512.0, 300_000.0) == pytest.approx(2.50)


def test_vm_rate_constant():
    assert VM_VCPU_SECOND_USD == pytest.approx(2.50 / (300 * 512))


def test_per_request_price():
    assert LAMBDA_PER_REQUEST_USD == pytest.approx(0.20 / 1e6)
