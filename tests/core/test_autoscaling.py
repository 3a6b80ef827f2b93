"""Unit tests for the Figure 6 auto-scaling model."""

import pytest

from repro.core import LambdaFS, LambdaFSConfig
from repro.core.autoscaling import desired_scale
from repro.faas import FaaSConfig
from repro.sim import Environment


def test_desired_scale_formula():
    # DesiredScale = NumDeployments + TcpHttpReplace% * alpha
    assert desired_scale(10, 0.01, 1000) == 20


def test_desired_scale_minimum_is_deployments():
    assert desired_scale(5, 0.0, 100000) == 5


def test_desired_scale_validation():
    with pytest.raises(ValueError):
        desired_scale(0, 0.01, 10)
    with pytest.raises(ValueError):
        desired_scale(5, 1.5, 10)
    with pytest.raises(ValueError):
        desired_scale(5, 0.01, -1)


def test_replacement_probability_scales_fleet():
    low = desired_scale(16, 0.001, 50_000)
    high = desired_scale(16, 0.01, 50_000)
    assert high > low


def test_model_clips_at_resource_bound():
    # LambdaFS clips Figure 6's expected scale at the cluster's vCPU
    # bound, ClusterCPU / PerNameNodeCPU.
    def desired(deployments, vcpus):
        fs = LambdaFS(Environment(), LambdaFSConfig(
            num_deployments=deployments,
            faas=FaaSConfig(cluster_vcpus=vcpus, vcpus_per_instance=4.0),
        ))
        return fs._desired_namenodes()

    # No load (α = 0): the formula gives the deployment count, 10,
    # and 32 / 4 = 8 NameNodes bind.
    assert desired(10, 32.0) == pytest.approx(8)
    # Below the bound the formula stands.
    assert desired(4, 64.0) == pytest.approx(4)
