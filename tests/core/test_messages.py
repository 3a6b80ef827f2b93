"""Unit tests for the RPC message types."""

import pytest

from repro.core.messages import MetadataRequest, MetadataResponse, OpType
from repro.sim import Environment


def test_write_op_classification():
    assert OpType.CREATE_FILE.is_write
    assert OpType.MKDIRS.is_write
    assert OpType.DELETE.is_write
    assert OpType.MV.is_write
    assert not OpType.READ_FILE.is_write
    assert not OpType.STAT.is_write
    assert not OpType.LS.is_write


def test_subtree_capable_ops():
    assert OpType.MV.is_subtree_capable
    assert OpType.DELETE.is_subtree_capable
    assert not OpType.CREATE_FILE.is_subtree_capable
    assert not OpType.READ_FILE.is_subtree_capable


def test_request_ids_are_unique():
    env = Environment()
    assert [env.next_id("request") for _ in range(3)] == [1, 2, 3]
    # Another run numbers its requests from 1 again, whatever ran before.
    assert Environment().next_id("request") == 1
    # Each kind is its own sequence.
    assert env.next_id("client") == 1


def test_request_id_is_required():
    with pytest.raises(TypeError):
        MetadataRequest(op=OpType.STAT, path="/x")


def test_request_defaults():
    request = MetadataRequest(op=OpType.MV, path="/a", dst_path="/b",
                              request_id=1)
    assert request.attempt == 1
    assert request.tcp_servers == ()
    assert not request.recursive
    assert request.payload is None


def test_response_defaults():
    response = MetadataResponse(request_id=1, ok=True, value=42)
    assert response.error is None
    assert not response.cache_hit
    assert response.served_by == ""


def test_op_values_match_table2_vocabulary():
    # The op names are exactly the paper's Table 2 row labels.
    assert OpType.CREATE_FILE.value == "create file"
    assert OpType.DELETE.value == "delete file/dir"
    assert OpType.STAT.value == "stat file/dir"
