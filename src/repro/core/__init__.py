"""λFS: the serverless metadata service (the paper's contribution).

Public surface:

* :class:`LambdaFS` — wires the FaaS platform, persistent store,
  Coordinator and deployments into a running metadata service.
* :class:`LambdaFSClient` — the client library: namespace
  partitioning, hybrid TCP/HTTP RPC with randomized replacement,
  straggler mitigation, anti-thrashing, and transparent retry.
* :class:`LambdaNameNode` — the serverless NameNode application that
  executes inside FaaS function instances.
"""

from repro.core.autoscaling import desired_scale
from repro.core.client import ClientConfig, LambdaFSClient
from repro.core.errors import (
    AlreadyExistsError,
    FsError,
    NotADirectoryError,
    NotDirEmptyError,
    NotFoundError,
)
from repro.core.fs import LambdaFS, LambdaFSConfig
from repro.core.messages import MetadataRequest, MetadataResponse, OpType
from repro.core.namenode import LambdaNameNode, NameNodeConfig

__all__ = [
    "AlreadyExistsError",
    "ClientConfig",
    "FsError",
    "LambdaFS",
    "LambdaFSClient",
    "LambdaFSConfig",
    "LambdaNameNode",
    "MetadataRequest",
    "MetadataResponse",
    "NameNodeConfig",
    "NotADirectoryError",
    "NotDirEmptyError",
    "NotFoundError",
    "OpType",
    "desired_scale",
]
