"""Property-based tests for the memoised partition index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import stable_hash
from repro.core.partitioning import NamespacePartitioner

component = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1, max_size=4,
)
raw_path = st.builds(
    lambda parts, trailing: "/" + "/".join(parts) + ("/" if trailing else ""),
    st.lists(component, min_size=0, max_size=4),
    st.booleans(),
)


def uncached_index(path: str, deployments: int) -> int:
    """Deployment index straight from the hash of the anchor directory."""
    parts = [part for part in path.split("/") if part]
    anchor = "/" + "/".join(parts[:-1])
    return stable_hash(anchor) % deployments


@settings(max_examples=300)
@given(st.lists(raw_path, min_size=1, max_size=12), st.integers(1, 24))
def test_memoised_index_equals_uncached_hash(path_list, deployments):
    partitioner = NamespacePartitioner(deployments)
    for _ in range(2):  # the second pass answers from the memo
        for path in path_list + ["/", "//"]:
            index = partitioner.index_for(path)
            assert index == uncached_index(path, deployments)
            assert partitioner.deployment_for(path) == f"NameNode{index}"


@given(raw_path, st.integers(1, 24))
def test_trailing_slash_shares_the_anchor(path, deployments):
    partitioner = NamespacePartitioner(deployments)
    assert partitioner.index_for(path) == partitioner.index_for(path + "/")
