"""Unit tests for tree generation."""

from repro.namespace.treegen import TreeSpec, flat_directory, generate_tree


def test_generate_tree_counts():
    spec = TreeSpec(depth=2, dirs_per_dir=2, files_per_dir=3, root="/r")
    tree = generate_tree(spec)
    # Directories: root + 2 + 4 = 7; each of the 7 gets 3 files.
    assert len(tree.directories) == 7
    assert len(tree.files) == 21


def test_generate_tree_deterministic():
    spec = TreeSpec(depth=2, dirs_per_dir=2, files_per_dir=1)
    assert generate_tree(spec).files == generate_tree(spec).files


def test_all_files_under_root():
    tree = generate_tree(TreeSpec(root="/data"))
    assert all(path.startswith("/data/") for path in tree.files)


def test_flat_directory():
    tree = flat_directory("/big", 100)
    assert len(tree.files) == 100
    assert tree.directories == ["/big"]
    assert tree.files[0] == "/big/f0"
