"""Every CI workflow parses as YAML without duplicate mapping keys.

A plain YAML loader keeps the *last* of two equal keys, so a lost job
key (the steps of one job merging into the one above it) silently drops
a CI job instead of failing.  This loader refuses duplicates.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted(
    (Path(__file__).resolve().parent.parent / ".github" / "workflows").glob("*.yml")
)


class _UniqueKeyLoader(yaml.SafeLoader):
    pass


def _construct_unique_mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping",
                node.start_mark,
                f"found duplicate key {key!r}",
                key_node.start_mark,
            )
        seen.add(key)
    return loader.construct_mapping(node, deep=deep)


_UniqueKeyLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_unique_mapping
)


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_has_no_duplicate_keys(path):
    document = yaml.load(path.read_text(), Loader=_UniqueKeyLoader)
    for name, job in document["jobs"].items():
        assert "runs-on" in job and "steps" in job, name


def test_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key"):
        yaml.load("a:\n  x: 1\n  x: 2\n", Loader=_UniqueKeyLoader)
