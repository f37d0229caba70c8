"""Every README ``python`` block that builds its own ``Database`` runs.

A block that opens a socket or reads a file (the quickstart's CSV, the
client/server and replication examples) needs more than the block itself
and is skipped; every other block that constructs a ``Database`` is run
as it stands, so an API the README still shows but the code no longer
has fails here rather than in a reader's terminal.
"""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"

#: what marks a block as needing a server, a socket or a file
_OUTSIDE = ("connect(", "Primary(", "Replica(", "read_csv", "COPY", "wal_path")


def _blocks() -> list[tuple[str, int, str]]:
    """``(section heading, line, body)`` of every block to run."""
    text = README.read_text()
    blocks = []
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        body = match.group(1)
        if "Database(" in body and not any(word in body for word in _OUTSIDE):
            heading = re.findall(r"^#+ (.*)$", text[: match.start()], re.M)[-1]
            line = text.count("\n", 0, match.start()) + 2
            blocks.append((heading, line, body))
    return blocks


BLOCKS = _blocks()


def test_the_self_contained_blocks_are_found():
    # the index, TRAIN, memory, plan-cache and EXPLAIN ANALYZE
    # examples at least
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize(
    "heading, line, body", BLOCKS, ids=[heading for heading, _, _ in BLOCKS]
)
def test_readme_block_runs(heading, line, body, capsys):
    namespace: dict = {}
    exec(compile(body, f"README.md:{line}", "exec"), namespace)
    assert capsys.readouterr().out or "print(" not in body
