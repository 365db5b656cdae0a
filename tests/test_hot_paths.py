"""Static guard on the sampling and selection hot paths.

On numpy 2.4 a plain ``np.unique`` of an int64 array goes through a hash
table: 73-82 ms for 2.4e5 keys against 2.0 ms for ``np.sort`` of the same
keys on a 2-core x86 host, 35-40x slower.  The hot-path modules take sorted distinct keys
from ``limax.rrset._distinct`` instead; ``np.unique`` stays allowed where
it returns an index, an inverse or counts.
"""

import ast
from pathlib import Path

import pytest

import limax

HOT_MODULES = ["rrset.py", "immvsn.py", "immprr.py", "oracles.py"]
ALLOWED = {"return_index", "return_inverse", "return_counts"}


def _plain_unique_calls(source: str) -> list[int]:
    """Line numbers of ``np.unique`` / ``numpy.unique`` calls without any
    ``return_*`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "unique" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy") \
                and not ALLOWED & {k.arg for k in node.keywords}:
            lines.append(node.lineno)
    return lines


def test_guard_flags_plain_unique():
    assert _plain_unique_calls("np.unique(a)\nnp.unique(a, return_inverse=True)\n") == [1]


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_hash_based_unique_on_hot_paths(module):
    path = Path(limax.__file__).parent / module
    lines = _plain_unique_calls(path.read_text())
    assert not lines, (
        f"{module} calls np.unique on line(s) {lines}: on int64 keys it takes a "
        "hash-table path measured 35-40x slower than a sort; use "
        "limax.rrset._distinct (np.sort plus a neighbour-inequality mask)")
