import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# the references in helpers.py check their postconditions with assert, which
# python -O strips unless pytest rewrites the module as it does the tests
pytest.register_assert_rewrite("helpers")


@pytest.fixture
def c4_passes(monkeypatch):
    """The `alive` mask of each `is_c4_free` call the test makes, from
    `pipeline` or from `oracles` (where `graph_c4_free` calls it)."""
    from c4lab import oracles, pipeline

    passes = []
    real = oracles.is_c4_free

    def counted(nbr, alive):
        passes.append(alive)
        return real(nbr, alive)

    monkeypatch.setattr(oracles, "is_c4_free", counted)
    monkeypatch.setattr(pipeline, "is_c4_free", counted)
    return passes
