import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# the references in helpers.py check their postconditions with assert, which
# python -O strips unless pytest rewrites the module as it does the tests
pytest.register_assert_rewrite("helpers")
