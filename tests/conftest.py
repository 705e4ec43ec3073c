"""Every test starts from empty intern tables and an empty table of held
texts, so a test that relies on decoded values being shared by identity sees
the same tables whatever ran before it."""

import pytest

from support import empty_intern_tables


@pytest.fixture(autouse=True)
def _empty_intern_tables():
    empty_intern_tables()
