"""Every test starts from an empty table of held texts, so a test that relies
on decoded values being shared by identity sees the same table whatever ran
before it."""

import pytest

from support import empty_held_texts


@pytest.fixture(autouse=True)
def _empty_held_texts():
    empty_held_texts()
