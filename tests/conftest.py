"""Fixtures shared by the test modules."""

import pytest

from hypderiv import jets


@pytest.fixture
def rerun_precisions(monkeypatch):
    """The precision in bits of each fixed-point field built while the test
    runs, in order: the steps of every rerun's self-check."""
    precisions = []
    init = jets._Fixed.__init__

    def recording(self, p):
        precisions.append(p)
        init(self, p)

    monkeypatch.setattr(jets._Fixed, "__init__", recording)
    return precisions
