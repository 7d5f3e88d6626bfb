import decimal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def _decimal_settings():
    ctx = decimal.getcontext()
    return ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.capitals, ctx.clamp, dict(ctx.traps)


@pytest.fixture(autouse=True)
def decimal_context_unchanged():
    """Errors a test that leaves the process-wide ``Decimal`` context
    changed, which every later test in the process would run under; a test
    changes it only inside ``decimal.localcontext()``."""
    before = _decimal_settings()
    yield
    assert _decimal_settings() == before, "test changed the process-wide Decimal context"


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` replaces ``fn`` in every berklip module that binds
    it by name and returns a list that gains one entry per call."""

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "berklip" or name.startswith("berklip.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
