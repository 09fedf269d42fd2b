import pytest

import strmv.models
from strmv.sketch import SketchedFactor


@pytest.fixture
def unsketched(monkeypatch):
    """Model builders see the factor itself as its sketch: pass a config with
    s == T, and ``build_sketch`` or ``build_str`` works on L undistorted."""

    def keep_factor(factor, cfg):
        assert cfg.s == factor.columns, f"an unsketched factor needs s == T, got s={cfg.s}"
        return SketchedFactor(factor.L, cfg, 0)

    monkeypatch.setattr(strmv.models, "apply_sketch", keep_factor)
