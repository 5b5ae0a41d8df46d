"""Configuration validation, file parsing, and seed resolution."""

import pytest

from sga.config import PipelineConfig, load_config, resolve_seed


def test_defaults():
    config = PipelineConfig()
    assert (config.d_model, config.d_e, config.d_h) == (256, 200, 200)
    assert (config.n_blocks, config.heads, config.d_ff) == (6, 4, 1024)
    assert config.d_head == 64
    assert config.use_positions and config.max_chars == 400


def test_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        PipelineConfig(d_model=10, heads=4)


def test_positivity_enforced():
    with pytest.raises(ValueError):
        PipelineConfig(d_model=0)
    with pytest.raises(ValueError):
        PipelineConfig(d_ff=-1)
    PipelineConfig(n_blocks=0)  # a blockless stack is legal


def test_toy_overrides():
    config = PipelineConfig.toy(seed=5)
    assert config.d_model == 16 and config.heads == 2 and config.seed == 5


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nd_model=32\n heads = 4 \nuse_positions=off\n")
    config = load_config(path)
    assert config.d_model == 32
    assert config.heads == 4
    assert config.use_positions is False


def test_load_config_skips_byte_order_mark(tmp_path):
    text = "# comment\nd_model=32\n heads = 4 \nuse_positions=off\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(bom) == load_config(plain)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frobnicate=1\n")
    with pytest.raises(ValueError, match="frobnicate"):
        load_config(path)


def test_load_config_rejects_bad_booleans(tmp_path):
    path = tmp_path / "run.cfg"
    for line, field in (("use_positions=maybe", "use_positions"), ("d_model=abc", "d_model")):
        path.write_text(f"# comment\nheads=2\n{line}\n")
        with pytest.raises(ValueError, match=rf"run\.cfg:3: {field}: cannot parse"):
            load_config(path)


def test_load_config_names_line_of_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nd_model=16\nheads=0\n")
    with pytest.raises(ValueError, match=r"run\.cfg:3: heads must be positive"):
        load_config(path)


def test_load_config_names_file_for_divisibility(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d_model=10\nheads=4\n")
    with pytest.raises(ValueError, match=r"run\.cfg: d_model \(10\) must be divisible"):
        load_config(path)


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        PipelineConfig(seed=-1)
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed=-1\n")
    with pytest.raises(ValueError, match=r"run\.cfg:2: seed must be non-negative"):
        load_config(path)


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv("SGA_SEED", raising=False)
    assert resolve_seed(None) == 0
    monkeypatch.setenv("SGA_SEED", "41")
    assert resolve_seed(None) == 41
    assert resolve_seed(7) == 7



def test_load_config_overrides_apply_before_validation(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("d_model=12\nheads=5\nseed=5\n")
    config = load_config(path, heads=3)
    assert (config.d_model, config.heads, config.seed) == (12, 3, 5)
    assert load_config(path, heads=4, seed=1).seed == 1
    with pytest.raises(ValueError, match="heads must be positive"):
        load_config(path, heads=0)


def test_resolve_seed_fallback(monkeypatch):
    monkeypatch.delenv("SGA_SEED", raising=False)
    assert resolve_seed(None, fallback=None) is None
    monkeypatch.setenv("SGA_SEED", "4")
    assert resolve_seed(None, fallback=None) == 4
    assert resolve_seed(2, fallback=None) == 2
