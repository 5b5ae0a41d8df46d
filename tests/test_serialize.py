"""Binary parameter format: round trips, determinism, and corruption handling."""

import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sga.autodiff import Parameter
from sga.errors import ConfigError, NumericError
from sga.serialize import MAGIC, load_into, load_parameters, save_parameters


def _params(rng):
    return [
        Parameter("b.vector", rng.standard_normal(5)),
        Parameter("a.matrix", rng.standard_normal((3, 4))),
        Parameter("c.scalarish", rng.standard_normal((1,))),
    ]


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = _params(rng)
    path = tmp_path / "params.sga"
    save_parameters(path, params)
    loaded = load_parameters(path)
    assert set(loaded) == {p.name for p in params}
    for p in params:
        assert np.array_equal(loaded[p.name], p.data)


def test_ordering_by_name_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    params = _params(rng)
    first = tmp_path / "one.sga"
    second = tmp_path / "two.sga"
    save_parameters(first, params)
    save_parameters(second, list(reversed(params)))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(MAGIC)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.sga"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_parameters(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "bad.sga"
    name = b"\xffw"  # one rank-0 parameter whose name bytes are not UTF-8
    path.write_bytes(MAGIC + struct.pack("<I", len(name)) + name + struct.pack("<Id", 0, 1.0))
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameter name is not valid UTF-8")):
        load_parameters(path)


def test_huge_shape_reads_as_truncated(tmp_path):
    """2**21 * 2**21 * 2**22 = 2**64 values: the count must not wrap to 0."""
    path = tmp_path / "huge.sga"
    shape = struct.pack("<4I", 3, 2**21, 2**21, 2**22)
    path.write_bytes(MAGIC + struct.pack("<I", 1) + b"w" + shape + struct.pack("<d", 1.0))
    with pytest.raises(ValueError, match=re.escape(f"{path}: truncated payload for 'w'")):
        load_parameters(path)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "cut.sga"
    save_parameters(path, _params(rng))
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ValueError, match="truncated"):
        load_parameters(path)


def test_non_finite_payload_rejected(tmp_path):
    p = Parameter("w", np.ones(3))
    path = tmp_path / "nan.sga"
    save_parameters(path, [p])
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(NumericError):
        load_parameters(path)


@settings(max_examples=30, deadline=None)
@given(
    names=st.lists(
        st.text(
            st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
        ),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_round_trip_arbitrary_names_and_shapes(names, seed):
    rng = np.random.default_rng(seed)
    params = []
    for name in names:
        rank = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(1, 4)) for _ in range(rank))
        params.append(Parameter(name, rng.standard_normal(shape)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.sga"
        save_parameters(path, params)
        loaded = load_parameters(path)
    assert set(loaded) == set(names)
    for p in params:
        assert loaded[p.name].shape == p.data.shape
        assert np.array_equal(loaded[p.name], p.data)


def test_load_into_checks_names_and_shapes(tmp_path):
    rng = np.random.default_rng(3)
    params = _params(rng)
    path = tmp_path / "params.sga"
    save_parameters(path, params)

    renamed = [Parameter("different", rng.standard_normal(5))]
    with pytest.raises(ConfigError):
        load_into(renamed, path)

    reshaped = [
        Parameter("b.vector", rng.standard_normal(6)),
        Parameter("a.matrix", rng.standard_normal((3, 4))),
        Parameter("c.scalarish", rng.standard_normal((1,))),
    ]
    with pytest.raises(ConfigError):
        load_into(reshaped, path)

    fresh = [
        Parameter("b.vector", np.zeros(5)),
        Parameter("a.matrix", np.zeros((3, 4))),
        Parameter("c.scalarish", np.zeros((1,))),
    ]
    load_into(fresh, path)
    for original, copy in zip(params, fresh):
        assert np.array_equal(original.data, copy.data)
