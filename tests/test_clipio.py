import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshield import clipio
from spinshield.errors import DataFormatError
from spinshield.spectral import DEFAULT_FPS, PatchSignalClip

from conftest import random_clip


def test_csv_round_trip_bit_exact(rng, tmp_path):
    clip = random_clip(rng, patches=4, frames=16, fps=30.0)
    path = tmp_path / "clip.csv"
    clipio.write_clip_csv(clip, path)
    back = clipio.read_clip_csv(path)
    np.testing.assert_array_equal(back.signals, clip.signals)
    assert back.fps == clip.fps


def test_binary_round_trip_bit_exact(rng, tmp_path):
    for i in range(50):
        clip = random_clip(rng, patches=2 + i % 3, frames=8 + i % 5)
        path = tmp_path / f"clip_{i}.spsc"
        clipio.write_clip_binary(clip, path)
        back = clipio.read_clip_binary(path)
        np.testing.assert_array_equal(back.signals, clip.signals)


def test_cross_format_agreement(rng, tmp_path):
    clip = random_clip(rng, patches=3, frames=12)
    clipio.write_clip_csv(clip, tmp_path / "a.csv")
    clipio.write_clip_binary(clip, tmp_path / "a.spsc")
    from_csv = clipio.read_clip_csv(tmp_path / "a.csv")
    from_bin = clipio.read_clip_binary(tmp_path / "a.spsc")
    np.testing.assert_allclose(from_csv.signals, from_bin.signals, rtol=1e-15, atol=0)


def test_binary_magic_and_layout(rng, tmp_path):
    clip = PatchSignalClip(signals=np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "c.spsc"
    clipio.write_clip_binary(clip, path)
    raw = path.read_bytes()
    assert raw[:4] == b"SPSC"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    np.testing.assert_array_equal(np.frombuffer(raw, dtype="<f8", offset=12), [1.0, 2.0, 3.0, 4.0])


def test_csv_nan_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,t,value\n0,0,1.0\n0,1,nan\n", encoding="utf-8")
    clipio.sidecar_path(path).write_text('{"M": 1, "T": 2, "fps": 25}', encoding="utf-8")
    with pytest.raises(DataFormatError, match=":3:"):
        clipio.read_clip_csv(path)


def test_csv_missing_entry_reported(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("m,t,value\n0,0,1.0\n", encoding="utf-8")
    clipio.sidecar_path(path).write_text('{"M": 1, "T": 2, "fps": 25}', encoding="utf-8")
    with pytest.raises(DataFormatError, match="missing entry"):
        clipio.read_clip_csv(path)


def test_csv_bad_field_count(tmp_path):
    path = tmp_path / "fields.csv"
    path.write_text("m,t,value\n0,0\n", encoding="utf-8")
    clipio.sidecar_path(path).write_text('{"M": 1, "T": 2, "fps": 25}', encoding="utf-8")
    with pytest.raises(DataFormatError, match="expected 3 fields"):
        clipio.read_clip_csv(path)


def test_csv_missing_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("m,t,value\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="sidecar"):
        clipio.read_clip_csv(path)


def test_binary_truncation_rejected(rng, tmp_path):
    clip = random_clip(rng)
    path = tmp_path / "t.spsc"
    clipio.write_clip_binary(clip, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataFormatError, match="expected"):
        clipio.read_clip_binary(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "m.spsc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        clipio.read_clip_binary(path)


def test_unknown_format_rejected(rng, tmp_path):
    with pytest.raises(ValueError, match="format"):
        clipio.write_clip(random_clip(rng), tmp_path / "x", "parquet")


def test_csv_text_layout(tmp_path):
    # the writer's bytes: header, then one repr-valued line per entry, row-major
    signals = np.array([[1.0, -0.0], [5e-324, 1e308]])
    path = tmp_path / "c.csv"
    clipio.write_clip(PatchSignalClip(signals=signals), path, "csv")
    assert path.read_bytes() == b"m,t,value\n0,0,1.0\n0,1,-0.0\n1,0,5e-324\n1,1,1e+308\n"
    assert clipio.sidecar_path(path).read_text() == '{"M": 2, "T": 2, "fps": 25.0}'


def test_dataset_csv_clip_has_no_sidecar(rng, tmp_path):
    clip = random_clip(rng, patches=3, frames=5)
    path = tmp_path / "c.csv"
    clipio.write_clip(clip, path, "csv", sidecar=False)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]
    back = clipio.read_clip(path, "csv", (3, 5))
    np.testing.assert_array_equal(back.signals, clip.signals)
    assert back.fps == DEFAULT_FPS
    with pytest.raises(DataFormatError, match="missing sidecar"):
        clipio.read_clip(path, "csv")


def test_binary_clip_must_have_the_stated_shape(rng, tmp_path):
    path = tmp_path / "c.spsc"
    clipio.write_clip(random_clip(rng, patches=3, frames=5), path, "binary")
    assert clipio.read_clip(path, "binary", (3, 5)).signals.shape == (3, 5)
    with pytest.raises(DataFormatError, match="clip is 3x5, its manifest states 5x3"):
        clipio.read_clip(path, "binary", (5, 3))


# values whose repr round trip is easy to get wrong
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1e16, 123456789.0]


@st.composite
def _signals(draw):
    m, t = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
    return np.array(draw(st.lists(value, min_size=m * t, max_size=m * t))).reshape(m, t)


def _outcome(read):
    try:
        return "ok", read().tobytes()
    except Exception as exc:  # the type and the words are what is compared
        return type(exc), str(exc)


class TestOnePassReader:
    """The one-pass CSV parse reads what the line validator reads, and leaves
    every other text, and so every error message, to the validator."""

    @settings(max_examples=150, deadline=None)
    @given(signals=_signals())
    def test_round_trip_equals_the_validator(self, signals):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            clipio.write_clip(PatchSignalClip(signals=signals), path, "csv", sidecar=False)
            fast = clipio._parse_exact(path.read_text(encoding="utf-8"), *signals.shape)
            assert fast is not None  # the writer's text takes the one pass
            slow = clipio._read_csv_lines(path, *signals.shape)
            back = clipio.read_clip(path, "csv", signals.shape)
        for got in (fast, slow, back.signals):
            assert got.tobytes() == signals.tobytes()  # bit for bit, the sign of -0.0 too

    MUTATIONS = ("swap", "blank", "pad", "duplicate", "drop", "nan", "extra field", "missing field", "header",
                 "unended line")

    @staticmethod
    def _mutate(text: str, kind: str, i: int, j: int) -> str:
        """The writer's text with one edit; i and j index its entry lines."""
        header, *body, _ = text.split("\n")
        if kind == "swap":
            body[i], body[j] = body[j], body[i]
        elif kind == "blank":
            body.insert(i, "")
        elif kind == "pad":
            body[i] = f" \t{body[i]}  "
        elif kind == "duplicate":
            body.insert(j, body[i])
        elif kind == "drop":
            del body[i]
        elif kind == "nan":
            body[i] = body[i].rsplit(",", 1)[0] + ",nan"
        elif kind == "extra field":
            body[i] += ",1"
        elif kind == "missing field":
            body[i] = body[i].rsplit(",", 1)[0]
        elif kind == "header":
            header = "m,t,val"
        else:  # one more line, with no newline after it: the line count of a whole text
            return text + body[i]
        return "\n".join([header, *body]) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(signals=_signals(), kind=st.sampled_from(MUTATIONS), data=st.data())
    def test_mutated_text_reads_as_the_validator_reads_it(self, signals, kind, data):
        m, t = signals.shape
        i, j = (data.draw(st.integers(0, m * t - 1)) for _ in range(2))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            clipio.write_clip(PatchSignalClip(signals=signals), path, "csv", sidecar=False)
            text = self._mutate(path.read_text(encoding="utf-8"), kind, i, j)
            path.write_text(text, encoding="utf-8")
            slow = _outcome(lambda: clipio._read_csv_lines(path, m, t))
            assert _outcome(lambda: clipio.read_clip(path, "csv", (m, t)).signals) == slow
            fast = clipio._parse_exact(text, m, t)
        if fast is not None:
            assert ("ok", fast.tobytes()) == slow
        if kind != "swap":
            assert fast is None
