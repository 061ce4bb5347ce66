"""Numeric text: every field equals Python's format of its value."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from purepole import textfmt

SPECS = (".4f", ".6f", ".8e")


def _texts(fields: np.ndarray) -> list[str]:
    """Each NUL-padded field of render's output as a string."""
    fields = fields.reshape(-1, fields.shape[-1])
    return [bytes(row[row != 0]).decode("ascii") for row in fields]


def _assert_formats(values, spec: str) -> None:
    values = np.asarray(values, dtype=float)
    got = _texts(textfmt.render(values, spec))
    want = [format(v, spec) for v in values.ravel().tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.ravel().tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(want)} differ from format, first {bad[:3]}"


def _adversarial() -> np.ndarray:
    """Rounding ties and their neighbours, powers of ten and their
    neighbours, carries, wide magnitudes, signed zeros, nan and inf."""
    rng = np.random.default_rng(20260)
    k = np.arange(-20000, 20000, dtype=float)
    parts = [k / 32, k / 64]
    for places in (4, 6, 8):
        half = (np.arange(-5000, 5000) + 0.5) / 10.0**places
        parts += [half, np.nextafter(half, np.inf), np.nextafter(half, -np.inf)]
    powers = np.array([float(f"1e{e}") for e in range(-307, 300)])
    parts += [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]
    # values a few ulp from a power of ten, where floor(log10) misses the
    # exponent by one: at ".14e" the digits of the wrong exponent differ
    spread = np.arange(1, 61) * 1e-16
    near = powers[207:407, None]
    parts += [(near * (1 - spread)).ravel(), (near * (1 + spread)).ravel()]
    # .8e mantissas just below 10 at every exponent: 9.9999999949... keeps
    # its exponent, 9.9999999950... carries into the next one
    for mantissa in (9.9999999949, 9.999999995, 9.9999999951):
        parts.append(mantissa * powers[10:-10])
    parts += [
        rng.uniform(-2e4, 2e4, 20000),
        10.0 ** rng.uniform(-320, 308, 20000),
        -(10.0 ** rng.uniform(-12, 12, 20000)),
        np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 9.9999999995e-5, 99999.99995, 9.99995, 0.125,
                  2.5e-5, -1e-9, 1e300, -1e300, 1.7976931348623157e308, 4503599627370495.5,
                  2.0**52, 2.0**53 + 2]),
    ]
    return np.concatenate(parts)


@pytest.mark.parametrize("spec", [*SPECS, ".1f", ".14f", ".1e", ".14e"])
def test_adversarial_values_format_as_python_does(spec):
    _assert_formats(_adversarial(), spec)


@pytest.mark.parametrize("spec", SPECS)
@given(x=st.floats(allow_nan=True, allow_infinity=True))
@example(x=-0.0)
@example(x=9.9999999995e-5)
@example(x=-0.00005)
@example(x=5e-324)
@settings(deadline=None, max_examples=400)
def test_every_double_formats_as_python_does(spec, x):
    _assert_formats([x], spec)


@pytest.mark.parametrize("spec", SPECS)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@settings(deadline=None, max_examples=150)
def test_arrays_of_mixed_magnitude_and_sign_format_as_python_does(spec, values):
    # one value's sign, width or fallback must not change another's text
    _assert_formats(values, spec)


def test_render_keeps_the_shape_and_adds_a_field_axis():
    values = np.arange(12.0).reshape(3, 4)
    fields = textfmt.render(values, ".4f")
    assert fields.shape[:2] == (3, 4) and fields.dtype == np.uint8
    assert _texts(fields[2]) == ["8.0000", "9.0000", "10.0000", "11.0000"]


def test_large_values_warn_nothing():
    # warnings are errors in the test run: scaling 1e300 must not overflow loudly
    _assert_formats([1e300, -1e308, 1e-300], ".6f")
    _assert_formats([1e300, -1e308, 1e-320], ".8e")


@pytest.mark.parametrize("spec", [".0f", ".15e", "8e", ".4g", ".x4f", ""])
def test_unsupported_specs_are_refused(spec):
    with pytest.raises(ValueError, match="unsupported number format"):
        textfmt.render([1.0], spec)


def test_row_blocks_cover_the_rows_in_blocks_of_at_most_a_point_block():
    blocks = textfmt.row_blocks(1000, 203)
    assert blocks[0] == slice(0, textfmt._POINT_BLOCK // 203)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(1000))
    # a row wider than a block is one block of its own
    assert textfmt.row_blocks(3, 10 * textfmt._POINT_BLOCK) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert textfmt.row_blocks(0, 1) == []


def test_write_lines_joins_fields_and_runs_of_fields():
    fh = io.BytesIO()
    labels = textfmt.strings(["a", "bb", ""])
    runs = textfmt.render(np.array([[1.0, -2.5], [math.nan, 0.0], [1e300, -0.0]]), ".4f")
    textfmt.write_lines(fh, [labels, runs])
    textfmt.write_lines(fh, [textfmt.strings(["x"]), textfmt.strings(["+1"])], sep=b" ")
    assert fh.getvalue() == (
        b"a,1.0000,-2.5000\n"
        b"bb,nan,0.0000\n"
        + f",{1e300:.4f},-0.0000\n".encode()
        + b"x +1\n"
    )
