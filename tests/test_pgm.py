import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpr import GrayImage, pgm, read_pgm, write_pgm
from robustpr.errors import ParseError


def checker(width=6, height=4, maxval=255):
    raster = np.zeros((height, width))
    raster[::2, ::2] = 1.0
    raster[1::2, 1::2] = 0.5
    return GrayImage(pixels=raster, maxval=maxval)


def test_p5_roundtrip_pixel_identical(tmp_path):
    img = checker()
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.width == img.width and back.height == img.height
    raster_in = np.rint(img.pixels * img.maxval)
    raster_out = np.rint(back.pixels * back.maxval)
    np.testing.assert_array_equal(raster_in, raster_out)


def test_p5_sixteen_bit_roundtrip(tmp_path):
    img = checker(maxval=65535)
    path = tmp_path / "img16.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.maxval == 65535
    np.testing.assert_array_equal(
        np.rint(img.pixels * 65535), np.rint(back.pixels * 65535)
    )


@pytest.mark.parametrize("maxval, valid", [
    (1, True), (65535, True), (70000, False), (0, False), (-3, False),
    (2.5, False), (True, False),
])
def test_maxval_is_one_that_read_pgm_accepts(maxval, valid, tmp_path):
    # write_pgm would put a bad value in a header read_pgm rejects, and
    # wrap the pixels of maxval = 70000 mod 2**16
    px = np.array([[0.0, 1.0]])
    if not valid:
        with pytest.raises(ValueError, match="maxval"):
            GrayImage(px, maxval=maxval)
        return
    path = tmp_path / "img.pgm"
    write_pgm(path, GrayImage(px, maxval=maxval))
    back = read_pgm(path)
    assert back.maxval == maxval
    np.testing.assert_array_equal(back.pixels, px)


def test_p2_ascii_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n")
    img = read_pgm(path)
    assert img.width == 3 and img.height == 2
    assert np.isclose(img.pixels[0, 1], 128 / 255)


def _tokens_reference(data: bytes):
    """The byte-by-byte header scanner that ``pgm._tokens`` replaced."""
    pos = 0
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            yield pos, data[pos:end]
            pos = end


# the six bytes bytes.isspace() accepts, '#', and \x1c, \x85 and \xa0, which
# str.isspace() accepts as characters but bytes.isspace() does not
HEADER_BYTES = st.lists(st.sampled_from(
    [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"\x00", b"\x1c",
     b"\x85", b"\xa0", b"P", b"5"]), max_size=40).map(b"".join)
# file contents: any short bytes, or a header made of the bytes above
PGM_BYTES = st.one_of(st.binary(max_size=64), HEADER_BYTES)


@settings(max_examples=500)
@given(PGM_BYTES)
def test_tokens_match_the_reference_scanner(data):
    assert list(pgm._tokens(data)) == list(_tokens_reference(data))


@pytest.mark.parametrize("data, message", [
    (b"P2\n3 2\n", "truncated PGM header"),
    (b"P5\n3 two\n255\n", "malformed PGM header"),
    (b"P2\n3 2\n65536\n", "PGM header out of range"),
    (b"P2\n1_0 1\n255\n" + b"0 " * 10, "malformed PGM header"),
], ids=["truncated", "malformed", "out-of-range", "underscore"])
def test_rejects_bad_header(tmp_path, data, message):
    path = tmp_path / "header.pgm"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=message):
        read_pgm(path)


def test_rejects_non_pgm(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ParseError):
        read_pgm(path)
    empty = tmp_path / "empty.pgm"
    empty.write_bytes(b"")
    with pytest.raises(ParseError):
        read_pgm(empty)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ParseError):
        read_pgm(path)
    ascii_short = tmp_path / "short2.pgm"
    ascii_short.write_bytes(b"P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(ParseError):
        read_pgm(ascii_short)


@pytest.mark.parametrize("token", [b"x", b"2.5", b"1_0", b"+1", b"-0"])
def test_rejects_malformed_p2_raster_token(tmp_path, token):
    path = tmp_path / "token.pgm"
    path.write_bytes(b"P2\n2 1\n10\n5 " + token + b"\n")
    with pytest.raises(ParseError, match="malformed P2 raster value"):
        read_pgm(path)


def test_rejects_out_of_range_pixels(tmp_path):
    path = tmp_path / "range.pgm"
    # the second file's value does not fit an int64
    for data in (b"P2\n2 1\n10\n5 11\n", b"P2\n1 1\n255\n99999999999999999999\n"):
        path.write_bytes(data)
        with pytest.raises(ParseError, match=r"^pixel value outside \[0, maxval\]$"):
            read_pgm(path)


def test_gray_image_clamps_and_flattens():
    img = GrayImage(pixels=np.array([[2.0, -1.0], [0.5, 0.25]]))
    np.testing.assert_array_equal(img.pixels, [[1.0, 0.0], [0.5, 0.25]])
    # the row-major signal of `image` and back, as cmd_image does
    back = GrayImage(img.pixels.reshape(-1).reshape(img.height, img.width))
    np.testing.assert_array_equal(back.pixels, img.pixels)


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(pixels=np.zeros((2, 0)))
    with pytest.raises(ValueError, match="nonempty"):  # a raster is 2-D
        GrayImage(pixels=np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gray_image_refuses_non_finite_pixels(bad):
    with pytest.raises(ValueError, match="^pixels contain non-finite entries$"):
        GrayImage(np.array([[bad, 0.5]]))


def test_gray_image_size_is_its_raster():
    img = GrayImage(np.zeros((2, 3)))
    assert (img.width, img.height) == (3, 2)
    with pytest.raises(TypeError):
        GrayImage(width=3, height=2, pixels=np.zeros((2, 3)))
