"""Grayscale raster type and Netpbm PGM codec.

Only 8-bit PGM (P2 ascii / P5 binary, maxval 255) is supported.  Both
the embedders and the extractors walk the raster in flat row-major
order, pairing consecutive pixels into non-overlapping two-pixel blocks
(``pixels[0::2]`` with ``pixels[1::2]``, a block may straddle a row
end); an odd trailing pixel belongs to no block and is never modified.
``block_differences`` gives every block's |p - q| in whole-raster int steps,
and ``block_lanes`` the same as 16-bit lanes with a lane mask of p < q.
``block_windows`` is the one window schedule of the embed walks, the
extractors and the capacity pass, which each read a window of whole
blocks at a time; the odd pixel is in no window.
"""

import re
from collections import namedtuple
from collections.abc import Iterator

BLOCK_WINDOW = 4096  # the most blocks block_windows puts in one window


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM data."""


class GrayImage(namedtuple("GrayImage", "width height pixels")):
    """Immutable 8-bit grayscale raster, pixels in flat row-major order.

    A named tuple: ``_replace`` and ``_make`` build through the checks
    of ``__new__`` as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, width: int, height: int, pixels: bytes):
        if not isinstance(pixels, bytes):
            raise TypeError(f"pixels must be bytes, got {type(pixels).__name__}")
        if width <= 0 or height <= 0:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        if len(pixels) != width * height:
            raise ValueError(f"pixel count {len(pixels)} does not match {width}x{height}")
        return super().__new__(cls, width, height, pixels)

    @classmethod
    def _make(cls, iterable):  # the named tuple's _replace builds through this
        return cls(*iterable)


def block_windows(pixels: bytes) -> Iterator[bytes]:
    """Slices of whole blocks of ``pixels``, for ``block_differences`` one at a time.

    The first holds 256 blocks and each next one twice as many, up to
    BLOCK_WINDOW, so a reader that stops after a short payload has read
    few blocks past it.  An odd trailing pixel is in no window.
    """
    start, size, end = 0, 2 * 256, len(pixels) & ~1
    while start < end:
        yield pixels[start : min(start + size, end)]
        start += size
        size = min(2 * size, 2 * BLOCK_WINDOW)


def block_lanes(pixels: bytes) -> tuple[int, int]:
    """|p - q| and [p < q] of each block of an 8-bit raster, as 16-bit lanes of two ints.

    The raster as one little-endian int, on any platform, holds block i
    in bits 16i..16i+15 as p + 256 q, and an odd trailing pixel above
    them all.  Each lane becomes 256 + p - q, in 1..511 so that no lane
    borrows from the next, then |p - q|; the second int holds 1 in the
    lanes where p < q.
    """
    k = len(pixels) // 2
    x = int.from_bytes(pixels, "little")
    ones = int.from_bytes(b"\x01\x00" * k, "little")  # 1 in every lane
    low, high = ones * 0xFF, ones << 8
    v = (x & low) + high - ((x >> 8) & low)
    below = ones - ((v >> 8) & ones)  # 1 in the lanes where p < q
    # p >= q: drop the 256; p < q: (511 - v) - 256 + 1 = q - p
    return (v ^ (below * 0x1FF) ^ high) + below, below


def block_differences(pixels: bytes) -> bytes:
    """|p - q| of each block of an 8-bit raster, one byte per block (see ``block_lanes``)."""
    k = len(pixels) // 2
    return block_lanes(pixels)[0].to_bytes(2 * k, "little")[0::2]


# --- PGM codec -------------------------------------------------------------

_WHITESPACE = b" \t\r\n\x0b\x0c"  # what bytes.split() separates on

_COMMENT = re.compile(rb"#[^\r\n]*")
# a comment to the end of its line, or a token; whatever neither matches
# is whitespace
_TOKEN = re.compile(rb"%s|[^%s#]+" % (_COMMENT.pattern, re.escape(_WHITESPACE)))

# A P2 raster is decoded a window at a time, so that only one window's
# words are alive at once: _WINDOW bytes plus the rest of the token they
# end in, or whatever is left, cut after the raster's comments are blanked.
_WINDOW = 8192
_CUT = re.compile(rb"(?s).{%d}[^%s]*|.+" % (_WINDOW, re.escape(_WHITESPACE)))

# the decimal text of each pixel value; a P2 word found in _DECIMAL is a valid pixel
_TEXT = tuple(b"%d" % v for v in range(256))
_DECIMAL = {text: v for v, text in enumerate(_TEXT)}


def _number(match, what: str) -> int:
    """The value of a decimal token; leading zeros are allowed."""
    if match is None:
        raise PgmError(f"truncated header: missing {what}")
    token = match[0]
    if not token.isdigit():
        raise PgmError(f"malformed {what}: {token!r}")
    return int(token)


def load_pgm(data: bytes) -> GrayImage:
    """Decode a P2 (ascii) or P5 (binary) PGM with maxval 255.

    Tokens are runs of non-whitespace bytes; a '#' starts a comment that
    runs to the end of its line, anywhere in the header or the P2 raster.
    A P2 raster holding one has its comments blanked in one pass first.
    """
    try:
        return _decode_pgm(data)
    except PgmError:
        raise
    except ValueError:  # int() or str() of a number past sys.get_int_max_str_digits()
        raise PgmError("number too long to convert") from None


def _decode_pgm(data: bytes) -> GrayImage:
    tokens = (m for m in _TOKEN.finditer(data) if data[m.start()] != 35)  # 35: "#"
    magic = next(tokens, None)
    if magic is None:
        raise PgmError("truncated header: missing magic number")
    if magic[0] not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic {magic[0]!r}, expected P2 or P5")
    width = _number(next(tokens, None), "width")
    height = _number(next(tokens, None), "height")
    if width == 0 or height == 0:
        raise PgmError(f"zero image dimension: {width}x{height}")
    last = next(tokens, None)
    maxval = _number(last, "maxval")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, only 255 is supported")
    count = width * height

    if magic[0] == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        start = last.end() + 1
        if start > len(data) or data[start - 1] not in _WHITESPACE:
            raise PgmError("missing whitespace after maxval")
        raster = data[start : start + count]
        if len(raster) < count:
            raise PgmError(f"truncated pixel data: got {len(raster)} of {count} bytes")
        if data[start + count :].strip(_WHITESPACE):
            raise PgmError("trailing data after pixel raster")
        return GrayImage(width, height, bytes(raster))  # a bytearray's slice is one

    return GrayImage(width, height, bytes(_p2_raster(data, last.end(), count)))


def _p2_raster(data: bytes, pos: int, count: int) -> bytearray:
    """The ``count`` pixel values of the P2 raster that starts at ``pos``."""
    if data.find(b"#", pos) >= 0:  # a comment glued to a word ends it, as whitespace does
        blanked = bytearray(data)  # the one copy; blanking in place keeps every offset
        for start, end in map(re.Match.span, _COMMENT.finditer(data, pos)):
            blanked[start:end] = b" " * (end - start)
        data = blanked  # _CUT's matches on a bytearray are bytes, which key _DECIMAL
    values = bytearray()
    for window in _CUT.finditer(data, pos):
        words = window[0].split()  # splits on exactly the six bytes of _WHITESPACE
        spare = count - len(values)
        if len(words) <= spare:
            try:  # extend builds into a temporary, so a miss appends nothing; map,
                # as a dict's __getitem__ is a builtin method, beats a comprehension
                values.extend(map(_DECIMAL.__getitem__, words))
                continue
            except KeyError:
                pass
        # a window that misses holds a bad word, a leading zero or too many
        # words: walk its words in order to raise the first error
        for word in words[:spare]:
            if not word.isdigit():
                raise PgmError(f"malformed pixel value: {word!r}")
            value = int(word)  # past the digit limit, load_pgm reports the ValueError
            if value > 255:
                raise PgmError(f"pixel value {value} exceeds maxval 255")
        if len(words) > spare:
            raise PgmError("trailing data after pixel raster")
        values.extend(map(int, words))  # valid words, some with leading zeros
    if len(values) < count:
        raise PgmError(f"truncated pixel data: got {len(values)} of {count} values")
    return values


def save_pgm(img: GrayImage, variant: str = "binary") -> bytes:
    """Encode an image as PGM; load_pgm(save_pgm(img)) is the identity.

    The binary variant emits exactly one newline between maxval and the
    raster; the ascii variant wraps lines below 70 characters.  Comments
    are never emitted.
    """
    header = f"{'P5' if variant == 'binary' else 'P2'}\n{img.width} {img.height}\n255\n"
    if variant == "binary":
        return header.encode("ascii") + img.pixels
    if variant != "ascii":
        raise ValueError(f"unknown variant {variant!r}, expected 'ascii' or 'binary'")
    px = img.pixels
    # 17 values of <= 4 chars keep lines under 70; comprehensions skip map's slot-wrapper calls
    lines = [b" ".join([_TEXT[v] for v in px[i : i + 17]]) for i in range(0, len(px), 17)]
    return header.encode("ascii") + b"\n".join(lines) + b"\n"


# --- bundled synthetic covers ---------------------------------------------

SYNTHETIC_KINDS = ("gradient", "noise", "checkerboard")


def synthetic_cover(kind: str, width: int = 512, height: int = 512, seed: int = 0) -> GrayImage:
    """Deterministic test covers standing in for scanned photographs."""
    if kind == "gradient":
        span = max(1, width + height - 2)
        px = bytes(
            ((x + y) * 255) // span for y in range(height) for x in range(width)
        )
    elif kind == "noise":
        import random  # imported here: no other function draws random numbers

        rng = random.Random(seed)
        px = bytes(rng.randrange(256) for _ in range(width * height))
    elif kind == "checkerboard":
        px = bytes(
            255 if (x + y) % 2 else 0 for y in range(height) for x in range(width)
        )
    else:
        raise ValueError(f"unknown synthetic cover {kind!r}, expected one of {SYNTHETIC_KINDS}")
    return GrayImage(width, height, px)
