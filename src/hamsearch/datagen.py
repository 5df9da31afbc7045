"""Dataset producers: a seeded synthetic binary-code generator and a
DCT-based perceptual-hash pipeline for grayscale images.

The synthetic generator can draw i.i.d. uniform codes or clustered codes
(uniform centers, per-bit flips). Uniform data makes term postings lists
uniformly tiny, which flatters the sub-code filter; clustered data
concentrates sub-code values the way real image fingerprints do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BinaryCode, CodeDataset, WORD_BITS, _check_width

PHASH_WIDTHS = (64, 256, 1024, 4096)  # k*k for k in 8, 16, 32, 64

# fixed generation chunk: part of the defined output, do not change casually
_GEN_CHUNK = 1 << 16


class ImageFormatError(ValueError):
    """A PGM stream could not be parsed."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one reproducible synthetic dataset."""

    count: int
    width_bits: int
    seed: int
    cluster_count: int = 0
    flip_probability: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        _check_width(self.width_bits)
        if self.cluster_count < 0:
            raise ValueError(f"cluster_count must be >= 0, got {self.cluster_count}")
        if not 0.0 <= self.flip_probability <= 0.5:
            raise ValueError(
                f"flip_probability must be in [0, 0.5], got {self.flip_probability}"
            )


def gen_synthetic(spec: SyntheticSpec) -> CodeDataset:
    """Deterministic dataset for a spec: same seed, byte-identical output.

    cluster_count == 0 draws i.i.d. uniform bits. Otherwise each code copies
    a uniformly chosen cluster center and flips each bit independently with
    flip_probability.
    """
    rng = np.random.default_rng(spec.seed)
    words = spec.width_bits // WORD_BITS
    if spec.cluster_count == 0:
        codes = rng.integers(0, 2**64, size=(spec.count, words), dtype=np.uint64)
        return CodeDataset(spec.width_bits, codes)

    centers = rng.integers(0, 2**64, size=(spec.cluster_count, words), dtype=np.uint64)
    assign = rng.integers(0, spec.cluster_count, size=spec.count)
    codes = np.empty((spec.count, words), dtype=np.uint64)
    for lo in range(0, spec.count, _GEN_CHUNK):
        hi = min(lo + _GEN_CHUNK, spec.count)
        chunk = centers[assign[lo:hi]]
        if spec.flip_probability > 0.0:
            flips = rng.random((hi - lo, spec.width_bits)) < spec.flip_probability
            flip_words = np.packbits(flips, axis=1, bitorder="little").view("<u8")
            chunk = chunk ^ flip_words
        codes[lo:hi] = chunk
    return CodeDataset(spec.width_bits, codes)


def perturb(code: BinaryCode, flips: int, seed: int) -> BinaryCode:
    """Flip exactly `flips` distinct seed-determined bit positions."""
    if not 0 <= flips <= code.width_bits:
        raise ValueError(f"flips must be in [0, {code.width_bits}], got {flips}")
    if flips == 0:
        return BinaryCode(code.width_bits, code.words.copy())
    rng = np.random.default_rng(seed)
    positions = rng.choice(code.width_bits, size=flips, replace=False)
    flip_words = np.zeros(code.words.size, dtype=np.uint64)
    np.bitwise_xor.at(
        flip_words,
        positions // WORD_BITS,
        np.uint64(1) << (positions % WORD_BITS).astype(np.uint64),
    )
    return BinaryCode(code.width_bits, code.words ^ flip_words)


@dataclass(eq=False)
class GrayscaleImage:
    """8-bit-range grayscale image; pixels is a (height, width) float array."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"degenerate image: {self.width}x{self.height}")
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.shape != (self.height, self.width):
            raise ValueError(
                f"pixels shape {pixels.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if pixels.size and (pixels.min() < 0.0 or pixels.max() > 255.0):
            raise ValueError("pixel values must lie in [0, 255]")
        self.pixels = pixels

    @classmethod
    def from_array(cls, pixels) -> "GrayscaleImage":
        pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.ndim != 2:
            raise ValueError("expected a 2-D pixel array")
        return cls(pixels.shape[1], pixels.shape[0], pixels)


def bilinear_resize(pixels: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Separable bilinear resample with half-pixel centers.

    Uses the a + t*(b - a) lerp form, which reproduces constant regions
    exactly in floating point.
    """
    src = np.asarray(pixels, dtype=np.float64)
    in_h, in_w = src.shape

    def axis_coords(n_in, n_out):
        pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        pos = np.clip(pos, 0.0, n_in - 1.0)
        i0 = np.floor(pos).astype(np.int64)
        i1 = np.minimum(i0 + 1, n_in - 1)
        return i0, i1, pos - i0

    y0, y1, ty = axis_coords(in_h, out_height)
    x0, x1, tx = axis_coords(in_w, out_width)
    p00 = src[np.ix_(y0, x0)]
    p01 = src[np.ix_(y0, x1)]
    p10 = src[np.ix_(y1, x0)]
    p11 = src[np.ix_(y1, x1)]
    top = p00 + tx[None, :] * (p01 - p00)
    bottom = p10 + tx[None, :] * (p11 - p10)
    return top + ty[:, None] * (bottom - top)


def phash(image: GrayscaleImage, width_bits: int) -> BinaryCode:
    """Perceptual hash: threshold low-frequency DCT coefficients.

    For a width of k*k bits the image is bilinearly resized to 4k x 4k, a 2-D
    type-II DCT is taken, and each coefficient of the top-left k x k block is
    compared against the median of the block's non-DC coefficients (bit = 1
    iff strictly greater). The DC term carries only overall brightness, so
    its bit is pinned to 0; together with the strict comparison this makes a
    constant image hash to the all-zero code.
    """
    if width_bits not in PHASH_WIDTHS:
        raise ValueError(
            f"width_bits must be one of {PHASH_WIDTHS} (a perfect square k*k), "
            f"got {width_bits}"
        )
    from scipy.fft import dct  # deferred: keeps non-hashing imports light

    k = math.isqrt(width_bits)
    resized = bilinear_resize(image.pixels, 4 * k, 4 * k)
    coeffs = dct(dct(resized, axis=0), axis=1)
    block = coeffs[:k, :k].reshape(-1)  # row-major over the k x k block
    median = np.median(block[1:])  # k*k - 1 values, odd count: an actual sample
    bits = block > median
    bits[0] = False
    words = np.packbits(bits, bitorder="little").view("<u8")
    return BinaryCode(width_bits, words)


def _read_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments, then take one token
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(source) -> GrayscaleImage:
    """Parse a binary (P5) 8-bit PGM file or byte string."""
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        with open(source, "rb") as f:
            data = f.read()
    magic, pos = _read_pgm_token(data, 0)
    if magic != b"P5":
        raise ImageFormatError(f"not a binary PGM: magic {magic!r}")
    fields = []
    for _ in range(3):
        token, pos = _read_pgm_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise ImageFormatError(f"bad PGM header token {token!r}") from exc
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"degenerate PGM dimensions {width}x{height}")
    if not 0 < maxval < 256:
        raise ImageFormatError(f"unsupported PGM maxval {maxval} (8-bit only)")
    pos += 1  # single whitespace byte after maxval
    body = data[pos : pos + width * height]
    if len(body) < width * height:
        raise ImageFormatError("truncated PGM pixel data")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    return GrayscaleImage(width, height, pixels.astype(np.float64))


def write_pgm(image: GrayscaleImage, destination) -> None:
    """Write a binary (P5) 8-bit PGM file."""
    if not hasattr(destination, "write"):
        with open(destination, "wb") as f:
            return write_pgm(image, f)
    destination.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
    # C order writes the rows top to bottom, whatever the pixels' layout
    destination.write(np.clip(np.rint(image.pixels), 0, 255).astype(np.uint8, order="C"))
