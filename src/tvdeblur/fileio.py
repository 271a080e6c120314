"""Image and kernel file formats.

* PGM (P2 ascii / P5 binary, any maxval up to 65535) read linearly onto
  [0, 1]; images are written as 16-bit P5, clamped to [0, 1] before
  quantization. Binary samples are big-endian per the netpbm convention.
* Raw float64 (".f64"): little-endian row-major dump with a JSON sidecar
  carrying the shape; lossless round-trip, no clamping.
* Kernel text files: whitespace-separated rows of reals, ``#`` comments,
  with an optional ``# center ROW COL`` line (0-based); default center is
  ceil(extent/2) per axis (1-based), i.e. the middle sample.

All writers are atomic (temp file + rename in the target directory).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError
from .grid import Psf, as_image


def _atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, text.encode())


# --- PGM ---

def write_pgm(path, image: np.ndarray) -> None:
    """Write a 16-bit P5 image; intensities are clamped to [0, 1] and quantized."""
    image = as_image(image)
    quant = np.rint(np.clip(image, 0.0, 1.0) * 65535)
    rows, cols = image.shape
    header = f"P5\n{cols} {rows}\n65535\n".encode()
    _atomic_write_bytes(path, header + quant.astype(">u2").tobytes())


def read_pgm(path) -> np.ndarray:
    """Read P2 or P5, any maxval up to 65535, mapped linearly onto [0, 1];
    a sample that is not an integer in ``[0, maxval]`` is a ``DataError``."""
    data = Path(path).read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise DataError(f"{path}: not a PGM file (magic {data[:2]!r})")
    binary = data[:2] == b"P5"

    # header tokens, honoring '#' comments
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise DataError(f"{path}: truncated PGM header")
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if not all(t.isdigit() and int(t) > 0 for t in tokens):
        header = " ".join(t.decode(errors="replace") for t in tokens)
        raise DataError(f"{path}: PGM width, height and maxval must be positive integers, "
                        f"got {header!r}")
    cols, rows, maxval = (int(t) for t in tokens)
    if maxval > 65535:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    if binary:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        # no more samples than the payload holds: a short one is caught below
        count = min(rows * cols, max(len(data) - pos, 0) // dtype.itemsize)
        raw = np.frombuffer(memoryview(data)[pos:], dtype=dtype, count=count)
    else:
        # every token is a sample: unlike a P5 stream, a P2 file holds one image
        samples = data[pos:].split()
        if len(samples) != rows * cols:
            raise DataError(f"{path}: expected {rows * cols} samples, got {len(samples)}")
        bad = next((t for t in samples if not t.isdigit()), None)
        if bad is not None:
            raise DataError(f"{path}: P2 sample {bad.decode(errors='replace')!r} "
                            "is not a non-negative integer")
        raw = np.array(samples, dtype=float)
    if raw.size != rows * cols:
        raise DataError(f"{path}: expected {rows * cols} samples, got {raw.size}")
    if raw.max() > maxval:
        raise DataError(f"{path}: sample {raw.max():g} exceeds maxval {maxval}")
    return raw.reshape(rows, cols).astype(float) / maxval


# --- raw float64 ---

def _sidecar(path) -> Path:
    return Path(path).with_suffix(Path(path).suffix + ".json")


def write_raw(path, image: np.ndarray) -> None:
    """Lossless float64 dump (little-endian, C order) with a JSON sidecar."""
    image = as_image(image)
    meta = {"format": "raw-float64", "byteorder": "little",
            "rows": image.shape[0], "cols": image.shape[1], "order": "C"}
    _atomic_write_bytes(path, np.ascontiguousarray(image, dtype="<f8").tobytes())
    atomic_write_text(_sidecar(path), json.dumps(meta, indent=2) + "\n")


def read_raw(path) -> np.ndarray:
    sidecar = _sidecar(path)
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:  # not JSON, or not text
        raise DataError(f"{sidecar}: {exc}") from None
    if not (isinstance(meta, dict) and meta.get("format") == "raw-float64"
            and (meta.get("byteorder", "little"), meta.get("order", "C")) == ("little", "C")):
        raise DataError(f"{sidecar}: does not describe a little-endian C-order raw-float64 image")
    rows, cols = meta.get("rows"), meta.get("cols")
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise DataError(f"{sidecar}: lacks non-negative integer rows and cols")
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != rows * cols:
        raise DataError(f"{path}: expected {rows * cols} samples, got {raw.size}")
    return raw.reshape(rows, cols).astype(float)


_IMAGE_FORMATS = {".pgm": (read_pgm, write_pgm), ".f64": (read_raw, write_raw)}


def _image_format(path):
    """The (reader, writer) pair for the path's suffix."""
    suffix = Path(path).suffix.lower()
    if suffix not in _IMAGE_FORMATS:
        raise DataError(f"unsupported image suffix {suffix!r}; use .pgm or .f64")
    return _IMAGE_FORMATS[suffix]


def write_image(path, image: np.ndarray) -> None:
    """Dispatch on suffix: .pgm (clamped 16-bit) or .f64 (lossless raw)."""
    _image_format(path)[1](path, image)


def read_image(path) -> np.ndarray:
    return _image_format(path)[0](path)


# --- kernel text files ---

def read_psf_file(path) -> Psf:
    center = None
    rows = []
    try:
        for line in Path(path).read_text().splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                fields = stripped[1:].split()
                if len(fields) == 3 and fields[0] == "center":
                    center = (int(fields[1]), int(fields[2]))
                continue
            rows.append([float(v) for v in stripped.split()])
    except ValueError as exc:  # a weight or center index that is no number, or no text
        raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no kernel rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged kernel rows (widths {sorted(widths)})")
    weights = np.array(rows, dtype=float)
    if center is None:
        center = ((weights.shape[0] + 1) // 2 - 1, (weights.shape[1] + 1) // 2 - 1)
    return Psf(weights, center)
