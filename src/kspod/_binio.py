"""Little-endian binary helpers shared by the KSPD1-family container files.

All containers follow the same conventions: a 6-byte magic tag ending in a
newline, unsigned 64-bit dimensions, raw float64 payload sections, no padding
and no checksum.
"""

import numpy as np

from .errors import BadMagicError, FormatError, TruncatedPayloadError

_U8 = np.dtype("<u8")
_F8 = np.dtype("<f8")

# Cap on total float64 elements implied by a header; guards against allocating
# memory for garbage headers before truncation can be detected.
MAX_ELEMENTS = 1 << 40


class Writer:
    """Accumulates one container file in memory, then dumps it in one write."""

    def __init__(self, magic: str):
        if len(magic) != 5:
            raise ValueError("magic tag must be 5 characters")
        self._chunks = [magic.encode("ascii") + b"\n"]

    def u64(self, *values) -> None:
        arr = np.asarray(values, dtype=_U8)
        self._chunks.append(arr.tobytes())

    def f64(self, array, order: str = "C") -> None:
        arr = np.asarray(array, dtype=float)
        self._chunks.append(arr.astype(_F8, copy=False).tobytes(order=order))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.getvalue())


class Reader:
    """Cursor over one container file's bytes with layout-aware errors."""

    def __init__(self, data: bytes, magic: str):
        expected = magic.encode("ascii") + b"\n"
        if data[:6] != expected:
            raise BadMagicError(
                f"expected magic {expected!r}, found {bytes(data[:6])!r}"
            )
        self._data = data
        self._pos = 6

    def _take(self, nbytes: int) -> bytes:
        end = self._pos + nbytes
        if end > len(self._data):
            raise TruncatedPayloadError(
                f"need {nbytes} bytes at offset {self._pos}, "
                f"file has {len(self._data)}"
            )
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def u64(self, count: int):
        vals = np.frombuffer(self._take(8 * count), dtype=_U8)
        return [int(v) for v in vals]

    def f64(self, count: int, shape=None, order: str = "C") -> np.ndarray:
        arr = np.frombuffer(self._take(8 * count), dtype=_F8).astype(float)
        if shape is not None:
            arr = arr.reshape(shape, order=order)
        return arr

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise FormatError(
                f"{len(self._data) - self._pos} unexpected trailing bytes"
            )

