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

    def _take(self, dtype: np.dtype, count: int) -> np.ndarray:
        """Read-only view of the next ``count`` items of the file bytes."""
        nbytes = dtype.itemsize * count
        end = self._pos + nbytes
        if end > len(self._data):
            raise TruncatedPayloadError(
                f"need {nbytes} bytes at offset {self._pos}, "
                f"file has {len(self._data)}"
            )
        view = np.frombuffer(self._data, dtype, count, offset=self._pos)
        self._pos = end
        return view

    def u64(self, count: int):
        return [int(v) for v in self._take(_U8, count)]

    def f64(self, count: int, shape=None, order: str = "C") -> np.ndarray:
        arr = self._take(_F8, count).astype(float)
        if shape is not None:
            arr = arr.reshape(shape, order=order)
        return arr

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise FormatError(
                f"{len(self._data) - self._pos} unexpected trailing bytes"
            )

