"""Little-endian binary helpers shared by the KSPD1 (snapshot set) and KSEM1
and KSEM2 (trained emulator) container files.

Both containers follow the same conventions: a 6-byte magic tag ending in a
newline, unsigned 64-bit dimensions, raw float64 payload sections, no padding
and no checksum.

Sections move between file and array without an intermediate bytes object.
``Writer`` holds each section as a contiguous little-endian array (a
column-major section is the row-major transpose, so an array already laid out
that way is not copied) and ``dump`` writes the sections one after another.
``Reader`` learns the file size once, checks every section against it before
allocating, and reads each section straight into its final array, or into
arrays the caller provides, with one scatter read where the file has a
descriptor.
"""

import io
import os
import sys

import numpy as np

from .errors import BadMagicError, FormatError, TruncatedPayloadError

_U8 = np.dtype("<u8")
_F8 = np.dtype("<f8")

# Cap on total float64 elements implied by a header; guards against allocating
# memory for garbage headers before truncation can be detected.
MAX_ELEMENTS = 1 << 40

# Scatter reads need os.preadv (POSIX); the buffer count of one call is capped
# by the system's IOV_MAX.
_PREADV = getattr(os, "preadv", None)
_IOV_MAX = os.sysconf("SC_IOV_MAX") if _PREADV else 0


class Writer:
    """Collects one container file as contiguous sections, then writes them."""

    def __init__(self, magic: str):
        if len(magic) != 5:
            raise ValueError("magic tag must be 5 characters")
        self._sections = [magic.encode("ascii") + b"\n"]

    def u64(self, *values) -> None:
        self._sections.append(np.asarray(values, dtype=_U8))

    def f64(self, array, order: str = "C") -> None:
        """Queue a float64 section with its elements in ``order``."""
        if order not in ("C", "F"):
            raise ValueError("order must be 'C' or 'F'")
        arr = np.asarray(array, dtype=float)
        if order == "F":
            arr = arr.T
        self._sections.append(np.ascontiguousarray(arr, dtype=_F8))

    def getvalue(self) -> bytes:
        return b"".join(self._sections)

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self._sections)


class Reader:
    """Cursor over one open container file with layout-aware errors.

    ``magic`` is the tag the file must start with, or a tuple of the tags it
    may start with; ``self.magic`` is the one found."""

    def __init__(self, fh, magic):
        self._fh = fh
        self._fd = None
        if _PREADV is not None:
            try:
                self._fd = fh.fileno()
            except (AttributeError, io.UnsupportedOperation):
                pass
        self._pos = fh.tell()
        self._size = fh.seek(0, io.SEEK_END)
        fh.seek(self._pos)
        magics = (magic,) if isinstance(magic, str) else magic
        tags = {m.encode("ascii") + b"\n": m for m in magics}
        size = len(next(iter(tags)))
        found = np.empty(min(size, self._size - self._pos), np.uint8)
        self._fill([found])
        self.magic = tags.get(found.tobytes())
        if self.magic is None:
            expected = " or ".join(repr(t) for t in tags)
            raise BadMagicError(f"expected magic {expected}, found {found.tobytes()!r}")

    def _check(self, nbytes: int) -> None:
        if self._pos + nbytes > self._size:
            raise TruncatedPayloadError(
                f"need {nbytes} bytes at offset {self._pos}, "
                f"file has {self._size}"
            )

    def _fill(self, arrays) -> None:
        """Read the next bytes into each C-contiguous array in turn."""
        views = [memoryview(arr).cast("B") for arr in arrays if arr.size]
        i = 0
        while i < len(views):
            if self._fd is None:
                got = self._fh.readinto(views[i])
            else:
                got = _PREADV(self._fd, views[i:i + _IOV_MAX], self._pos)
            if not got:
                raise TruncatedPayloadError(f"file ends early, at offset {self._pos}")
            self._pos += got
            while i < len(views) and got >= views[i].nbytes:
                got -= views[i].nbytes
                i += 1
            if got:
                views[i] = views[i][got:]

    def check_f64(self, count: int) -> None:
        """Raise TruncatedPayloadError unless ``count`` more float64 values
        remain; call it before allocating arrays for ``into``."""
        self._check(_F8.itemsize * count)

    def u64(self, count: int):
        self._check(_U8.itemsize * count)
        arr = np.empty(count, _U8)
        self._fill([arr])
        return [int(v) for v in arr]

    def f64(self, count: int, shape=None) -> np.ndarray:
        """The next ``count`` float64 values as a fresh array."""
        self.check_f64(count)
        arr = np.empty(count)
        self.into(arr)
        if shape is not None:
            arr = arr.reshape(shape)
        return arr

    def into(self, *arrays) -> None:
        """Read the next sections straight into the given C-contiguous,
        writeable float64 arrays, in order (byte-swapped in place on a
        big-endian machine)."""
        for arr in arrays:
            if arr.dtype != np.float64 or not arr.flags.c_contiguous \
                    or not arr.flags.writeable:
                raise ValueError("into() needs writeable C-contiguous float64 arrays")
        self.check_f64(sum(arr.size for arr in arrays))
        self._fill(arrays)
        if sys.byteorder == "big":
            for arr in arrays:
                arr.byteswap(inplace=True)

    def finish(self) -> None:
        if self._pos != self._size:
            raise FormatError(f"{self._size - self._pos} unexpected trailing bytes")
