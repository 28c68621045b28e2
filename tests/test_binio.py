import builtins
import io
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kspod._binio import Reader, Writer
from kspod.emulator import load_model
from kspod.errors import BadMagicError, FormatError, TruncatedPayloadError
from kspod.snapshots import (
    SnapshotSet,
    default_recipe,
    make_grid,
    make_times,
    read_dataset,
    synth_flowfield,
    write_dataset,
)

DATA = Path(__file__).parent / "data"


def section_bytes(array, order="C"):
    writer = Writer("KSPDX")
    writer.f64(array, order=order)
    return writer.getvalue()[6:]


class TestWriter:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_f64_matches_tobytes(self, order):
        base = np.arange(24, dtype=float).reshape(4, 6) * 0.37 - 1.5
        inputs = {
            "c_ordered": base,
            "f_ordered": np.asfortranarray(base),
            "strided": np.arange(96, dtype=float).reshape(8, 12)[::2, ::2],
            "big_endian": base.astype(">f8"),
            "f_ordered_3d": np.asfortranarray(base.reshape(2, 3, 4)),
        }
        for name, x in inputs.items():
            expected = np.asarray(x, "<f8").tobytes(order)
            assert section_bytes(x, order) == expected, name

    def test_f_section_of_f_ordered_array_is_not_copied(self):
        field = np.asfortranarray(np.ones((5, 3)))
        writer = Writer("KSPDX")
        writer.f64(field, order="F")
        assert np.shares_memory(writer._sections[-1], field)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            Writer("KSPDX").f64([1.0], order="A")

    def test_dataset_file_independent_of_field_layout(self, tmp_path):
        field = np.arange(15, dtype=float).reshape(5, 3) / 7.0
        paths = []
        for name, fld in (("c", np.ascontiguousarray(field)),
                          ("f", np.asfortranarray(field))):
            ss = SnapshotSet(name, [1.0], np.arange(10.0).reshape(5, 2),
                             [0.0, 0.5, 1.0], fld)
            paths.append(tmp_path / f"{name}.kspd")
            write_dataset(ss, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestReader:
    def sections(self):
        rng = np.random.default_rng(5)
        return [rng.normal(size=shape) for shape in ((3,), (2, 4), (0,), (5,))]

    def container(self, sections):
        writer = Writer("KSPDX")
        for arr in sections:
            writer.f64(arr)
        return writer.getvalue()

    def test_into_file_and_memory_sources_agree(self, tmp_path):
        sections = self.sections()
        data = self.container(sections)
        path = tmp_path / "s.bin"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            sources = [Reader(fh, "KSPDX"), Reader(io.BytesIO(data), "KSPDX")]
            for reader in sources:
                out = [np.empty_like(arr) for arr in sections]
                reader.into(*out)
                reader.finish()
                for got, want in zip(out, sections):
                    assert got.tobytes() == want.tobytes()

    def test_into_more_sections_than_one_scatter_call(self, tmp_path):
        values = np.arange(3000, dtype=float) / 3.0
        path = tmp_path / "many.bin"
        writer = Writer("KSPDX")
        writer.f64(values)
        writer.dump(path)
        out = np.empty((1500, 2))
        with open(path, "rb") as fh:
            reader = Reader(fh, "KSPDX")
            reader.into(*out)
            reader.finish()
        assert np.array_equal(out.ravel(), values)

    def test_into_rejects_unsuitable_arrays(self):
        data = self.container([np.ones(4)])
        for bad in (np.empty((2, 2)).T, np.empty(4, ">f8"), np.empty(4, np.float32)):
            with pytest.raises(ValueError):
                Reader(io.BytesIO(data), "KSPDX").into(bad)

    def test_truncated_into_reads_nothing(self):
        data = self.container([np.ones(3)])
        reader = Reader(io.BytesIO(data), "KSPDX")
        out = np.full(4, 7.0)
        with pytest.raises(TruncatedPayloadError,
                           match="need 32 bytes at offset 6, file has 30"):
            reader.into(out)
        assert np.all(out == 7.0)

    def test_short_file_bad_magic(self):
        with pytest.raises(BadMagicError, match="found b'KS'"):
            Reader(io.BytesIO(b"KS"), "KSPDX")


def header_claiming(magic, words, payload_bytes=64):
    return (magic.encode("ascii") + b"\n" + np.asarray(words, "<u8").tobytes()
            + b"\x00" * payload_bytes)


class TestBadHeaderAllocatesNothing:
    # the dimensions pass the plausibility cap, but the file is ~100 bytes:
    # the reader must raise before it allocates anything for the payload
    def check(self, path, reader):
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError):
                reader(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_kspd1(self, tmp_path):
        path = tmp_path / "huge.kspd"
        # J = m = 2^18: 2^36 field values
        path.write_bytes(header_claiming("KSPD1", [1 << 18, 1 << 18, 1]))
        assert path.stat().st_size < 128
        self.check(path, read_dataset)

    def test_ksem1(self, tmp_path):
        path = tmp_path / "huge.ksem"
        # n = d = J = m = 1 and K = 2^30: the scalars, ranges, grid, times and
        # design fit in the file, the case library claims 24 GiB
        words = [1, 1, 1, 1, 1 << 30, 1, 8, 1, 0]
        path.write_bytes(header_claiming("KSEM1", words, payload_bytes=8 * 11 + 8))
        self.check(path, load_model)


def kspd1(path):
    grid = make_grid(3, 2)
    write_dataset(synth_flowfield([0.5, 0.5, 0.5], grid, make_times(4),
                                  default_recipe()), path)
    return read_dataset


def ksem1(path):
    shutil.copyfile(DATA / "ksem1_centered.ksem", path)
    return load_model


@pytest.mark.parametrize("make", [kspd1, ksem1])
@pytest.mark.parametrize("damage, error", [
    (lambda data: b"XXXX" + data[4:], BadMagicError),
    (lambda data: data[:-8], TruncatedPayloadError),
    (lambda data: data + b"\x00" * 8, FormatError),
    (lambda data: data[:-8] + np.array([np.nan]).tobytes(), ValueError),
])
def test_reader_closes_file_on_error(make, damage, error, tmp_path, monkeypatch):
    path = tmp_path / "container.bin"
    reader = make(path)
    path.write_bytes(damage(path.read_bytes()))
    opened = []
    real_open = builtins.open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(builtins, "open", recording_open)
    with pytest.raises((error, FormatError)):
        reader(path)
    assert opened and all(fh.closed for fh in opened)


def test_synth_matches_outer_product_reference():
    # the field is built time-major in place; each element must equal the
    # column-wise reference mean + sum_p a_p * outer(g_p, cos(...))
    grid = make_grid(7, 5)
    times = make_times(9)
    recipe = default_recipe()
    design = np.array([0.2, 0.7, 0.4])
    ref = np.repeat(np.asarray(recipe.mean(grid, design), float)[:, None],
                    times.size, axis=1)
    for wave in recipe.waves:
        a = float(wave.amplitude(design))
        f = float(wave.frequency(design))
        psi = float(wave.phase(design))
        g = np.asarray(wave.pattern(grid), float)
        ref += a * np.outer(g, np.cos(2.0 * math.pi * f * times + psi))
    got = synth_flowfield(design, grid, times, recipe).field
    assert np.array_equal(got, ref)
    assert got.flags.f_contiguous


def test_loaded_library_is_one_owned_block():
    model = load_model(DATA / "ksem1_uncentered.ksem")
    assert model.library.flags.c_contiguous and model.library.flags.owndata
