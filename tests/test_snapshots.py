import io
import math

import numpy as np
import pytest

from kspod._binio import Reader, Writer
from kspod.errors import (
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    NonFiniteDataError,
    TruncatedPayloadError,
    UnsupportedGridError,
)
from kspod.metrics import dominant_frequency
from kspod.snapshots import (
    SnapshotSet,
    SynthRecipe,
    WaveComponent,
    default_recipe,
    make_grid,
    make_times,
    read_dataset,
    structured_axes,
    synth_flowfield,
    write_dataset,
)


def tiny_set(j=2, m=1, d=3):
    return SnapshotSet(
        case_id="tiny",
        design=np.arange(1, d + 1, dtype=float),
        grid=np.arange(2 * j, dtype=float).reshape(j, 2),
        times=np.arange(m, dtype=float) * 0.5 + 0.25,
        field=np.arange(j * m, dtype=float).reshape(j, m) + 0.125,
    )


class TestSnapshotSetValidation:
    def test_non_increasing_times(self):
        with pytest.raises(ValueError):
            SnapshotSet("x", [1.0], np.zeros((1, 2)), [0.0, 0.0],
                        np.zeros((1, 2)))

    def test_non_uniform_times(self):
        with pytest.raises(ValueError):
            SnapshotSet("x", [1.0], np.zeros((1, 2)), [0.0, 1.0, 2.5],
                        np.zeros((1, 3)))

    def test_non_finite_field(self):
        with pytest.raises(ValueError):
            SnapshotSet("x", [1.0], np.zeros((1, 2)), [0.0],
                        np.array([[np.nan]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SnapshotSet("x", [1.0], np.zeros((2, 2)), [0.0], np.zeros((3, 1)))

    def test_immutable_arrays(self):
        ss = tiny_set()
        with pytest.raises(ValueError):
            ss.field[0, 0] = 99.0


class TestContainerFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        ss = tiny_set(j=5, m=7, d=3)
        path = tmp_path / "roundtrip.kspd"
        write_dataset(ss, path)
        loaded = read_dataset(path)
        for name in ("design", "grid", "times", "field"):
            assert getattr(loaded, name).tobytes() == getattr(ss, name).tobytes()
        assert loaded.case_id == "roundtrip"

    def test_tiny_file_size(self, tmp_path):
        path = tmp_path / "tiny.kspd"
        write_dataset(tiny_set(j=2, m=1, d=3), path)
        assert path.stat().st_size == 6 + 24 + 24 + 32 + 8 + 16

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kspd"
        write_dataset(tiny_set(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            read_dataset(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.kspd"
        write_dataset(tiny_set(), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedPayloadError):
            read_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.kspd"
        write_dataset(tiny_set(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.kspd"
        header = b"KSPD1\n" + np.array(
            [1 << 60, 1, 3], dtype="<u8"
        ).tobytes()
        path.write_bytes(header)
        with pytest.raises(DimensionOverflowError):
            read_dataset(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.kspd"
        path.write_bytes(b"KSPD1\n" + np.array([0, 1, 3], dtype="<u8").tobytes())
        with pytest.raises(DimensionOverflowError):
            read_dataset(path)

    def test_reader_section_is_an_owned_copy(self):
        # each section is one copy out of the file bytes: writable, and not
        # a view that would pin or alias the buffer
        writer = Writer("KSPDX")
        writer.u64(2)
        writer.f64([1.5, -2.0])
        data = writer.getvalue()
        reader = Reader(io.BytesIO(data), "KSPDX")
        assert reader.u64(1) == [2]
        section = reader.f64(2)
        reader.finish()
        assert section.tolist() == [1.5, -2.0]
        assert section.flags.writeable and section.flags.owndata
        assert not np.shares_memory(section, np.frombuffer(data, dtype=np.uint8))
        reader = Reader(io.BytesIO(data), "KSPDX")
        reader.u64(1)
        with pytest.raises(TruncatedPayloadError,
                           match="need 24 bytes at offset 14, file has 30"):
            reader.f64(3)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.kspd"
        write_dataset(tiny_set(), path)
        data = bytearray(path.read_bytes())
        data[-16:-8] = np.array([np.nan]).astype("<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(NonFiniteDataError):
            read_dataset(path)


class TestStructuredAxes:
    def test_factors_meshgrid(self):
        grid = make_grid(4, 3, (0.0, 3.0), (0.0, 2.0))
        xs, rs, ix, ir = structured_axes(grid)
        assert np.array_equal(xs, [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(rs, [0.0, 1.0, 2.0])
        rebuilt = np.column_stack([xs[ix], rs[ir]])
        assert np.array_equal(rebuilt, grid)

    def test_rejects_scattered_points(self):
        grid = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        with pytest.raises(UnsupportedGridError):
            structured_axes(grid)


def full_array_field(design, grid, times, recipe):
    """The oracle built over the whole (m, J) field at once, one pass per
    operation, as the generator did before it filled the field in blocks."""
    design = np.atleast_1d(np.asarray(design, dtype=float))
    out = np.empty((times.size, grid.shape[0]))
    out[:] = np.asarray(recipe.mean(grid, design), dtype=float)
    term = np.empty_like(out)
    for wave in recipe.waves:
        a = float(wave.amplitude(design))
        f = float(wave.frequency(design))
        psi = float(wave.phase(design))
        g = np.asarray(wave.pattern(grid), dtype=float)
        np.multiply(np.cos(2.0 * math.pi * f * times + psi)[:, None], g, out=term)
        term *= a
        out += term
    return out.T


def scalar_mean_recipe(recipe):
    return SynthRecipe(mean=lambda g, x: 61.25, waves=recipe.waves)


class TestSynthFlowfield:
    @pytest.mark.parametrize("nx, nr, m, make_recipe", [
        (50, 50, 100, None),           # the desk shape
        (24, 24, 30, None),            # the dense-design shape, one block
        (40, 25, 150, None),           # m leaves a ragged last block
        (300, 300, 3, None),           # one row outgrows a block: rows of 1
        (1, 1, 1, None),               # m = 1 and J = 1
        (16, 14, 32, lambda r: SynthRecipe(mean=r.mean, waves=())),
        (16, 14, 32, scalar_mean_recipe),
    ])
    def test_blocked_build_matches_full_array_bits(self, desk_setup, nx, nr, m,
                                                   make_recipe):
        recipe = desk_setup["recipe"]
        if make_recipe is not None:
            recipe = make_recipe(recipe)
        grid, times = make_grid(nx, nr), make_times(m)
        for unit in ([0.3, 0.6, 0.9], [0.95, 0.05, 0.5]):
            x = desk_setup["ranges"].scale(np.array(unit))
            expected = full_array_field(x, grid, times, recipe)
            assert np.array_equal(synth_flowfield(x, grid, times, recipe).field,
                                  expected)

    def test_zero_amplitudes_give_mean(self):
        grid = make_grid(5, 4)
        times = make_times(6)

        def mean(g, x):
            return g[:, 0] + 2.0 * g[:, 1] + x[0]

        recipe = SynthRecipe(mean=mean, waves=(
            WaveComponent(lambda x: 0.0, lambda x: 10.0, lambda x: 0.0,
                          lambda g: np.ones(g.shape[0])),
        ))
        ss = synth_flowfield([1.5], grid, times, recipe)
        expected = mean(grid, np.array([1.5]))
        assert np.allclose(ss.field, expected[:, None], atol=0.0)

    def test_single_term_hand_value(self):
        grid = np.array([[0.0, 0.0]])
        times = np.array([0.0, 0.005])
        recipe = SynthRecipe(
            mean=lambda g, x: np.zeros(g.shape[0]),
            waves=(WaveComponent(
                amplitude=lambda x: 2.0,
                frequency=lambda x: 50.0,
                phase=lambda x: 0.0,
                pattern=lambda g: np.ones(g.shape[0]),
            ),),
        )
        ss = synth_flowfield([0.0], grid, times, recipe)
        # 2 cos(2 pi 50 * 0.005) = 2 cos(pi/2) = 0
        assert abs(ss.field[0, 1]) < 1e-12
        assert ss.field[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_frequency_bound_violation(self):
        grid = make_grid(3, 3)
        times = make_times(8, dt=1e-3)  # Nyquist 500 Hz
        recipe = SynthRecipe(
            mean=lambda g, x: np.zeros(g.shape[0]),
            waves=(WaveComponent(lambda x: 1.0, lambda x: 600.0, lambda x: 0.0,
                                 lambda g: np.ones(g.shape[0])),),
        )
        with pytest.raises(ValueError):
            synth_flowfield([0.0], grid, times, recipe)

    def test_dominant_frequency_recovered_at_bin(self):
        # Bin-aligned target: f = k / (m dt) with k = 8, m = 64, dt = 1e-3.
        m, dt, k = 64, 1e-3, 8
        f_target = k / (m * dt)
        grid = make_grid(3, 3)
        recipe = SynthRecipe(
            mean=lambda g, x: np.full(g.shape[0], 5.0),
            waves=(WaveComponent(lambda x: 1.0, lambda x: f_target,
                                 lambda x: 0.3, lambda g: np.ones(g.shape[0])),),
        )
        ss = synth_flowfield([0.0], grid, make_times(m, dt), recipe)
        assert dominant_frequency(ss.field[4, :], dt) == pytest.approx(
            f_target, abs=0.0
        )

    def test_oracle_smoothness(self, desk_setup):
        recipe = desk_setup["recipe"]
        grid, times = desk_setup["grid"], desk_setup["times"]
        x0 = np.array([45.0, 0.9, 2.0])
        x1 = x0 + 1e-6
        f0 = synth_flowfield(x0, grid, times, recipe).field
        f1 = synth_flowfield(x1, grid, times, recipe).field
        rel = np.linalg.norm(f1 - f0) / np.linalg.norm(f0)
        assert rel < 1e-4

    def test_default_recipe_rank_order_preserved(self, desk_setup):
        recipe = desk_setup["recipe"]
        rng = np.random.default_rng(11)
        for _ in range(50):
            unit = rng.uniform(size=3)
            x = desk_setup["ranges"].scale(unit)
            amps = [w.amplitude(x) for w in recipe.waves]
            assert amps[0] > amps[1] > amps[2]
