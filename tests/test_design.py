import hashlib
import logging
import re

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from kspod.design import (
    _MAXIMIN_ATTEMPTS,
    _maximin_swap_pass,
    Cluster,
    DesignMatrix,
    DesignRanges,
    SWIRL_DESIGN_RANGES,
    assign_cluster,
    generate_slhd,
    read_design_csv,
    scale_design,
    write_design_csv,
)


def occupied_bins(coords, nbins):
    """Independent bin-occupancy oracle: set of equal-width bins hit."""
    return {int(c * nbins) for c in coords}


def check_slhd(design):
    """Both stratification properties, checked by direct bin counting."""
    pts, sid = design.points, design.slice_id
    n, d = pts.shape
    for k in range(d):
        assert occupied_bins(pts[:, k], n) == set(range(n))
    for s in np.unique(sid):
        sub = pts[sid == s]
        q = sub.shape[0]
        for k in range(d):
            assert occupied_bins(sub[:, k], q) == set(range(q))


def unimproved_slhd(s, q, d, rng):
    """A sliced Latin hypercube before any maximin swap, at bin centers."""
    n = s * q
    values = np.empty((n, d))
    for k in range(d):
        # dealt[b, l] = fine bin of coarse block b that slice l receives
        dealt = np.arange(q)[:, None] * s + rng.permuted(
            np.tile(np.arange(s), (q, 1)), axis=1)
        for l in range(s):
            values[l * q:(l + 1) * q, k] = rng.permutation(dealt[:, l])
    return (values + 0.5) / n


def pdist_swap_pass(points, s, q, rng):
    """Reference maximin pass: every pair distance recomputed per swap."""
    pts = points.copy()
    d = pts.shape[1]
    best = pdist(pts, "sqeuclidean").min()
    for _ in range(_MAXIMIN_ATTEMPTS):
        k = int(rng.integers(d))
        l = int(rng.integers(s))
        i, j = rng.choice(q, size=2, replace=False) + l * q
        pts[i, k], pts[j, k] = pts[j, k], pts[i, k]
        cand = pdist(pts, "sqeuclidean").min()
        if cand > best:
            best = cand
        else:
            pts[i, k], pts[j, k] = pts[j, k], pts[i, k]
    return pts


class TestGenerateSlhd:
    def test_paper_scale_design(self):
        design = generate_slhd(5, 6, 3, seed=0)
        assert design.points.shape == (30, 3)
        assert design.num_slices == 5
        check_slhd(design)

    def test_degenerate_single_point(self):
        design = generate_slhd(1, 1, 1, seed=7)
        assert design.points.shape == (1, 1)
        assert 0.0 <= design.points[0, 0] < 1.0

    def test_slice_thirds(self):
        design = generate_slhd(2, 3, 2, seed=1)
        for s in (1, 2):
            sub = design.points[design.slice_id == s]
            for k in range(2):
                thirds = {int(c * 3) for c in sub[:, k]}
                assert thirds == {0, 1, 2}

    def test_deterministic_for_seed(self):
        a = generate_slhd(3, 4, 2, seed=42)
        b = generate_slhd(3, 4, 2, seed=42)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.slice_id, b.slice_id)
        c = generate_slhd(3, 4, 2, seed=43)
        assert not np.array_equal(a.points, c.points)

    def test_bin_centers(self):
        design = generate_slhd(2, 4, 2, seed=3)
        n = design.n
        centered = (np.round(design.points * n - 0.5) + 0.5) / n
        assert np.allclose(design.points, centered, atol=1e-15)

    @pytest.mark.parametrize("s,q,d", [
        (1, 1, 1), (1, 10, 2), (2, 3, 2), (2, 50, 3),
        (4, 25, 6), (5, 6, 3), (10, 10, 4), (3, 7, 5), (100, 1, 2),
        (3, 3, 1), (6, 4, 2), (7, 2, 3), (5, 5, 5), (2, 2, 6),
        (9, 3, 4), (1, 30, 6), (30, 1, 1), (8, 12, 2),
    ])
    def test_stratification_sweep(self, s, q, d):
        check_slhd(generate_slhd(s, q, d, seed=s * 100 + q + d))

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            generate_slhd(0, 3, 2, seed=0)
        with pytest.raises(ValueError):
            generate_slhd(2, 3, 0, seed=0)


    @pytest.mark.parametrize("s,q,d", [
        (5, 6, 3), (8, 10, 3), (1, 8, 3), (6, 2, 3), (5, 6, 1), (5, 6, 5),
        (2, 5, 8), (3, 4, 10),
    ])
    def test_maximin_pass_matches_full_recomputation(self, s, q, d):
        # from an unimproved design many swaps are tried, kept and undone;
        # from a finished one most attempts are skipped
        for seed in range(3):
            raw = unimproved_slhd(s, q, d, np.random.default_rng(seed))
            check_slhd(DesignMatrix(raw, np.repeat(np.arange(1, s + 1), q)))
            for start in (raw, generate_slhd(s, q, d, seed=seed).points):
                fast = np.random.default_rng(seed)
                slow = np.random.default_rng(seed)
                assert np.array_equal(_maximin_swap_pass(start, s, q, fast),
                                      pdist_swap_pass(start, s, q, slow))
                assert fast.bit_generator.state == slow.bit_generator.state

    def test_maximin_pass_logs_its_counts(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="kspod"):
            design = generate_slhd(5, 6, 3, seed=0)
        [record] = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("maximin pass")]
        attempts, accepted, skipped, min_sq = re.fullmatch(
            r"maximin pass: (\d+) attempts, (\d+) swaps accepted, (\d+) "
            r"skipped by the closest-pair test, min squared distance (\S+)",
            record).groups()
        assert int(attempts) == 1000
        assert 0 < int(accepted) and 0 < int(skipped)
        assert int(accepted) + int(skipped) <= 1000
        pts = design.points
        closest = min(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
                      for i in range(design.n) for j in range(i))
        assert float(min_sq) == pytest.approx(closest, rel=1e-5)


# sha256 of generate_slhd(s, q, d, seed).points.tobytes() for consecutive
# seeds from the one given: the perfbench training designs (5, 6, 3) and
# (8, 10, 3) and held-out designs (4, 8, 3), acceptance criterion 07's
# held-out design (1, 8, 3) at seed 1, and the edge shapes s = 1, q = 2,
# d = 1 and d = 5. Trained models and their files follow from these bits.
PINNED_DESIGNS = [
    ((5, 6, 3), 0, (
        "29c060796207ac19392332ae873da4786000490c6ed771b288d6a0a2a325d88d",
        "930a6831748f4a540c2214a4c112012dd9f569cfe4c793d94afcc805d0a1068a",
        "67ce65fc4ef62e707fe396168c1656f5b9ed45bf770878945eb2058ddc6f14b7",
        "03dff90a0cd8a6a952dff3b98f718b415a4fcf0f38e7a3f3970dee1af5483977",
        "3bb14a39f32140610e8df439447041e3570b2db5662dc2e776a9efd714b64012",
        "aa756f2777b0e223e54e5074d952feec9600212ea8a028cf609f71145a397ecb",
        "84896f6ea383b54cd111889b7f8d31d6651475e00ea410b89defd3d5e36b00df",
        "fca9060a0df20cb780ddaa7f90ff497210a98062ec0a59c0e369181b20234626",
        "f4f9316a155388a819dac600c617c539584523d5e8e2b49e235b35c93fc4ae7a",
        "8ac6689bcbd5c1cad161c0e486cca083eb583ae9b60aafbed65c294a3099cca7",
        "d07fd3acbd7bd6bb996f255013f37b847983878e4805c8e1eba937614925d5bd",
        "fdfd49b8b0afbab39e1a6162e44a9adc490a9326d7d33524d38ab9090f6529f8",
        "7d51c1b096897e42305f6aaa573ec8fc09d81204e4a1768c0be09d1e03903b6d",
        "850df2a1634bca32e98440ca2a93c9ca2b6fd1a5db7fb7859c13abb6d6a03b22",
        "994eb0b9637cc2a484fae78b569cb76abc173f135811c4ae04f7cb5c82659481",
        "4b5571f1e776024e09cfeabda4e3857fea58cc22afdf1aa6394fce474bb3ef6a",
        "a3ca55072727678e8765a605e66df88f7ebf0a7c45cc3958e8ad351cd3032b07",
        "258258de7e69e3a7496618fc17e93b4afe3220b08f1eb62132130038472d0661",
        "6e6b904c06c878d9fa204c53af410d6bc6496eafe1acd27c00e6c4368f1dd6d2",
        "ec099cf340e458bde4139451986da9d86e632a2bb51e1610f5a412000e2db680",
        "db9bad6bf365390f51541186bd862af81be0a08e5e823abfcf6d99949f9feee9",
    )),
    ((8, 10, 3), 0, (
        "4ea98e8f1fe9e15f7fc65d2744bfaf35584006f33435c91a4873a6b87ab41a13",
        "3c9646d1b04659cdacdc7596c7e8e12170d34322793fc18c00049364345d3f29",
        "6a390eee619ac870fb60d20f59a2639a500ca0b954eae294ff62d02b7177a4ed",
        "8cbd1783e1352cc5c6e76a039acdeaa8e20a09541356c8be9b028a18efae6268",
        "2b40cdd11695cc16c7ead16b8589b34a3281db4f5c1611a395a262f05c6777ec",
        "a15aebc44fbe9f301caad9485d668bd377f3385543d02a5f7b559bf20c95de61",
        "91c697ec8c1a442d12ad0c9c97af9161bc3a85a6eb6189859bfc85b1143ef275",
        "141b3487fa5d705e57c5e56c5a6c037963f74038472edfb9dc6617526c9e8cfd",
        "c6d7f16aafc6d36f221dec567d9488a1ebab1c1bb08e3884c2d0acd660456c11",
        "7a6dcaa94076e96ed9466bda6cd2474b39967419fe3d02c4685b18bca0665ead",
        "a014f92c3467db3dcb636b04151231aeafa7084698498c47638839cc0b17138e",
        "41c2e1f37cb25ff66892b5013291273941e6f2e9397f4aa778de7ef88ef557d1",
        "477e9cafae11124fcfa9448cb0b5289498a9c2b22391b49cc5056b836a791451",
        "45ecd52bbb7a54d87ea1f47fed9e6591b1fdb77d556a11a28523949bfdb46c31",
        "9b20b0bcc9c3bcd3f420b98489aac0e29c6380825a61d15d9045a600b65b3b7c",
        "9c63a9d378a64e227bcf419dd2a285e1d1d7c0ff873ed483d0842b7defc95073",
        "88d00d30601b966169c4c05a847c5f0cce4daf9542462dd74589fdfca4cb0cfd",
        "9d521067de93dacbebc0cf2b69f96c93a31ca27f9255a651ba6d10d0472ba357",
        "6b3424cc6e2255d8f58b9eaf7bd55fe4995b97d91c571a8e8821b9376c5125a0",
        "b64c1d030e02daebd46d3a06745be8cafe32b2cb40b45b688992c24991ec8475",
        "a43a26837318f24608373b13cdc1285c04316bca57ac6c954ce686bfa700f371",
    )),
    ((4, 8, 3), 1, (
        "957c78ccaf1b302b4ac53e451b15781079095918d0014fbf66a30423bb9fec33",
        "f87f67564e9147401f720c1a2f61b2a1546e9ee7fd247b73c587a6acabc6214e",
        "e27d83389ca052bba3fb2d8db3085ece43338b2e5cf643cb47254018f22910a4",
        "cadcb508ed7e7748438257e124996e8483a403c69fabd5de0e702dcf296f618b",
        "79d74d6bca58e1e836620662dffbb1c7092ede9e7e01069344f682f0513f0a20",
        "135b4d1369fc88e968a833bd940196ebc9adcfd5021d962f5898842427ade044",
        "c880c8860305c6766ffc903c1ed0e80c79f2e581898db6ea8b69a32a4806aabe",
        "433f9e93a27ae743772a3a8d233377c4d9f482a1f60d02bfbebbfdf2015f4d51",
        "345aba8b906f238755df94e9a234e76e2265b6a0a626dbaa979e3761e6127deb",
        "d8f22e7d78d2f5cd29fb3e3b60beed9490696a8454d02fe1fffa89223eb16e38",
        "b3032fa30849643c0537fa51cbb940b6ef30022b8bba8ba08708509022cf53ce",
        "2873c07c4d45b222dd67ae817755e06257c298c934030de7abf669d1e1b1b8ed",
        "6a1167f30fd233457c2f81e018437d5b860d8dd2bd87f6f70c2b9d8115b3998a",
        "1a81739dfe377496435db36ae64b41f00b6eacbd98ddc877f25f4799b27b5f27",
        "d287f5e08a5de4eb81b40c807093843363160149d952eb11cfe50ada40bbef2a",
        "17e5b4a52554d79476ec9776a8bf03004632f75161e60eb01945562ee2bc00ab",
        "5ce87ad2a93380f2ddb45a1d25116a2897ffa08ae22b827965f942f54317f361",
        "99804bda59c93f0278a13b3eab3f5699d0b8de07bdcc1f524d778092032a94b9",
        "78dcec7bd5aed945ce11448990224323248994f2f1fc1897a8a618cb236e8e28",
        "3c2b66d211c95cd6fee29806483d30a2e72033fb92958a8969254cc9677a425a",
        "15de325ddda9107f27f92e19a885fc786c6b988b00932a659ac533593368a1b5",
    )),
    ((1, 8, 3), 1, (
        "a8c1a81e0b7fc7ddfcee24d77d8b5546c0de2c9fc6c4d52fc97b96c261928c84",
    )),
    ((1, 12, 3), 0, (
        "51040c5201337e5854e1c52db7a80f4e1c681324d16a7950f53eb834737885a6",
        "739200c34344c1f6bece12af2cbac1744b7c56fff96809f2fe4dac6912f85d85",
        "50b47a7d0ea069c6eeb8770410d7ddc6b8d683c236d12ef3016504f921cda3ad",
    )),
    ((6, 2, 3), 0, (
        "e59a473205bbca3a72d51de5eec51c8ac0010c7097e156e6cf6d58fbc4b47a1a",
        "7772ba8809171441ac80270d667b355623faa9612baaf88f2f62ad8759ae707f",
        "95a2d96c5dba940cfdab8262705f31ae6182f66f1aa409c6e702332fed4ed34d",
    )),
    ((5, 6, 1), 0, (
        "3f9d5c08837936d61c055f67261a1ac15250e2a844f36fd16e498cc4325af52f",
        "2ad94c826f084b195e880c2893ebbb9800d597ed1a764326bd3b0d4fc6db0e30",
        "ea5b50cba8f2200b439dc38894019c163029c8e0ba6b1c54cd4261f0e8a54411",
    )),
    ((5, 6, 5), 0, (
        "c090b60110bedd6833dcd96fe56ab62bf0dfea698caeb9c65beb93969cb9122b",
        "c8cf39d17e466d9e414144aaa12083798102759a3ebd76791e9377062bc9d01f",
        "d5d7c7cfc7efae87ca8ab6f1df14b30fbcb2142ef289eebbec085b92425c3974",
    )),
]


@pytest.mark.parametrize("shape,first_seed,digests", PINNED_DESIGNS,
                         ids=[str(shape) for shape, _, _ in PINNED_DESIGNS])
def test_designs_are_pinned(shape, first_seed, digests):
    got = [hashlib.sha256(generate_slhd(*shape, seed=seed).points.tobytes()).hexdigest()
           for seed in range(first_seed, first_seed + len(digests))]
    assert got == list(digests)


class TestScaling:
    def test_theta_range_endpoints(self):
        unit = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        phys = scale_design(unit, SWIRL_DESIGN_RANGES)
        assert phys[0, 0] == pytest.approx(35.0, abs=1e-12)
        assert phys[1, 0] == pytest.approx(62.2, abs=1e-12)
        assert phys[2, 0] == pytest.approx(48.6, abs=1e-12)

    def test_round_trip_identity(self):
        pts = np.random.default_rng(5).uniform(size=(40, 3))
        back = SWIRL_DESIGN_RANGES.normalize(scale_design(pts, SWIRL_DESIGN_RANGES))
        assert np.all(np.abs(back - pts) <= 1e-12 * np.maximum(1.0, np.abs(pts)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scale_design(np.zeros((3, 2)), SWIRL_DESIGN_RANGES)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            DesignRanges(np.array([1.0]), np.array([1.0]))


class TestClusters:
    def test_table_rows(self):
        assert assign_cluster(40.43) is Cluster.D
        assert assign_cluster(6.42) is Cluster.A
        assert assign_cluster(19.53) is Cluster.C

    def test_boundaries(self):
        assert assign_cluster(9.999) is Cluster.A
        assert assign_cluster(10.0) is Cluster.B
        assert assign_cluster(18.0) is Cluster.C
        assert assign_cluster(25.0) is Cluster.D

    def test_nonpositive_velocity(self):
        with pytest.raises(ValueError):
            assign_cluster(0.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        design = generate_slhd(3, 4, 3, seed=9)
        path = tmp_path / "design.csv"
        write_design_csv(design, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "slice,x1,x2,x3"
        loaded = read_design_csv(path)
        assert np.array_equal(loaded.points, design.points)
        assert np.array_equal(loaded.slice_id, design.slice_id)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            DesignMatrix(np.array([[0.25, 0.25], [0.75, 0.26]]),
                         np.array([1, 1]))
