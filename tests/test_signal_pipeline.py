import math

import numpy as np
import pytest

from ratmin.minimax import BisectionConfig
from ratmin.sine_model import SineSearchSpace
from ratmin.signal_pipeline import (
    FeatureExtractionError,
    FeatureVector,
    SegmentFormatError,
    SegmentSet,
    SplitSpec,
    extract_features,
    load_segments,
    read_feature_csv,
    separability_smoke_check,
    split,
    write_feature_csv,
)

FAST = BisectionConfig(epsilon=1e-6)
SMALL_SPACE = SineSearchSpace(omegas=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
                              taus=(0.0, math.pi / 2))


def write_segment(path, samples):
    path.write_text("".join(f"{float(v)!r}\n" for v in samples))


class TestLoadSegments:
    def test_files_in_name_order(self, tmp_path):
        write_segment(tmp_path / "b.txt", [4.0, 5.0])
        write_segment(tmp_path / "a.txt", [1.0, 2.0, 3.0])
        write_segment(tmp_path / "c.txt", [6.0])
        segs = load_segments(tmp_path, "X")
        assert segs.label == "X"
        assert segs.lengths == [3, 2, 1]
        np.testing.assert_array_equal(segs.segments[0], [1.0, 2.0, 3.0])

    def test_single_file(self, tmp_path):
        (tmp_path / "only.txt").write_text("1\n2\n3\n")
        segs = load_segments(tmp_path, "X")
        assert len(segs.segments) == 1
        np.testing.assert_array_equal(segs.segments[0], [1.0, 2.0, 3.0])

    def test_unparseable_line_names_file_and_line(self, tmp_path):
        (tmp_path / "bad.txt").write_text("1\nabc\n")
        with pytest.raises(SegmentFormatError, match=r"bad\.txt.*line 2"):
            load_segments(tmp_path, "X")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(SegmentFormatError, match="no segment"):
            load_segments(tmp_path, "X")

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        (tmp_path / "pad.txt").write_text("1\n2\n\n\n")
        segs = load_segments(tmp_path, "X")
        np.testing.assert_array_equal(segs.segments[0], [1.0, 2.0])

    def test_interior_blank_line_is_an_error(self, tmp_path):
        (tmp_path / "gap.txt").write_text("1\n\n2\n")
        with pytest.raises(SegmentFormatError, match="line 2"):
            load_segments(tmp_path, "X")

    def test_hidden_files_ignored(self, tmp_path):
        write_segment(tmp_path / "a.txt", [1.0, 2.0])
        (tmp_path / ".hidden").write_text("junk\n")
        assert len(load_segments(tmp_path, "X").segments) == 1


class TestExtractFeatures:
    def test_constant_segment_single_feature(self):
        segs = SegmentSet("C", [np.full(25, 2.5)])
        vectors = extract_features(segs, "M1", 0, 0, FAST)
        assert len(vectors) == 1
        assert vectors[0].features == [2.5]
        assert vectors[0].model == "M1"
        assert vectors[0].segment_id == 0

    @pytest.mark.parametrize("n,m,expected", [(3, 1, 5), (0, 0, 1), (2, 2, 5)])
    def test_m1_feature_count(self, n, m, expected):
        size = 10 * (n + m + 2)
        rng = np.random.default_rng(0)
        segs = SegmentSet("C", [rng.normal(size=size) for _ in range(2)])
        vectors = extract_features(segs, "M1", n, m, FAST)
        assert all(len(v.features) == expected for v in vectors)
        assert expected == (n + 1) + (m + 1) - 1

    def test_m2_adds_frequency_feature(self):
        s = np.linspace(-1, 1, 60)
        segs = SegmentSet("C", [np.sin(3 * s), np.sin(5 * s)])
        vectors = extract_features(segs, "M2", 3, 1, FAST, SMALL_SPACE)
        assert all(len(v.features) == 6 for v in vectors)
        assert vectors[0].features[-1] == 3.0
        assert vectors[1].features[-1] == 5.0

    def test_unknown_model_rejected(self):
        segs = SegmentSet("C", [np.zeros(25)])
        with pytest.raises(ValueError, match="model"):
            extract_features(segs, "M3", 0, 0)

    def test_failure_names_segment(self):
        segs = SegmentSet("C", [np.sin(np.linspace(0, 3, 30)), np.zeros(30)])
        with pytest.raises(FeatureExtractionError, match="segment 0 of class 'C'"):
            extract_features(segs, "M1", 0, 1, BisectionConfig(epsilon=1e-6, delta=10.0))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        segs = SegmentSet("C", [rng.normal(size=60) for _ in range(3)])
        first = extract_features(segs, "M1", 3, 1, FAST)
        second = extract_features(segs, "M1", 3, 1, FAST)
        assert [v.features for v in first] == [v.features for v in second]


def make_vectors(label, count, offset=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FeatureVector(label, i, "M1", list(rng.normal(offset, 1.0, size=3)))
        for i in range(count)
    ]


class TestSplit:
    def test_hundred_hundred(self):
        vectors = make_vectors("A", 100) + make_vectors("B", 100, seed=1)
        train, test = split(vectors, SplitSpec(train_fraction=0.75, seed=0))
        assert len(train) == 150 and len(test) == 50
        for label in "AB":
            assert sum(v.label == label for v in train) == 75
            assert sum(v.label == label for v in test) == 25

    def test_floor_rule_small_class(self):
        vectors = make_vectors("A", 4)
        train, test = split(vectors, SplitSpec(train_fraction=0.75, seed=0))
        assert len(train) == 3 and len(test) == 1

    def test_same_seed_identical(self):
        vectors = make_vectors("A", 20) + make_vectors("B", 20, seed=1)
        a = split(vectors, SplitSpec(seed=7))
        b = split(vectors, SplitSpec(seed=7))
        assert [(v.label, v.segment_id) for v in a[0]] == [(v.label, v.segment_id) for v in b[0]]
        assert [(v.label, v.segment_id) for v in a[1]] == [(v.label, v.segment_id) for v in b[1]]

    def test_different_seeds_differ(self):
        vectors = make_vectors("A", 50)
        a = split(vectors, SplitSpec(seed=0))
        b = split(vectors, SplitSpec(seed=1))
        assert [v.segment_id for v in a[0]] != [v.segment_id for v in b[0]]

    def test_no_shuffle_keeps_order(self):
        vectors = make_vectors("A", 8)
        train, test = split(vectors, SplitSpec(train_fraction=0.75, shuffle=False))
        assert [v.segment_id for v in train] == [0, 1, 2, 3, 4, 5]
        assert [v.segment_id for v in test] == [6, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            split([], SplitSpec())


class TestSmokeCheck:
    def test_identical_distributions_near_chance(self):
        train = make_vectors("A", 60, seed=2) + make_vectors("B", 60, seed=3)
        test = make_vectors("A", 40, seed=4) + make_vectors("B", 40, seed=5)
        accuracy = separability_smoke_check(train, test)
        assert 0.2 <= accuracy <= 0.8

    def test_separated_constants_perfect(self):
        train = [FeatureVector("A", i, "M1", [1.0 + 0.01 * i]) for i in range(5)]
        train += [FeatureVector("B", i, "M1", [2.0 + 0.01 * i]) for i in range(5)]
        test = [FeatureVector("A", 9, "M1", [1.02]), FeatureVector("B", 9, "M1", [2.03])]
        assert separability_smoke_check(train, test) == 1.0

    def test_constant_feature_dropped_with_warning(self):
        train = [FeatureVector("A", i, "M1", [1.0 + i, 7.0]) for i in range(4)]
        train += [FeatureVector("B", i, "M1", [10.0 + i, 7.0]) for i in range(4)]
        test = [FeatureVector("A", 5, "M1", [2.0, 7.0])]
        with pytest.warns(UserWarning, match="constant"):
            accuracy = separability_smoke_check(train, test)
        assert accuracy == 1.0

    def test_needs_two_classes(self):
        train = make_vectors("A", 5)
        with pytest.raises(ValueError, match="two classes"):
            separability_smoke_check(train, train)

    def test_test_order_does_not_matter(self):
        train = make_vectors("A", 30, seed=8) + make_vectors("B", 30, offset=2.0, seed=9)
        test = make_vectors("A", 20, seed=10) + make_vectors("B", 20, offset=2.0, seed=11)
        forward = separability_smoke_check(train, test)
        backward = separability_smoke_check(train, list(reversed(test)))
        assert forward == backward


class TestCsvRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        vectors = [FeatureVector("A", i, "M1", list(rng.normal(size=4))) for i in range(6)]
        path = tmp_path / "features.csv"
        write_feature_csv(path, vectors)
        back = read_feature_csv(path)
        assert [v.features for v in back] == [v.features for v in vectors]
        assert [v.segment_id for v in back] == list(range(6))
        header = path.read_text().splitlines()[0]
        assert header == "label,segment_id,f1,f2,f3,f4"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_feature_csv(path)

    def test_inconsistent_widths_rejected(self, tmp_path):
        vectors = [FeatureVector("A", 0, "M1", [1.0]), FeatureVector("A", 1, "M1", [1.0, 2.0])]
        with pytest.raises(ValueError, match="inconsistent"):
            write_feature_csv(tmp_path / "x.csv", vectors)


def test_oscillatory_two_class_smoke_check():
    rng = np.random.default_rng(42)
    s = np.linspace(-1, 1, 48)

    def segments(freq, count):
        return [
            (1 + 0.2 * rng.normal()) * np.sin(freq * s) + 0.05 * rng.normal(size=s.size)
            for _ in range(count)
        ]

    vectors = []
    for label, freq in (("low", 3.0), ("high", 7.0)):
        segs = SegmentSet(label, segments(freq, 10))
        vectors.extend(extract_features(segs, "M2", 0, 0, FAST, SMALL_SPACE))
    # the frequency feature alone separates the classes
    for vec in vectors:
        expected = 3.0 if vec.label == "low" else 7.0
        assert vec.features[-1] == expected
    train, test = split(vectors, SplitSpec(train_fraction=0.75, seed=0))
    accuracy = separability_smoke_check(train, test)
    assert accuracy > 0.9
