import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedalign.domains import (
    CsvSchema,
    DomainDataset,
    DomainSuite,
    SyntheticSpec,
    default_benchmark_spec,
    generate,
    leave_one_out,
    load_csv,
    batch_rows,
    minibatch,
    rotation_matrix,
    save_csv,
)
from fedalign.errors import (
    EmptyDataset,
    InconsistentDimension,
    InsufficientDomains,
    InvalidSpec,
    ParseError,
    UnknownDomain,
)
from fedalign.numcore import Rng

from _oracles import scalar_draws


class TestRotationMatrix:
    def test_zero_is_identity(self):
        assert np.array_equal(rotation_matrix(0.0), np.eye(2))

    def test_half_turn_negates_exactly(self):
        # No trig rounding allowed on quarter turns: x -> -x bit for bit.
        rot = rotation_matrix(180.0)
        v = np.array([[0.123456789, -9.87654321], [1e-8, 1e8]])
        assert np.array_equal(v @ rot.T, -v)

    def test_quarter_turn(self):
        rot = rotation_matrix(90.0)
        assert np.array_equal(rot @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_wraparound(self):
        assert np.array_equal(rotation_matrix(540.0), rotation_matrix(180.0))

    @pytest.mark.parametrize(
        "degrees", [float("inf"), float("-inf"), float("nan"), pytest.param(10**400, id="huge-int")]
    )
    def test_non_finite_rejected(self, degrees):
        with pytest.raises(InvalidSpec):
            rotation_matrix(degrees)

    @given(st.floats(-720, 720, allow_nan=False))
    @settings(max_examples=50)
    def test_orthonormal(self, degrees):
        rot = rotation_matrix(degrees)
        assert np.allclose(rot @ rot.T, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


class TestSyntheticSpec:
    def test_defaults(self):
        spec = default_benchmark_spec()
        assert spec.num_domains == 4
        assert spec.rotation_degrees == (0.0, 15.0, 30.0, 45.0)
        assert spec.samples_per_domain == 500
        assert spec.noise_sigma == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="spirals"),
            dict(num_domains=1, rotation_degrees=(0.0,)),
            dict(samples_per_domain=0),
            dict(rotation_degrees=(0.0, 10.0)),  # wrong length for 4 domains
            dict(noise_sigma=-0.1),
            dict(samples_per_domain=True),
            dict(num_domains=4.0),
            dict(seed=-1),
            dict(noise_sigma=float("inf")),
            dict(rotation_degrees=(0.0, 15.0, 30.0, float("inf"))),
            dict(rotation_degrees=(0.0, 15.0, 30.0, float("nan"))),
            dict(rotation_degrees=(0.0, 15.0, 30.0, 10**400)),
            dict(rotation_degrees=(0.0, 15.0, 30.0, "45")),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(**kwargs)


class TestGenerate:
    def test_shape_and_ids(self):
        suite = generate(default_benchmark_spec(seed=3))
        assert suite.domain_ids == ("dom0", "dom1", "dom2", "dom3")
        assert suite.num_classes == 2
        assert suite.num_features == 2
        for d in suite.domains:
            assert d.num_rows == 500
            assert sorted(np.bincount(d.labels).tolist()) == [250, 250]

    def test_replay_identical(self):
        spec = SyntheticSpec(seed=7)
        a, b = generate(spec), generate(spec)
        for da, db in zip(a.domains, b.domains):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.labels, db.labels)

    def test_seed_changes_data(self):
        a = generate(SyntheticSpec(seed=0))
        b = generate(SyntheticSpec(seed=1))
        assert not np.array_equal(a.domains[0].features, b.domains[0].features)

    def test_adding_a_domain_preserves_existing(self):
        # Per-domain child seeds depend only on (seed, domain index).
        small = generate(SyntheticSpec(num_domains=2, rotation_degrees=(0.0, 15.0), seed=5))
        large = generate(
            SyntheticSpec(num_domains=3, rotation_degrees=(0.0, 15.0, 30.0), seed=5)
        )
        for i in range(2):
            assert np.array_equal(small.domains[i].features, large.domains[i].features)

    def test_zero_rotation_same_distribution(self):
        spec = SyntheticSpec(
            num_domains=2, rotation_degrees=(0.0, 0.0), noise_sigma=0.0, seed=11
        )
        suite = generate(spec)
        for cls in (0, 1):
            means = [
                d.features[d.labels == cls].mean(axis=0) for d in suite.domains
            ]
            assert np.max(np.abs(means[0] - means[1])) < 0.2

    def test_rotation_actually_applied(self):
        base = generate(
            SyntheticSpec(num_domains=2, rotation_degrees=(0.0, 0.0), noise_sigma=0.0, seed=2)
        )
        rotated = generate(
            SyntheticSpec(num_domains=2, rotation_degrees=(0.0, 90.0), noise_sigma=0.0, seed=2)
        )
        # Domain 1 shares its base draw (same child seed); rotating that
        # base by 90 degrees sends (x, y) to (-y, x).
        b = base.domains[1].features
        r = rotated.domains[1].features
        assert np.allclose(r, np.column_stack([-b[:, 1], b[:, 0]]), atol=1e-12)

    def test_two_moons_family(self):
        suite = generate(
            SyntheticSpec(family="rotated_two_moons", num_domains=2, rotation_degrees=(0.0, 0.0))
        )
        feats = np.vstack([d.features for d in suite.domains])
        # Centered construction: both moons straddle the origin.
        assert abs(feats.mean(axis=0)).max() < 0.3


class TestLeaveOneOut:
    def test_split(self):
        suite = generate(default_benchmark_spec())
        sources, target = leave_one_out(suite, "dom2")
        assert [s.domain_id for s in sources] == ["dom0", "dom1", "dom3"]
        assert target.domain_id == "dom2"
        assert len(sources) + 1 == len(suite.domains)

    def test_unknown_target(self):
        suite = generate(default_benchmark_spec())
        with pytest.raises(UnknownDomain):
            leave_one_out(suite, "nope")


class TestMinibatch:
    @pytest.fixture()
    def ds(self):
        return generate(default_benchmark_spec(seed=0)).domains[0]

    def test_without_replacement_rows_unique(self, ds):
        x, y = minibatch(ds, 32, Rng(1))
        assert x.shape == (32, 2) and y.shape == (32,)
        assert len(np.unique(x, axis=0)) == 32

    def test_full_batch_is_whole_dataset_in_order(self, ds):
        x, y = minibatch(ds, ds.num_rows, Rng(1))
        assert np.array_equal(x, ds.features)
        assert np.array_equal(y, ds.labels)

    def test_with_replacement_when_oversized(self, ds):
        x, y = minibatch(ds, ds.num_rows + 10, Rng(1))
        assert x.shape[0] == ds.num_rows + 10

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
    def test_with_replacement_matches_scalar_draws(self, ds, n):
        small = DomainDataset("s", ds.features[:n], ds.labels[:n])
        for batch in (n + 1, 2 * n + 3, 100):
            fast, ref = Rng(8, n, batch), Rng(8, n, batch)
            x, y = minibatch(small, batch, fast)
            idx = scalar_draws(ref, n, batch)
            assert np.array_equal(x, small.features[idx]) and np.array_equal(y, small.labels[idx])
            assert fast.integers(2**62) == ref.integers(2**62)

    def test_deterministic(self, ds):
        xa, ya = minibatch(ds, 8, Rng(42))
        xb, yb = minibatch(ds, 8, Rng(42))
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_rows_come_from_dataset(self, ds):
        x, y = minibatch(ds, 16, Rng(3))
        # Every sampled row (with its label) appears verbatim in the source.
        for row, lab in zip(x, y):
            matches = np.where((ds.features == row).all(axis=1))[0]
            assert matches.size > 0
            assert lab in ds.labels[matches]

    def test_empty_dataset(self):
        empty = DomainDataset("e", np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataset):
            minibatch(empty, 4, Rng(0))

    def test_bad_batch_size(self, ds):
        with pytest.raises(InvalidSpec):
            minibatch(ds, 0, Rng(0))

    @pytest.mark.parametrize("batch", [1, 8, 499, 500, 501, 1200])
    def test_is_batch_rows_then_gather(self, ds, batch):
        a, b = Rng(6, batch), Rng(6, batch)
        x, y = minibatch(ds, batch, a)
        rows = batch_rows(ds.num_rows, batch, b)
        assert np.array_equal(x, ds.features[rows]) and np.array_equal(y, ds.labels[rows])
        assert a.integers(2**62) == b.integers(2**62)

    def test_batch_rows_are_read_only(self, ds):
        for batch in (8, 1200):
            rows = batch_rows(ds.num_rows, batch, Rng(0))
            with pytest.raises(ValueError):
                rows[0] = 1
        assert batch_rows(ds.num_rows, ds.num_rows, Rng(0)) == slice(None)

    def test_batch_rows_errors(self):
        with pytest.raises(EmptyDataset):
            batch_rows(0, 4, Rng(0))
        with pytest.raises(InvalidSpec):
            batch_rows(10, 0, Rng(0))


class TestSuiteValidation:
    def test_needs_two_domains(self):
        d = DomainDataset("a", np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(InsufficientDomains):
            DomainSuite((d,), num_classes=2)

    def test_duplicate_ids_rejected(self):
        d1 = DomainDataset("a", np.zeros((3, 2)), np.zeros(3, dtype=int))
        d2 = DomainDataset("a", np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(InvalidSpec):
            DomainSuite((d1, d2), num_classes=2)

    def test_dimension_mismatch_rejected(self):
        d1 = DomainDataset("a", np.zeros((3, 2)), np.zeros(3, dtype=int))
        d2 = DomainDataset("b", np.zeros((3, 5)), np.zeros(3, dtype=int))
        with pytest.raises(InconsistentDimension):
            DomainSuite((d1, d2), num_classes=2)

    def test_label_range_checked(self):
        d1 = DomainDataset("a", np.zeros((2, 2)), np.array([0, 3]))
        d2 = DomainDataset("b", np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(InvalidSpec):
            DomainSuite((d1, d2), num_classes=2)

    def test_negative_labels_rejected(self):
        # A negative label would index another class's log-probability from
        # the end; an empty label vector has no minimum and stays valid.
        with pytest.raises(InvalidSpec, match="nonnegative"):
            DomainDataset("a", np.ones((3, 2)), np.array([-1, 0, 1]))
        assert DomainDataset("a", np.zeros((0, 2)), np.zeros(0, dtype=int)).num_rows == 0

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1.7, 1.0], np.array([0.0, np.nan, 1.0]), np.array([0.0, 1e20, 1.0]), ["0", "1", "1"]],
        ids=["fractional", "nan", "huge", "strings"],
    )
    def test_non_integer_labels_rejected(self, labels):
        # np.int64 casting truncated 0.5 and 1.7 to classes 0 and 1.
        with pytest.raises(InvalidSpec, match="integers"):
            DomainDataset("a", np.ones((3, 2)), labels)

    def test_integral_float_labels_kept(self):
        labels = DomainDataset("a", np.ones((3, 2)), [0.0, 1.0, 1.0]).labels
        assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        features = np.ones((3, 2))
        features[1, 0] = value
        with pytest.raises(InvalidSpec, match="finite"):
            DomainDataset("a", features, np.array([0, 1, 0]))

    def test_by_id_unknown(self):
        suite = generate(default_benchmark_spec())
        with pytest.raises(UnknownDomain):
            suite.by_id("domX")


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        suite = generate(SyntheticSpec(num_domains=2, rotation_degrees=(0.0, 30.0), seed=9))
        path = tmp_path / "suite.csv"
        schema = save_csv(suite, str(path))
        loaded = load_csv(str(path), schema)
        assert loaded.domain_ids == suite.domain_ids
        assert loaded.num_classes == suite.num_classes
        for a, b in zip(suite.domains, loaded.domains):
            # 17 significant digits round-trip float64 exactly.
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_header_contract(self, tmp_path):
        suite = generate(SyntheticSpec(num_domains=2, rotation_degrees=(0.0, 15.0)))
        path = tmp_path / "suite.csv"
        save_csv(suite, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "domain,x0,x1,label"


class TestLoadCsv:
    SCHEMA = CsvSchema(feature_cols=("x0", "x1"), label_col="label", domain_col="domain")

    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_small_fixture(self, tmp_path):
        path = self.write(
            tmp_path,
            "domain,x0,x1,label\n"
            "a,0.0,1.0,yes\n"
            "a,1.0,0.0,no\n"
            "b,0.5,0.5,yes\n"
            "b,0.25,0.75,no\n",
        )
        suite = load_csv(path, self.SCHEMA)
        assert suite.domain_ids == ("a", "b")
        assert all(d.num_rows == 2 for d in suite.domains)
        # Labels map by first appearance: yes -> 0, no -> 1.
        assert suite.label_names == ("yes", "no")
        assert suite.domains[0].labels.tolist() == [0, 1]

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "domain,x0,label\na,1.0,0\nb,2.0,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, self.SCHEMA)
        assert err.value.line == 1
        assert "x1" in str(err.value)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "domain,x0,x1,label\na,1.0,2.0,0\na,oops,2.0,1\nb,3.0,4.0,0\n",
        )
        with pytest.raises(ParseError) as err:
            load_csv(path, self.SCHEMA)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "lead", ['"a\nb",1.0,2.0,0\n', "a,1.0,2.0,0\n\n"], ids=["quoted-newline", "blank-line"]
    )
    @pytest.mark.parametrize(
        "row, error, message",
        [
            ("c,oops,2.0,1", ParseError, "line 4, column 'x0': not a number: 'oops'"),
            ("c,inf,2.0,1", ParseError, "line 4, column 'x0': not a finite number: 'inf'"),
            ("c,1.0", InconsistentDimension, "line 4: row is shorter than the header"),
            ("c,1.0,2.0,1,9", InconsistentDimension, "line 4: row is longer than the header"),
        ],
        ids=["not-a-number", "non-finite", "short", "long"],
    )
    def test_errors_name_the_physical_line(self, tmp_path, lead, row, error, message):
        # The second record spans, or is followed by, two physical lines, so
        # the bad record is the third but sits on line 4.
        path = self.write(tmp_path, "domain,x0,x1,label\n" + lead + row + "\n")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_csv(path, self.SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = self.write(
            tmp_path,
            f"domain,x0,x1,label\na,1.0,2.0,0\nb,3.0,4.0,1\nb,5.0,{cell},0\n",
        )
        with pytest.raises(ParseError, match="not a finite number") as err:
            load_csv(path, self.SCHEMA)
        assert (err.value.line, err.value.column) == (4, "x1")

    @pytest.mark.parametrize("bad_line", [1, 3, 900], ids=["header", "row", "past-first-read-chunk"])
    def test_non_utf8_byte_names_line(self, tmp_path, bad_line):
        # The text reader decodes 8 KiB at a time: lines 1 and 3 lie in its
        # first read, line 900 past it.
        rows = [b"%s,%d.0,2.0,%d" % (b"ab"[i % 2 : i % 2 + 1], i, i % 2) for i in range(999)]
        lines = [b"domain,x0,x1,label", *rows]
        lines[bad_line - 1] += b"\xff"
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=r"invalid UTF-8 byte 0xff \(invalid start byte\)$") as err:
            load_csv(str(path), self.SCHEMA)
        assert (err.value.line, err.value.column) == (bad_line, str(len(lines[bad_line - 1])))

    def test_schema_rejects_a_bare_string(self):
        # tuple("x0") would read as the two columns "x" and "0".
        with pytest.raises(InvalidSpec, match="feature_cols"):
            CsvSchema(feature_cols="x0", label_col="label", domain_col="domain")
        assert CsvSchema(feature_cols=["x0"], label_col="label", domain_col="domain").feature_cols == ("x0",)

    @pytest.mark.parametrize(
        "names",
        [
            dict(feature_cols=("x0", 1), label_col="label", domain_col="domain"),
            dict(feature_cols=("x0",), label_col=None, domain_col="domain"),
            dict(feature_cols=("x0",), label_col="label", domain_col=b"domain"),
        ],
        ids=["feature", "label", "domain"],
    )
    def test_schema_rejects_a_name_that_is_not_a_string(self, names):
        # Accepted, such a name would surface later as a column missing from the header.
        with pytest.raises(InvalidSpec, match="^column names must be strings$"):
            CsvSchema(**names)

    @pytest.mark.parametrize("cols", [5, None])
    def test_schema_rejects_feature_cols_that_are_not_a_sequence(self, cols):
        with pytest.raises(InvalidSpec, match="^feature_cols must be a sequence of column names$"):
            CsvSchema(feature_cols=cols, label_col="label", domain_col="domain")

    def test_single_domain_rejected(self, tmp_path):
        path = self.write(tmp_path, "domain,x0,x1,label\na,1.0,2.0,0\na,3.0,4.0,1\n")
        with pytest.raises(InsufficientDomains):
            load_csv(path, self.SCHEMA)

    def test_single_label_rejected(self, tmp_path):
        path = self.write(tmp_path, "domain,x0,x1,label\na,1.0,2.0,0\nb,3.0,4.0,0\n")
        with pytest.raises(InvalidSpec):
            load_csv(path, self.SCHEMA)

    def test_short_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "domain,x0,x1,label\na,1.0,2.0,0\nb,3.0\n")
        with pytest.raises((InconsistentDimension, ParseError)):
            load_csv(path, self.SCHEMA)

    @pytest.mark.parametrize(
        "text",
        [
            "x0,x1,label,domain\n0.1,0.2,a,d1\n0.3,0.4,b,d2\n0.7,0.8\n",
            "x0,x1,label,domain\n0.1,0.2,a,d1\n0.3,0.4,b,d2\n0.7,0.8,a\n",
            "domain,x0,x1,label\nd1,0.1,0.2,a\nd2,0.3,0.4,b\nd1,0.7,0.8\n",
        ],
        ids=["no-label-no-domain", "no-domain", "no-label"],
    )
    def test_row_missing_label_or_domain_cell_rejected(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(InconsistentDimension, match="line 4: row is shorter than the header"):
            load_csv(path, self.SCHEMA)

    def test_row_longer_than_header_rejected(self, tmp_path):
        # csv.DictReader files the surplus cells under None; the row must
        # not load as an ordinary d1 row.
        path = self.write(tmp_path, "x0,x1,label,domain\n0.1,0.2,a,d1\n0.3,0.4,b,d2\n0.5,0.6,a,d1,EXTRA,7\n")
        with pytest.raises(InconsistentDimension, match="^line 4: row is longer than the header$"):
            load_csv(path, self.SCHEMA)
