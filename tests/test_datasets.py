import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottletree.datasets import (Dataset, DatasetParseError, gen_blobs,
                                 gen_regression, inject_label_noise, load_csv,
                                 save_csv, subsample_train)


class TestGenBlobs:
    def test_balanced_classes(self):
        ds = gen_blobs(4, 103, 8, spread=1.0, seed=0)
        counts = np.bincount(ds.y, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a = gen_blobs(3, 60, 5, spread=0.7, seed=5)
        b = gen_blobs(3, 60, 5, spread=0.7, seed=5)
        assert a.equals(b)

    def test_different_seeds_differ(self):
        a = gen_blobs(3, 60, 5, spread=0.7, seed=5)
        b = gen_blobs(3, 60, 5, spread=0.7, seed=6)
        assert not a.equals(b)

    def test_splits_partition(self):
        ds = gen_blobs(2, 50, 3, spread=1.0, seed=1)
        assert (ds.indices("train").size + ds.indices("dev").size
                + ds.indices("test").size) == ds.n

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            gen_blobs(1, 10, 3, 1.0, 0)
        with pytest.raises(ValueError):
            gen_blobs(5, 3, 3, 1.0, 0)

    def test_small_spread_is_linearly_separable(self):
        ds = gen_blobs(3, 90, 6, spread=0.01, seed=2)
        # nearest class-mean classifier should be perfect at tiny spread
        means = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(3)])
        preds = np.argmin(
            ((ds.X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1)
        assert np.array_equal(preds, ds.y)


class TestGenRegression:
    def test_labels_within_bounds(self):
        ds = gen_regression(200, 6, noise_std=0.5, lo=0.0, hi=5.0, seed=3)
        assert ds.y.min() >= 0.0 and ds.y.max() <= 5.0

    def test_noiseless_labels_are_a_function_of_x(self):
        a = gen_regression(100, 4, noise_std=0.0, lo=1.0, hi=5.0, seed=7)
        b = gen_regression(100, 4, noise_std=0.0, lo=1.0, hi=5.0, seed=7)
        assert np.array_equal(a.y, b.y)
        assert a.y.std() > 0.1  # target actually varies

    def test_noiseless_oracle_regressor_has_perfect_pearson(self):
        from bottletree.metrics import pearson

        # the generator's own clean function is the oracle regressor
        ds = gen_regression(200, 4, noise_std=0.0, lo=0.0, hi=5.0, seed=7)
        X_test, y_test = ds.subset("test")
        regen = gen_regression(200, 4, noise_std=0.0, lo=0.0, hi=5.0, seed=7)
        oracle_preds = regen.subset("test")[1]
        assert pearson(oracle_preds, y_test) == pytest.approx(1.0)

    def test_deterministic(self):
        assert gen_regression(50, 3, 0.2, 0.0, 5.0, 9).equals(
            gen_regression(50, 3, 0.2, 0.0, 5.0, 9))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            gen_regression(50, 3, 0.2, 5.0, 0.0, 9)


class TestInjectLabelNoise:
    def test_rate_zero_is_identity_on_labels(self):
        ds = gen_blobs(3, 80, 4, 1.0, seed=4)
        noisy = inject_label_noise(ds, 0.0, seed=1)
        assert np.array_equal(noisy.y, ds.y)

    def test_exact_flip_count_bound(self):
        ds = gen_blobs(3, 100, 4, 1.0, seed=4)
        train_idx = ds.indices("train")
        noisy = inject_label_noise(ds, 0.25, seed=1)
        changed = np.flatnonzero(noisy.y != ds.y)
        k = int(np.floor(0.25 * train_idx.size))
        # reassignment is uniform over classes, so changed <= k touched rows
        assert changed.size <= k
        assert set(changed).issubset(set(train_idx))

    def test_rate_one_two_classes_changes_about_half(self):
        flips = []
        for seed in range(30):
            ds = gen_blobs(2, 120, 4, 1.0, seed=100)
            noisy = inject_label_noise(ds, 1.0, seed=seed)
            train_idx = ds.indices("train")
            flips.append(np.mean(noisy.y[train_idx] != ds.y[train_idx]))
        assert 0.4 < np.mean(flips) < 0.6

    def test_dev_test_untouched(self):
        ds = gen_blobs(4, 150, 4, 1.0, seed=6)
        noisy = inject_label_noise(ds, 0.5, seed=2)
        for tag in ("dev", "test"):
            idx = ds.indices(tag)
            assert np.array_equal(noisy.y[idx], ds.y[idx])
            assert np.array_equal(noisy.X[idx], ds.X[idx])

    def test_regression_rejected(self):
        ds = gen_regression(50, 3, 0.2, 0.0, 5.0, 9)
        with pytest.raises(ValueError):
            inject_label_noise(ds, 0.1, seed=0)


class TestSubsampleTrain:
    def test_fraction_one_keeps_all_rows(self):
        ds = gen_blobs(3, 90, 4, 1.0, seed=8)
        sub = subsample_train(ds, 1.0, seed=0)
        assert sub.n == ds.n
        assert np.array_equal(sub.y, ds.y)

    def test_exact_retained_count(self):
        ds = gen_blobs(2, 200, 4, 1.0, seed=8)
        n_train = ds.indices("train").size
        sub = subsample_train(ds, 0.5, seed=1)
        assert sub.indices("train").size == n_train // 2

    def test_retained_is_subset(self):
        ds = gen_blobs(2, 100, 4, 1.0, seed=8)
        sub = subsample_train(ds, 0.3, seed=1)
        orig_rows = {tuple(row) for row in ds.X[ds.indices("train")]}
        for row in sub.X[sub.indices("train")]:
            assert tuple(row) in orig_rows

    def test_dev_test_untouched(self):
        ds = gen_blobs(2, 100, 4, 1.0, seed=8)
        sub = subsample_train(ds, 0.3, seed=1)
        for tag in ("dev", "test"):
            assert np.array_equal(sub.X[sub.indices(tag)], ds.X[ds.indices(tag)])

    def test_empty_result_rejected(self):
        ds = gen_blobs(2, 10, 4, 1.0, seed=8)
        with pytest.raises(ValueError):
            subsample_train(ds, 0.01, seed=0)

    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_the_per_row_membership_mask(self, fraction, seed):
        ds = gen_blobs(3, 200, 4, 1.0, seed=8)
        sub = subsample_train(ds, fraction, seed)
        # the reference: the same draw, kept through a per-row membership test
        train_idx = ds.indices("train")
        k = int(np.floor(fraction * train_idx.size))
        keep = set(np.random.default_rng(seed).choice(train_idx, size=k,
                                                      replace=False).tolist())
        mask = np.array([s != "train" or i in keep for i, s in enumerate(ds.split)])
        prov = ds.provenance + f"|subsample=fraction={fraction:.17g},seed={seed}"
        assert sub.equals(Dataset(ds.X[mask], ds.y[mask], ds.split[mask], prov))


class TestCsvRoundTrip:
    def test_blobs_round_trip_exact(self, tmp_path):
        ds = gen_blobs(3, 40, 5, spread=0.9, seed=11)
        path = tmp_path / "blobs.csv"
        save_csv(ds, path)
        assert load_csv(path).equals(ds)

    def test_regression_round_trip_exact(self, tmp_path):
        ds = gen_regression(40, 3, 0.3, 0.0, 5.0, seed=12)
        path = tmp_path / "reg.csv"
        save_csv(ds, path)
        assert load_csv(path).equals(ds)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed):
        import tempfile

        ds = gen_regression(15, 2, 0.1, 1.0, 5.0, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/ds.csv"
            save_csv(ds, path)
            assert load_csv(path).equals(ds)

    @pytest.mark.parametrize("array", ["X", "y"])
    def test_non_finite_values_are_not_saved(self, tmp_path, array):
        # load_csv would reject the file: save_csv opens none
        ds = gen_regression(20, 3, 0.1, lo=0.0, hi=5.0, seed=0)
        getattr(ds, array)[4] = np.nan
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError, match="cannot save non-finite"):
            save_csv(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-earlier"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, earlier):
        # The last row's tag cannot be encoded, after earlier rows reached the
        # disk: the directory is left as it was, with no CSV or .tmp, or with
        # an earlier CSV at the path whole.
        ds = gen_blobs(3, 2000, 16, spread=0.4, seed=0)
        ds.split = ds.split.astype(object)
        ds.split[-1] = "test\ud800"
        path = tmp_path / "data.csv"
        if earlier:
            save_csv(gen_blobs(2, 4, 2, 0.5, seed=0), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(UnicodeEncodeError):
            save_csv(ds, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,y,x0\ntrain,1,0.5\ntrain,2,oops\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("text,line", [
        ("split,y,x0,x1\ntrain,1,0.5,0.5\ntrain,2,0.5,inf\ntest,0,0.5,nan\n", 3),
        ("split,y,x0,x1\ntrain,1,0.5,0.5\ntrain,2,-inf,0.5\n", 3),
        ("# comment\nsplit,y,x0\ntrain,0.5,0.5\ntrain,nan,0.5\n", 4),
    ], ids=["inf_feature", "neg_inf_feature", "nan_label"])
    def test_non_finite_cell_names_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DatasetParseError, match=f"line {line}: non-finite"):
            load_csv(path)

    def test_save_csv_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "pinned.csv"
        save_csv(gen_blobs(2, 4, 2, 0.5, seed=0), path)
        assert path.read_bytes() == (
            b"# generator=blobs;seed=0;params=classes=2,n=4,dim=2,spread=0.5\n"
            b"split,y,x0,x1\n"
            b"train,1,1.638849130919066,0.63518465046941097\n"
            b"test,0,0.33754617972078904,-1.3570784706170607\n"
            b"test,0,0.37777656635560924,-0.70370474542041261\n"
            b"train,1,-0.17566627896541975,0.05224833693851702\n")
        save_csv(gen_regression(3, 2, 0.1, 0.0, 1.0, seed=0), path)
        assert path.read_bytes() == (
            b"# generator=regression;seed=0;params=n=3,dim=2,"
            b"noise_std=0.10000000000000001,lo=0,hi=1\n"
            b"split,y,x0,x1\n"
            b"train,0.46378380101019778,0.1257302210933933,-0.13210486329130189\n"
            b"test,0.56651741473705786,0.64042265044328206,0.10490011715303971\n"
            b"test,0.17593552858236783,-0.53566937316111096,0.36159505490948474\n")

    def test_inconsistent_columns_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,y,x0,x1\ntrain,1,0.5,0.5\ntrain,2,0.5\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load_csv(path)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError):
            load_csv(path)

    def test_header_without_a_feature_column_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# a note\nsplit,y\ntrain,1\ntest,0\n")
        with pytest.raises(DatasetParseError, match="^line 2: header names no feature column$"):
            load_csv(path)

    def test_unknown_split_tag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,y,x0\nvalidation,1,0.5\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("make", [
        lambda: gen_blobs(3, 40, 4, 1.0, seed=13),
        lambda: gen_regression(40, 3, 0.3, 0.0, 5.0, seed=12),
    ], ids=["blobs", "regression"])
    def test_crlf_and_unterminated_last_line_load_equal(self, tmp_path, make):
        path = tmp_path / "lf.csv"
        save_csv(make(), path)
        lf = path.read_bytes()
        variants = {"crlf.csv": lf.replace(b"\n", b"\r\n"), "cr.csv": lf.replace(b"\n", b"\r"),
                    "open.csv": lf[:-1], "crlf_open.csv": lf.replace(b"\n", b"\r\n")[:-2],
                    "bom.csv": b"\xef\xbb\xbf" + lf}  # spreadsheet exports write the mark
        for name, data in variants.items():
            (tmp_path / name).write_bytes(data)
            assert load_csv(tmp_path / name).equals(load_csv(path)), name

    @pytest.mark.parametrize("bad_row,error", [
        ("train,1,0.5,oops", "line 7: non-numeric feature cell"),
        ("train,1,0.5", "line 7: expected 4 columns, got 3"),
        ("valid,1,0.5,0.5", "line 7: unknown split tag 'valid'"),
        ("train,1,0.5,inf", "line 7: non-finite feature or label"),
        ("train,one,0.5,0.5", "line 7: non-numeric label 'one'"),
    ], ids=["feature", "columns", "split", "non-finite", "label"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_and_comment_lines_keep_error_line_numbers(self, tmp_path, bad_row,
                                                             error, newline):
        lines = ["# generator=regression;seed=0", "split,y,x0,x1", "", "train,0.5,1,2",
                 "# a note between rows", "   ", bad_row, "", "test,1.5,3,4"]
        path = tmp_path / "gaps.csv"
        path.write_bytes(newline.join(lines).encode())
        with pytest.raises(DatasetParseError, match=f"^{error}$"):
            load_csv(path)

    def test_save_and_load_peaks_stay_near_the_arrays(self, tmp_path):
        # Both directions stream, so neither holds the file's text or one
        # Python object per cell.  Measured at 20,000 x 16: save 0.01x and
        # load 1.96x X.nbytes; holding the text and per-row lists took 8.6x
        # and 10.9x.
        import gc
        import tracemalloc

        ds = gen_regression(20_000, 16, 0.2, 0.0, 5.0, seed=4)
        path = tmp_path / "big.csv"
        peaks = {}
        for name, run in (("save", lambda: save_csv(ds, path)), ("load", lambda: load_csv(path))):
            gc.collect()
            tracemalloc.start()
            try:
                result = run()
                peaks[name] = tracemalloc.get_traced_memory()[1] / ds.X.nbytes
            finally:
                tracemalloc.stop()
        assert result.equals(ds)
        assert peaks["save"] < 0.5 and peaks["load"] < 3.0, peaks

    def test_noise_provenance_survives_round_trip(self, tmp_path):
        ds = inject_label_noise(gen_blobs(3, 40, 4, 1.0, seed=13), 0.2, seed=3)
        path = tmp_path / "noisy.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.is_classification
        assert "noise=rate=" in loaded.provenance


def test_dataset_invariant_checks():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2), np.array(["train"] * 3), "p")
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.zeros(2), np.array(["train", "huh"]), "p")
    with pytest.raises(ValueError, match=r"^unknown split tags: \['abc', 'huh'\]$"):
        Dataset(np.zeros((4, 2)), np.zeros(4), np.array(["huh", "dev", "abc", "huh"]), "p")
