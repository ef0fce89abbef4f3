"""Command-line interface: exit codes, artifacts, and config precedence."""

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import separability
from separability import (
    DEFAULT_MAX_POINTS,
    Dataset,
    GeneratorSpec,
    class_distance_sets,
    distribution_identity_score,
    dsi,
    dsi_subsampled,
    fit_mahalanobis,
    generate,
    load_cifar10_batch,
    load_csv,
    to_cifar10_bytes,
)
from separability import cli
from separability.cli import build_parser, run
from separability.dsi import _dsi_reports

from conftest import HUGE_NORM_ROWS, rng


def _write_shape_csv(path, shape="blobs", n=40, seed=0, **extra):
    argv = [
        "generate",
        "--shape",
        shape,
        "--n-per-class",
        str(n),
        "--seed",
        str(seed),
        "--output",
        str(path),
    ]
    for flag, value in extra.items():
        argv += [f"--{flag}", str(value)]
    assert run(argv) == 0
    return path


def _points_csv(path, points):
    lines = [",".join(f"x{i}" for i in range(points.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in points]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestGenerate:
    def test_writes_labeled_csv(self, tmp_path):
        out = _write_shape_csv(tmp_path / "d.csv", shape="moons", n=25)
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,x1,label"
        assert len(lines) == 1 + 50
        assert lines[1].endswith(",0") and lines[-1].endswith(",1")

    def test_byte_identical_across_runs(self, tmp_path):
        a = _write_shape_csv(tmp_path / "a.csv", shape="spirals", seed=3)
        b = _write_shape_csv(tmp_path / "b.csv", shape="spirals", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert run(["generate", "--shape", "random", "--n-per-class", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("x0,x1,label\n")

    def test_missing_shape(self, capsys):
        assert run(["generate"]) == 1
        assert "needs --shape" in capsys.readouterr().err

    def test_spec_error_is_clean(self, capsys):
        assert run(["generate", "--shape", "blobsd", "--n-per-class", "5"]) == 1
        assert "cluster_sd" in capsys.readouterr().err

    def test_blobsd_with_cluster_sd(self, tmp_path):
        out = _write_shape_csv(tmp_path / "d.csv", shape="blobsd", **{"cluster-sd": 2.0})
        assert len(out.read_text().splitlines()) == 81


class TestMeasure:
    def test_json_payload(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["measure", "--input", str(data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "measure"
        assert payload["input"] == str(data)
        assert payload["n_points"] == 80 and payload["dim"] == 2
        assert payload["metric"] == "euclidean" and payload["stat"] == "ks"
        assert set(payload["per_class_similarity"]) == {"0", "1"}
        assert payload["dsi"] + payload["complexity"] == pytest.approx(1.0)
        assert "wall_time_s" not in payload

    def test_timing_flag_adds_wall_time(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["measure", "--input", str(data), "--timing"]) == 0
        assert "wall_time_s" in json.loads(capsys.readouterr().out)

    def test_byte_identical_artifacts(self, tmp_path):
        data = _write_shape_csv(tmp_path / "d.csv")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["measure", "--input", str(data), "--output", str(out1)]) == 0
        assert run(["measure", "--input", str(data), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_format(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["measure", "--input", str(data), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "dsi" in out and "complexity" in out and "{" not in out

    def test_subsample_block(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv", n=60)
        assert (
            run(
                [
                    "measure", "--input", str(data),
                    "--subsample", "50", "--trials", "3", "--seed", "7",
                ]
            )
            == 0
        )
        sub = json.loads(capsys.readouterr().out)["subsample"]
        assert sub["subset_size"] == 50 and sub["trials"] == 3 and sub["seed"] == 7
        assert len(sub["values"]) == 3

    def test_text_format_subsample_and_timing(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv", n=60)
        argv = ["measure", "--input", str(data), "--format", "text"]
        assert run(argv + ["--subsample", "50", "--trials", "3", "--seed", "7"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        report = dsi_subsampled(load_csv(data), 50, trials=3, seed=7)
        assert rows[-4:] == [
            ["subset_size", "50"], ["trials", "3"], ["seed", "7"],
            ["trial", "sd", repr(report.subsample.sd)],
        ]
        assert ["dsi", repr(report.dsi)] in rows
        assert run(argv + ["--timing"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[-2][0] == "complexity" and rows[-1][0] == "wall_time_s"
        assert float(rows[-1][1]) >= 0.0

    def test_histogram_export(self, tmp_path):
        data = _write_shape_csv(tmp_path / "d.csv")
        hist = tmp_path / "h.csv"
        assert (
            run(["measure", "--input", str(data), "--histogram", str(hist), "--bins", "10"]) == 0
        )
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count,set_kind"
        kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert kinds == {"icd_0", "bcd_0", "icd_1", "bcd_1"}
        assert len(lines) == 1 + 10 * 4

    @pytest.mark.parametrize(
        "points, labels, metric",
        [
            (rng(40).normal(size=(60, 3)), np.repeat([0, 1], 30), "euclidean"),
            (rng(41).integers(0, 4, size=(90, 2)), np.repeat([0, 1, 2], 30), "chebyshev"),
            (np.eye(4), [0, 0, 1, 1], "chebyshev"),  # every distance is 1
        ],
        ids=["random", "ties", "all-equal"],
    )
    def test_histogram_counts_match_np_histogram(self, tmp_path, points, labels, metric):
        data = tmp_path / "d.csv"
        lines = [",".join(f"x{i}" for i in range(points.shape[1])) + ",label"]
        lines += [",".join(repr(float(v)) for v in row) + f",{c}" for row, c in zip(points, labels)]
        data.write_text("\n".join(lines) + "\n")
        hist = tmp_path / "h.csv"
        argv = ["measure", "--input", str(data), "--metric", metric,
                "--histogram", str(hist), "--bins", "7"]
        assert run(argv) == 0

        sets = class_distance_sets(load_csv(data), metric)
        values = np.concatenate([s.values for pair in sets.values() for s in pair])
        edges = np.linspace(values.min(), values.max(), 8)
        want = [
            [repr(float(edges[b])), repr(float(edges[b + 1])), str(count), f"{dset.kind}_{label}"]
            for label in sorted(sets)
            for dset in sets[label]
            for b, count in enumerate(np.histogram(dset.values, bins=edges)[0])
        ]
        assert [line.split(",") for line in hist.read_text().splitlines()[1:]] == want

    def test_subsample_histogram_checks_the_cap_first(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("the trials ran before the cap check")

        monkeypatch.setattr(cli, "dsi_subsampled", no_trials)
        data = _write_shape_csv(tmp_path / "d.csv", n=30)
        hist = tmp_path / "h.csv"
        argv = ["measure", "--input", str(data), "--subsample", "10", "--max-points", "20",
                "--histogram", str(hist)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 60 points exceed the exact-computation cap of 20;")
        assert "--histogram" in err
        assert not hist.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["measure", "--input", str(tmp_path / "gone.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_max_points_cap(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv", n=30)
        assert run(["measure", "--input", str(data), "--max-points", "10"]) == 1
        assert capsys.readouterr().err == (
            "error: 60 points exceed the exact-computation cap of 10; "
            "use --subsample or pass a larger --max-points\n"
        )

    @pytest.mark.parametrize("metric", ["cosine", "correlation"])
    def test_overflowing_norm_is_clean(self, tmp_path, capsys, metric):
        points, row = HUGE_NORM_ROWS[metric]
        data = _points_csv(tmp_path / "d.csv", np.column_stack([points, [0, 0, 1, 1]]))
        assert run(["measure", "--input", str(data), "--metric", metric]) == 1
        assert capsys.readouterr().err == (
            f"error: {metric} distance overflows float64 for the vector at index {row}; "
            "rescale the features\n"
        )

    def test_label_col_by_name(self, tmp_path, capsys):
        csv_file = tmp_path / "named.csv"
        csv_file.write_text("cls,u,v\na,0.0,0.1\na,0.2,0.0\nb,5.0,5.1\nb,5.2,5.0\n")
        assert run(["measure", "--input", str(csv_file), "--label-col", "cls"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 2
        assert payload["label_names"] == {"0": "a", "1": "b"}

    def test_label_col_header_named_like_an_integer(self, tmp_path, capsys):
        csv_file = tmp_path / "digits.csv"
        csv_file.write_text("x,y,1\n0.0,0.1,a\n0.2,0.0,a\n5.0,5.1,b\n5.2,5.0,b\n")
        assert run(["measure", "--input", str(csv_file), "--label-col", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["label_names"] == {"0": "a", "1": "b"}
        # no header column is named "0", so it is an index: column x
        assert run(["measure", "--input", str(csv_file), "--label-col", "0"]) == 1
        assert "not a number" in capsys.readouterr().err

    def test_wasserstein_stat(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["measure", "--input", str(data), "--stat", "wasserstein"]) == 0
        assert json.loads(capsys.readouterr().out)["stat"] == "wasserstein"

    def test_cifar10_input_format(self, tmp_path, capsys):
        from separability import CIFAR10_CLASS_NAMES, Dataset, to_cifar10_bytes

        g = rng(1)
        pts = g.integers(0, 256, size=(12, 3072)).astype(float)
        labels = np.repeat([0, 1], 6)
        batch = tmp_path / "batch.bin"
        batch.write_bytes(
            to_cifar10_bytes(Dataset(pts, labels, label_names=CIFAR10_CLASS_NAMES))
        )
        assert run(["measure", "--input", str(batch), "--input-format", "cifar10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 3072
        assert payload["label_names"] == {"0": "airplane", "1": "automobile"}


class TestCompare:
    def test_csv_table(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["compare", "--input", str(data), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "measure,value,params"
        codes = [line.split(",")[0] for line in lines[1:]]
        assert codes == ["F1", "N1", "N2", "N3", "N4", "T1", "LSC", "Density", "1-DSI"]

    def test_measure_subset(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert (
            run(["compare", "--input", str(data), "--measures", "N3,F1", "--format", "csv"]) == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["N3", "F1", "1-DSI"]

    @pytest.mark.parametrize("measures", [None, "N2", "N1,T1,Density"])
    def test_overflowing_distances_are_clean(self, tmp_path, capsys, measures):
        # N(0, 1) * 1e200: the distances' squares overflow float64
        points = rng(40).normal(size=(40, 2)) * 1e200
        data = _points_csv(tmp_path / "d.csv", np.column_stack([points, np.arange(40) % 2]))
        argv = ["compare", "--input", str(data)]
        assert run(argv + (["--measures", measures] if measures else [])) == 1
        assert capsys.readouterr().err == (
            "error: distances between these points overflow float64; rescale the features\n"
        )

    def test_overflowing_feature_sums_are_clean(self, tmp_path, capsys):
        # the distances are 1 to 3, but the coordinates' sums overflow
        points = np.array([[1e308, 0, 0], [1e308, 1, 0], [1e308, 2, 1], [1e308, 3, 1]])
        data = _points_csv(tmp_path / "d.csv", points)
        assert run(["compare", "--input", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: F1's feature sums overflow float64")
        assert run(["compare", "--input", str(data), "--measures", "N1,N3,T1"]) == 0

    def test_unknown_measure(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["compare", "--input", str(data), "--measures", "Q7"]) == 1
        assert "unknown measure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--input", "{data}"],
            ["repro", "table2", "--n-per-class", "{half}"],
            ["repro", "figure4", "--n-per-class", "{half}"],
        ],
        ids=["compare", "table2", "figure4"],
    )
    def test_cap_checked_before_the_measures(self, tmp_path, capsys, monkeypatch, argv):
        def no_measures(*args, **kwargs):
            raise AssertionError("the measures ran before the cap check")

        monkeypatch.setattr(cli, "compute_measures", no_measures)
        n = DEFAULT_MAX_POINTS + 1
        data = tmp_path / "big.csv"
        data.write_text("x,label\n" + "".join(f"{i},{i % 2}\n" for i in range(n)))
        half = n // 2 + 1  # two classes of this size exceed the cap
        assert run([a.format(data=data, half=half) for a in argv]) == 1
        count = n if argv[0] == "compare" else 2 * half
        assert capsys.readouterr().err == (
            f"error: {count} points exceed the exact-computation cap of {DEFAULT_MAX_POINTS}; "
            "the measures need every pairwise distance; use fewer rows\n"
        )

    def test_text_format_default(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["compare", "--input", str(data)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[:2] == ["measure", "value"]


class TestIdentity:
    def test_same_distribution_scores_low(self, tmp_path, capsys):
        g = rng(2)
        a = _points_csv(tmp_path / "a.csv", g.random((300, 2)))
        b = _points_csv(tmp_path / "b.csv", g.random((300, 2)))
        assert run(["identity", "--a", str(a), "--b", str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "identity"
        assert payload["n_a"] == 300 and payload["n_b"] == 300
        assert payload["score"] < 0.1

    def test_disjoint_scores_high(self, tmp_path, capsys):
        g = rng(3)
        a = _points_csv(tmp_path / "a.csv", g.random((100, 2)))
        b = _points_csv(tmp_path / "b.csv", g.random((100, 2)) + 30.0)
        assert run(["identity", "--a", str(a), "--b", str(b)]) == 0
        assert json.loads(capsys.readouterr().out)["score"] > 0.9

    def test_missing_side(self, tmp_path, capsys):
        a = _points_csv(tmp_path / "a.csv", rng(4).random((5, 2)))
        assert run(["identity", "--a", str(a)]) == 1
        assert "--b" in capsys.readouterr().err

    def test_max_points_cap(self, tmp_path, capsys):
        a = _points_csv(tmp_path / "a.csv", rng(4).random((6, 2)))
        assert run(["identity", "--a", str(a), "--b", str(a), "--max-points", "10"]) == 1
        assert capsys.readouterr().err == (
            "error: 12 points exceed the exact-computation cap of 10; pass a larger --max-points\n"
        )


class TestMahalanobis:
    """The CLI fits one mahalanobis metric on all input points and reuses it."""

    def test_measure_matches_library(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv", n=30)
        ds = load_csv(data)
        assert run(["measure", "--input", str(data), "--metric", "mahalanobis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = dsi(ds, fit_mahalanobis(ds.points))
        assert payload["metric"] == "mahalanobis"
        assert payload["dsi"] == expected.dsi
        assert payload["per_class_similarity"] == {
            str(c): v for c, v in expected.per_class_similarity.items()
        }

    def test_subsample_and_histogram_share_the_fit(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv", n=30, shape="moons")
        hist = tmp_path / "h.csv"
        argv = ["measure", "--input", str(data), "--metric", "mahalanobis",
                "--subsample", "40", "--trials", "3", "--seed", "5",
                "--histogram", str(hist), "--bins", "5"]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        ds = load_csv(data)
        metric = fit_mahalanobis(ds.points)
        expected = dsi_subsampled(ds, subset_size=40, trials=3, seed=5, metric=metric)
        assert payload["subsample"]["values"] == list(expected.subsample.values)

        sets = class_distance_sets(ds, metric)
        values = np.concatenate([s.values for pair in sets.values() for s in pair])
        edges = np.linspace(values.min(), values.max(), 6)
        counts = [
            int(c)
            for label in sorted(sets)
            for dset in sets[label]
            for c in np.histogram(dset.values, bins=edges)[0]
        ]
        rows = [line.split(",") for line in hist.read_text().splitlines()[1:]]
        assert [int(row[2]) for row in rows] == counts
        assert float(rows[0][0]) == values.min() and float(rows[-1][1]) == values.max()

    def test_identity_fits_on_both_samples(self, tmp_path, capsys):
        g = rng(5)
        pts_a = g.normal(size=(40, 3))
        pts_b = g.normal(size=(50, 3)) * [1.0, 3.0, 0.5] + 0.5
        a = _points_csv(tmp_path / "a.csv", pts_a)
        b = _points_csv(tmp_path / "b.csv", pts_b)
        assert run(["identity", "--a", str(a), "--b", str(b), "--metric", "mahalanobis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metric = fit_mahalanobis(np.vstack([pts_a, pts_b]))
        assert payload["metric"] == "mahalanobis"
        assert payload["score"] == distribution_identity_score(pts_a, pts_b, metric=metric)


class TestUserErrors:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["measure", "--input", "{data}", "--subsample", "100000"], None),
            (["measure", "--input", "{data}", "--subsample", "0"], None),
            (["measure", "--input", "{data}", "--subsample", "10", "--trials", "0"], None),
            (["measure", "--input", "{data}", "--threads", "0"], None),
            (["measure", "--input", "{data}", "--threads", "-2"], None),
            (["measure", "--input", "{data}", "--bins", "0", "--histogram", "{hist}"], None),
            (["measure", "--input", "{data}", "--bins", "-1"], None),
            (["measure", "--input", "{data}"], "threads = 0"),
            (["measure", "--input", "{data}", "--histogram", "{hist}"], "bins = 0"),
            (["compare", "--input", "{data}", "--threads", "0"], None),
            (["compare", "--input", "{data}"], "threads = -1"),
            (["identity", "--a", "{a}", "--b", "{a}", "--threads", "0"], None),
            (["identity", "--a", "{a}", "--b", "{a}"], "threads = 0"),
            (["identity", "--a", "{a}", "--b", "{wide}"], None),
            (["compare", "--input", "{data}", "--n4-synthetic", "0"], None),
            (["compare", "--input", "{data}", "--density-quantile", "1.5"], None),
            (["compare", "--input", "{data}", "--density-quantile", "0", "--measures", "F1"], None),
            (["compare", "--input", "{data}", "--measures", "N1"], "n4_synthetic = -3"),
            (["compare", "--input", "{data}"], "density_quantile = 1"),
            (["repro", "section5_2", "--seeds", "0"], None),
            (["measure", "--input", "{data}", "--subsample", "30", "--max-points", "20"], None),
            (["measure", "--input", "{data}"], "timing = maybe"),
            (["compare", "--input", "{data}", "--seed", "-1"], None),
            (["compare", "--input", "{data}", "--seed", "18446744073709551616"], None),
            (["measure", "--input", "{data}", "--subsample", "10", "--seed", "-1"], None),
            (["measure", "--input", "{data}", "--subsample", "10",
              "--seed", "18446744073709551616"], None),
            (["repro", "section5_2", "--seeds", "1", "--seed", "-1"], None),
            (["measure", "--input", "{data}", "--delimiter", ""], None),
            (["compare", "--input", "{data}", "--delimiter", "ab"], None),
            (["identity", "--a", "{a}", "--b", "{a}", "--delimiter", ""], None),
            (["measure", "--input", "{data}"], "delimiter = ab"),
        ],
        ids=[
            "subsample-above-n", "subsample-0", "trials-0", "threads-0", "threads-neg",
            "bins-0", "bins-neg", "config-threads-0", "config-bins-0",
            "compare-threads-0", "compare-config-threads-neg",
            "identity-threads-0", "identity-config-threads-0", "identity-column-mismatch",
            "compare-n4-synthetic-0", "compare-density-quantile-above-1",
            "compare-density-quantile-0-unselected", "compare-config-n4-synthetic-neg",
            "compare-config-density-quantile-1", "repro-seeds-0",
            "subsample-above-max-points", "config-timing-maybe",
            "compare-seed-neg", "compare-seed-2-64", "subsample-seed-neg",
            "subsample-seed-2-64", "repro-seed-neg",
            "measure-delimiter-empty", "compare-delimiter-ab", "identity-delimiter-empty",
            "config-delimiter-ab",
        ],
    )
    def test_exits_1_without_traceback(self, tmp_path, capsys, argv, config):
        paths = {
            "data": _write_shape_csv(tmp_path / "d.csv", n=20),
            "a": _points_csv(tmp_path / "a.csv", rng(6).random((10, 2))),
            "wide": _points_csv(tmp_path / "w.csv", rng(7).random((10, 3))),
            "hist": tmp_path / "h.csv",
        }
        argv = [token.format(**paths) for token in argv]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config + "\n")
            argv += ["--config", str(cfg)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not paths["hist"].exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--input", "{bad}"],
            ["compare", "--input", "{bad}"],
            ["identity", "--a", "{bad}", "--b", "{a}"],
            ["identity", "--a", "{a}", "--b", "{bad}"],
            ["measure", "--input", "{data}", "--config", "{bad}"],
        ],
        ids=["measure-input", "compare-input", "identity-a", "identity-b", "config"],
    )
    def test_non_utf8_file_exits_1_naming_it(self, tmp_path, capsys, argv):
        paths = {
            "data": _write_shape_csv(tmp_path / "d.csv", n=20),
            "a": _points_csv(tmp_path / "a.csv", rng(6).random((10, 2))),
            "bad": tmp_path / "bad.csv",
        }
        # numeric rows, so the undecodable byte is the first fault for every flag
        paths["bad"].write_bytes(b"x,y\n1,2\n3,\xff\n")
        assert run([token.format(**paths) for token in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(paths["bad"]) in err
        assert "UTF-8" in err or "utf-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("command", ["measure", "identity"])
    def test_max_points_below_1(self, tmp_path, capsys, command, value):
        data = _write_shape_csv(tmp_path / "d.csv", n=20)
        a = _points_csv(tmp_path / "a.csv", rng(6).random((10, 2)))
        inputs = ["--input", str(data)] if command == "measure" else ["--a", str(a), "--b", str(a)]
        assert run([command, *inputs, "--max-points", str(value)]) == 1
        assert capsys.readouterr().err == f"error: --max-points must be >= 1, got {value}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--subsample", "0"], "--subsample must be >= 1, got 0"),
            (["--subsample", "-3"], "--subsample must be >= 1, got -3"),
            (["--subsample", "10", "--trials", "0"], "--trials must be >= 1, got 0"),
            (["--subsample", "41"], "--subsample 41 exceeds the dataset's 40 points"),
        ],
    )
    def test_bad_subsample_or_trials(self, tmp_path, capsys, flags, message):
        data = _write_shape_csv(tmp_path / "d.csv", n=20)
        assert run(["measure", "--input", str(data), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_subsample_above_max_points_names_the_flags(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv", n=20)
        argv = ["measure", "--input", str(data), "--subsample", "30", "--max-points", "20"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: --subsample 30 exceeds --max-points 20; "
            "pass a smaller --subsample or a larger --max-points\n"
        )


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {data}\nstat = wasserstein\n# comment\n\nthreads = 2\n")
        assert run(["measure", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stat"] == "wasserstein"

    def test_flags_beat_config(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {data}\nstat = wasserstein\n")
        assert run(["measure", "--config", str(cfg), "--stat", "ks"]) == 0
        assert json.loads(capsys.readouterr().out)["stat"] == "ks"

    def test_unknown_config_key(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {data}\nstatistic = ks\n")
        assert run(["measure", "--config", str(cfg)]) == 1
        assert "unknown config keys: statistic" in capsys.readouterr().err

    def test_bad_boolean_names_key_and_file(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {data}\ntiming = maybe\n")
        assert run(["measure", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: config {cfg}: timing: expected a boolean, got 'maybe'\n"
        )

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run(["measure", "--config", str(cfg)]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_dashed_keys_normalize(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("shape = xor\nn-per-class = 3\n")
        assert run(["generate", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7


def _cifar_batch(path):
    """A CIFAR-10 batch of 12 random images in two classes of 6."""
    pixels = rng(8).integers(0, 256, size=(12, 3072)).astype(float)
    path.write_bytes(to_cifar10_bytes(Dataset(pixels, np.repeat([0, 1], 6))))
    return path


def _config_files(tmp_path):
    """Input files for the config cases, keyed by their placeholder names."""
    data = _write_shape_csv(tmp_path / "d.csv", n=20)
    lines = data.read_text().splitlines()
    moved = [",".join([line.rsplit(",", 1)[1]] + line.split(",")[:-1]) for line in lines]
    moved[0] = "cls,x0,x1"
    named = tmp_path / "named.csv"
    named.write_text("\n".join(moved) + "\n")

    batch = _cifar_batch(tmp_path / "batch.bin")

    files = {
        "data": data,
        "named": named,
        "batch": batch,
        "a": _points_csv(tmp_path / "a.csv", rng(9).random((15, 2))),
        "b": _points_csv(tmp_path / "b.csv", rng(10).random((15, 2)) + 0.5),
    }
    for name in ("data", "a", "b"):
        text = files[name].read_text()
        files[f"{name}_semi"] = tmp_path / f"{name}_semi.csv"
        files[f"{name}_semi"].write_text(text.replace(",", ";"))
        files[f"{name}_nohead"] = tmp_path / f"{name}_nohead.csv"
        files[f"{name}_nohead"].write_text(text.split("\n", 1)[1])
    out = tmp_path / "out"
    out.mkdir()
    files["out"] = out
    return files


_SWITCHES = ("no_header", "timing")
_WALL_TIME = re.compile(r'"wall_time_s": [^,\n}]+')

# (subcommand, config key, a value other than the default, the rest of argv);
# together the keys are every key each subcommand's --config accepts
_CONFIG_CASES = [
    ("generate", "shape", "moons", ["--n-per-class", "4"]),
    ("generate", "n_per_class", "3", ["--shape", "xor"]),
    ("generate", "seed", "9", ["--shape", "moons", "--n-per-class", "4"]),
    ("generate", "noise", "0.3", ["--shape", "moons", "--n-per-class", "4"]),
    ("generate", "cluster_sd", "2.5", ["--shape", "blobsd", "--n-per-class", "4"]),
    ("generate", "output", "{out}/g.csv", ["--shape", "xor", "--n-per-class", "4"]),
    ("measure", "input", "{data}", []),
    ("measure", "input_format", "cifar10", ["--input", "{batch}"]),
    ("measure", "label_col", "-3", ["--input", "{named}"]),
    ("measure", "delimiter", ";", ["--input", "{data_semi}"]),
    ("measure", "no_header", "true", ["--input", "{data_nohead}"]),
    ("measure", "metric", "cityblock", ["--input", "{data}"]),
    ("measure", "stat", "wasserstein", ["--input", "{data}"]),
    ("measure", "subsample", "30", ["--input", "{data}", "--trials", "2"]),
    ("measure", "trials", "3", ["--input", "{data}", "--subsample", "30"]),
    ("measure", "seed", "5", ["--input", "{data}", "--subsample", "30", "--trials", "2"]),
    ("measure", "threads", "2", ["--input", "{data}"]),
    ("measure", "max_points", "30", ["--input", "{data}"]),
    ("measure", "histogram", "{out}/h.csv", ["--input", "{data}"]),
    ("measure", "bins", "7", ["--input", "{data}", "--histogram", "{out}/h.csv"]),
    ("measure", "format", "text", ["--input", "{data}"]),
    ("measure", "timing", "yes", ["--input", "{data}"]),
    ("measure", "output", "{out}/r.json", ["--input", "{data}"]),
    ("compare", "input", "{data}", ["--measures", "F1"]),
    ("compare", "input_format", "cifar10", ["--input", "{batch}", "--measures", "F1"]),
    ("compare", "label_col", "cls", ["--input", "{named}", "--measures", "F1"]),
    ("compare", "delimiter", ";", ["--input", "{data_semi}", "--measures", "F1"]),
    ("compare", "no_header", "on", ["--input", "{data_nohead}", "--measures", "F1"]),
    ("compare", "measures", "N3,F1", ["--input", "{data}"]),
    ("compare", "n4_synthetic", "15", ["--input", "{data}", "--measures", "N4"]),
    ("compare", "seed", "4", ["--input", "{data}", "--measures", "N4"]),
    ("compare", "density_quantile", "0.3", ["--input", "{data}", "--measures", "Density"]),
    ("compare", "threads", "2", ["--input", "{data}", "--measures", "N1"]),
    ("compare", "format", "csv", ["--input", "{data}", "--measures", "F1"]),
    ("compare", "output", "{out}/c.txt", ["--input", "{data}", "--measures", "F1"]),
    ("identity", "a", "{a}", ["--b", "{b}"]),
    ("identity", "b", "{b}", ["--a", "{a}"]),
    ("identity", "delimiter", ";", ["--a", "{a_semi}", "--b", "{b_semi}"]),
    ("identity", "no_header", "1", ["--a", "{a_nohead}", "--b", "{b_nohead}"]),
    ("identity", "metric", "chebyshev", ["--a", "{a}", "--b", "{b}"]),
    ("identity", "stat", "wasserstein", ["--a", "{a}", "--b", "{b}"]),
    ("identity", "threads", "2", ["--a", "{a}", "--b", "{b}"]),
    ("identity", "max_points", "25", ["--a", "{a}", "--b", "{b}"]),
    ("identity", "format", "text", ["--a", "{a}", "--b", "{b}"]),
    ("identity", "output", "{out}/i.json", ["--a", "{a}", "--b", "{b}"]),
]

# values every flag rejects; the same value in a config must be rejected alike
_BAD_CONFIG_VALUES = [
    ("measure", "threads", "abc", ["--input", "{data}"]),
    ("measure", "metric", "foo", ["--input", "{data}"]),
    ("measure", "stat", "foo", ["--input", "{data}"]),
    ("measure", "format", "xml", ["--input", "{data}"]),
    ("measure", "max_points", "1e3", ["--input", "{data}"]),
    ("compare", "format", "json", ["--input", "{data}"]),
    ("compare", "density_quantile", "half", ["--input", "{data}"]),
    ("generate", "shape", "XOR", ["--n-per-class", "3"]),
    ("generate", "n_per_class", "", ["--shape", "xor"]),
    ("identity", "stat", "foo", ["--a", "{a}", "--b", "{b}"]),
]


def _case_id(case):
    return f"{case[0]}-{case[1]}={case[2]}"


def _outcome(argv, capsys, out_dir):
    """Exit code, stdout, stderr and written files of one in-process run."""
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return code, _WALL_TIME.sub('"wall_time_s": _', out), err, files


def _flag_and_config_outcomes(tmp_path, capsys, case):
    command, key, value, rest = case
    files = _config_files(tmp_path)
    value = value.format(**files)
    argv = [command] + [token.format(**files) for token in rest]
    flag = ["--" + key.replace("_", "-")] + ([] if key in _SWITCHES else [value])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_flag = _outcome(argv + flag, capsys, files["out"])
    by_config = _outcome(argv + ["--config", str(cfg)], capsys, files["out"])
    return by_flag, by_config


class TestConfigMatchesFlags:
    """A config value is parsed and checked exactly like the flag it names."""

    @pytest.mark.parametrize("case", _CONFIG_CASES, ids=_case_id)
    def test_same_output_as_flag(self, tmp_path, capsys, case):
        by_flag, by_config = _flag_and_config_outcomes(tmp_path, capsys, case)
        assert by_config == by_flag
        assert "Traceback" not in by_config[2]

    @pytest.mark.parametrize("case", _BAD_CONFIG_VALUES, ids=_case_id)
    def test_bad_value_rejected_like_flag(self, tmp_path, capsys, case):
        by_flag, by_config = _flag_and_config_outcomes(tmp_path, capsys, case)
        assert by_flag[0] == 2
        assert by_config == by_flag
        assert "Traceback" not in by_config[2]

    def test_false_switches_stay_off(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timing = off\nno_header = no\n")
        assert run(["measure", "--input", str(data)]) == 0
        plain = capsys.readouterr().out
        assert run(["measure", "--input", str(data), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == plain

    def test_value_starting_with_dash(self, tmp_path, capsys):
        # "--label-col -cls" does not parse, so configs pass "--label-col=-cls"
        files = _config_files(tmp_path)
        dashed = tmp_path / "dashed.csv"
        dashed.write_text(files["named"].read_text().replace("cls,", "-cls,", 1))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("label_col = -cls\n")
        argv = ["measure", "--input", str(dashed)]
        assert run(argv + ["--label-col=-cls"]) == 0
        by_flag = capsys.readouterr().out
        assert run(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == by_flag

    @pytest.mark.parametrize("key", ["config", "help"])
    def test_own_options_are_not_keys(self, tmp_path, capsys, key):
        data = _write_shape_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = x\n")
        assert run(["measure", "--input", str(data), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"

    def test_cases_cover_every_key(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command in ("generate", "measure", "compare", "identity"):
            long_options = {
                flag[2:].replace("-", "_")
                for action in commands.choices[command]._actions
                for flag in action.option_strings
                if flag.startswith("--")
            }
            covered = {key for cmd, key, _, _ in _CONFIG_CASES if cmd == command}
            assert covered == long_options - {"config", "help"}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {
        "data": _write_shape_csv(root / "d.csv", n=20),
        "batch": _cifar_batch(root / "batch.bin"),
        "hist": root / "h.csv",
    }


def _value(strategy):
    """A flag value: one from ``strategy`` or up to three arbitrary characters."""
    return strategy.map(str) | st.text(st.characters(codec="utf-8"), max_size=3)


# (subcommand argv with file placeholders, the flags whose values are drawn)
_FUZZ_COMMANDS = {
    "measure": (
        ["measure", "--input", "{data}", "--histogram", "{hist}"],
        ("delimiter", "label_col", "bins", "subsample", "trials", "threads"),
    ),
    "compare": (["compare", "--input", "{data}"], ("delimiter", "label_col", "threads")),
    "identity": (["identity", "--a", "{data}", "--b", "{data}"], ("delimiter", "threads")),
    "figure12": (["repro", "figure12", "--data", "{batch}"], ("sizes", "trials", "threads")),
}

_FUZZ_VALUES = {
    "delimiter": _value(st.sampled_from([",", ";", "\t"])),
    "label_col": _value(st.sampled_from(["label", "x0", "-1", "0", "2", "-4"])),
    "bins": _value(st.integers(-1, 10**4)),
    "subsample": _value(st.integers(-1, 45)),
    "trials": _value(st.integers(-1, 3)),
    "threads": _value(st.integers(-1, 4)),
    "sizes": _value(st.lists(st.integers(-1, 14), max_size=3).map(lambda v: str(v)[1:-1])),
}


class TestFlagFuzz:
    """Any flag values end in exit 0, 1 or 2: a traceback fails the search."""

    @pytest.mark.parametrize("command", list(_FUZZ_COMMANDS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exits_0_1_or_2(self, fuzz_files, command, data):
        argv, keys = _FUZZ_COMMANDS[command]
        argv = [token.format(**fuzz_files) for token in argv]
        for key in keys:
            if data.draw(st.booleans(), label=f"pass --{key}"):
                value = data.draw(_FUZZ_VALUES[key], label=key)
                argv.append(f"--{key.replace('_', '-')}={value}")
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code in (0, 1, 2)


# the arguments each subcommand needs before it reaches an unknown flag
_REQUIRED_ARGS = {"fetch": ["--url", "u", "--digest", "d"], "repro": ["table2"]}


def _subcommands():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    return [line for line in lines if line.startswith("separability ")]


class TestArgparseBehavior:
    def test_unknown_flag_exits_2_with_suggestion(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["measure", "--inptu", "x.csv"])
        assert exc.value.code == 2
        assert "did you mean --input?" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, other_flag",
        [
            (["generate", "--shape", "moons", "--bins", "3"], "--bins"),
            (["identity", "--a", "x", "--b", "y", "--histogram", "h.csv"], "--histogram"),
        ],
        ids=["generate", "identity"],
    )
    def test_no_hint_names_another_subcommands_flag(self, capsys, argv, other_flag):
        err = _usage_error(argv, capsys)
        assert f"unrecognized arguments: {other_flag}" in err
        assert f"did you mean {other_flag}" not in err

    def test_every_hint_names_a_flag_of_the_subcommand(self, capsys):
        commands = _subcommands()
        flags = {flag for command in commands.values() for flag in command._option_string_actions}
        typos = {flag[:-1] + ("y" if flag.endswith("x") else "x") for flag in flags}
        for name, command in commands.items():
            accepted = command._option_string_actions
            for token in sorted((flags - set(accepted)) | typos):
                err = _usage_error([name, *_REQUIRED_ARGS.get(name, []), token], capsys)
                for hint in re.findall(r"did you mean (\S+)\?", err):
                    assert hint in accepted, (name, token, hint)

    @pytest.mark.parametrize("name", list(_subcommands()))
    def test_error_line_names_the_subcommand(self, capsys, name):
        err = _usage_error([name, *_REQUIRED_ARGS.get(name, []), "--bogus"], capsys)
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.startswith(f"separability {name}: error: unrecognized arguments: --bogus")
        assert err.startswith(f"usage: separability {name} ")

    @pytest.mark.parametrize("line", _readme_commands())
    def test_readme_example_parses(self, line):
        try:
            _, extras = build_parser().parse_known_args(shlex.split(line)[1:])
        except SystemExit as exc:
            pytest.fail(f"{line!r} exits {exc.code}")
        assert extras == []

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["compare", "--input", "x.csv", "--threads=--"], ["generate", "--shape=--"]],
        ids=["type", "choices"],
    )
    def test_double_dash_value_is_checked(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "'--'" in capsys.readouterr().err

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "separability" in capsys.readouterr().out


class TestFetch:
    def test_fetch_writes_output(self, tmp_path, capsys):
        payload = b"dataset bytes"
        src = tmp_path / "src.bin"
        src.write_bytes(payload)
        digest = hashlib.sha256(payload).hexdigest()
        out = tmp_path / "copy.bin"
        assert (
            run(
                [
                    "fetch", "--url", src.as_uri(), "--digest", digest,
                    "--cache", str(tmp_path / "cache"), "--output", str(out),
                ]
            )
            == 0
        )
        assert out.read_bytes() == payload
        report = json.loads(capsys.readouterr().out)
        assert report["bytes"] == len(payload)

    def test_bad_digest_exits_1(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"data")
        wrong = hashlib.sha256(b"other").hexdigest()
        assert (
            run(["fetch", "--url", src.as_uri(), "--digest", wrong,
                 "--cache", str(tmp_path / "cache")]) == 1
        )
        assert "digest mismatch" in capsys.readouterr().err


# repro figure7 --n-per-class 500: the index at cluster_sd 1, ..., 9
FIGURE7_KS = [
    0.9988568537074148, 0.8406524889779559, 0.5795805771543086,
    0.394508877755511, 0.277159871743487, 0.202746873747495,
    0.15285332665330661, 0.11863444889779562, 0.09448243286573149,
]
FIGURE7_W1 = [
    0.5149276176654431, 0.3054231465959639, 0.19496785209023665,
    0.13179915156723354, 0.09364687714759135, 0.0681467219923938,
    0.05143010510627724, 0.039619937989493564, 0.03130230824321109,
]


class TestRepro:
    def test_table2_structure(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert (
            run(["repro", "table2", "--n-per-class", "40", "--output", str(out)]) == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "measure,random,spirals,xor,moons,circles,blobs"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["F1", "N1", "N2", "N3", "N4", "T1", "LSC", "Density", "1-DSI"]
        values = [float(v) for line in lines[1:] for v in line.split(",")[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_table2_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["repro", "table2", "--n-per-class", "30", "--output", str(a)]) == 0
        assert run(["repro", "table2", "--n-per-class", "30", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_table2_digest(self, tmp_path):
        # the default table, byte for byte: no refactor may move a value
        out = tmp_path / "t2.csv"
        assert run(["repro", "table2", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest().startswith("ff17a0f4b7aba6dc")

    def test_figure7_pinned(self, capsys):
        # KS is a ratio of counts, so its bits hold; W1 holds to 1e-12
        assert run(["repro", "figure7", "--n-per-class", "500"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(sd) for sd, _, _ in rows] == list(range(1, 10))
        assert [float(ks) for _, ks, _ in rows] == FIGURE7_KS
        assert [float(w1) for _, _, w1 in rows] == pytest.approx(FIGURE7_W1, rel=1e-12)

    def test_figure7_structure(self, capsys):
        assert run(["repro", "figure7", "--n-per-class", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cluster_sd,dsi_ks,dsi_wasserstein"
        assert len(lines) == 10  # header + sd 1..9

    def test_figure7_pairs_per_dataset(self, capsys, computed_pairs):
        # the pairs the distance kernels compute, however they block the
        # work: each dataset's n(n-1)/2 pairs once in pass 1, and, when some
        # bin needs refining, each at most once more in pass 2, besides the
        # delta rows of the one cross source (at most its 30 rows)
        pairs = 60 * 59 // 2
        per_dataset = []
        for sd in range(1, 10):
            ds = generate(GeneratorSpec("blobsd", 30, seed=0, cluster_sd=float(sd)))
            computed_pairs.clear()
            _dsi_reports(ds, "euclidean", ("ks", "wasserstein"), 1, None)
            assert pairs <= sum(computed_pairs) <= 2 * pairs + 30
            per_dataset.append(sum(computed_pairs))
        computed_pairs.clear()
        assert run(["repro", "figure7", "--n-per-class", "30"]) == 0
        assert sum(computed_pairs) == sum(per_dataset)
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for sd, ks, wasserstein in rows:
            ds = generate(GeneratorSpec("blobsd", 30, seed=0, cluster_sd=float(sd)))
            assert float(ks) == dsi(ds, stat="ks").dsi
            assert float(wasserstein) == pytest.approx(
                dsi(ds, stat="wasserstein").dsi, rel=1e-12
            )

    def test_figure4_structure(self, capsys):
        assert run(["repro", "figure4", "--n-per-class", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cluster_sd,N2,N4,T1,LSC,Density,1-DSI"
        assert len(lines) == 10

    def test_section5_2_without_data(self, capsys):
        assert run(["repro", "section5_2", "--seeds", "2", "--n-per-class", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "experiment,mean,sd,n_seeds"
        assert lines[1].startswith("uniform_1000_per_class,")
        assert lines[2].startswith("uniform_2000_per_class,")

    def test_section5_2_with_data(self, tmp_path, capsys):
        batch = _cifar_batch(tmp_path / "batch.bin")  # 6 airplanes, 6 automobiles
        assert run(["repro", "section5_2", "--seeds", "1", "--data", str(batch)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        ds = load_cifar10_batch(batch.read_bytes())
        air, auto = ds.points[ds.labels == 0], ds.points[ds.labels == 1]
        assert rows[3:] == [
            ["air1_vs_air2", repr(distribution_identity_score(air[:3], air[3:])), "", "1"],
            ["air1_vs_auto", repr(distribution_identity_score(air[:3], auto[:3])), "", "1"],
        ]

    def test_figure12_needs_data(self, capsys):
        assert run(["repro", "figure12"]) == 1
        assert "--data" in capsys.readouterr().err

    def test_figure12_sizes(self, tmp_path, capsys):
        batch = _cifar_batch(tmp_path / "batch.bin")
        argv = ["repro", "figure12", "--data", str(batch), "--trials", "2"]
        assert run(argv + ["--sizes", "4, 6,"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "6"]

    def test_figure12_trials_below_1(self, tmp_path, capsys):
        batch = _cifar_batch(tmp_path / "batch.bin")
        assert run(["repro", "figure12", "--data", str(batch), "--trials", "0"]) == 1
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "sizes, loads, message",
        [
            ("4,0", False, "--sizes entries must be in [1, 15000], got 0"),
            ("4,-3", False, "--sizes entries must be in [1, 15000], got -3"),
            ("4,15001", False, "--sizes entries must be in [1, 15000], got 15001"),
            ("4,13", True, "--sizes entry 13 exceeds the data's 12 records"),
        ],
    )
    def test_figure12_sizes_out_of_range(
        self, tmp_path, capsys, monkeypatch, sizes, loads, message
    ):
        # every entry is checked before any trial runs, the cap before loading
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before --sizes was checked")

        monkeypatch.setattr(cli, "dsi_subsampled", no_trials)
        batch = _cifar_batch(tmp_path / "batch.bin")
        if not loads:
            batch.unlink()  # a missing file shows that the data is never read
        assert run(["repro", "figure12", "--data", str(batch), "--sizes", sizes]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sizes", ["abc", "10,x", ",", " "])
    def test_figure12_bad_sizes_is_usage_error(self, tmp_path, capsys, sizes):
        batch = _cifar_batch(tmp_path / "batch.bin")
        with pytest.raises(SystemExit) as exc:
            run(["repro", "figure12", "--data", str(batch), "--sizes", sizes])
        assert exc.value.code == 2
        assert "argument --sizes: not a comma list of integers" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("separability") is None, reason="entry point not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["separability", "--version"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("separability ")


def _run_child(args, cwd):
    """Run a Python child that imports the same package as this process,
    installed or not."""
    package_root = str(Path(separability.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )


def test_module_invocation(tmp_path):
    data = _write_shape_csv(tmp_path / "d.csv", n=10)
    proc = _run_child(["-m", "separability.cli", "measure", "--input", str(data)], tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == 1


def test_module_invocations_print_one_version(tmp_path):
    modules = ("separability", "separability.cli")
    out = [_run_child(["-m", module, "--version"], tmp_path).stdout for module in modules]
    assert out[0] == out[1] == f"separability {separability.__version__}\n"


_ENTRY_POINT = """
import os, sys
if sys.argv[1]:
    os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
else:
    os.environ.pop("OPENBLAS_NUM_THREADS", None)
seen = []  # the variable when numpy loads
sys.addaudithook(
    lambda event, args: event == "import" and args[0] == "numpy"
    and seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
)
from separability.__main__ import main
sys.argv[1:] = ["--version"]
try:
    main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(os.environ["OPENBLAS_NUM_THREADS"], seen)
"""


@pytest.mark.parametrize("user_value, want", [("", "1"), ("3", "3")], ids=["unset", "set"])
def test_entry_point_sets_blas_threads_before_numpy(tmp_path, user_value, want):
    # the console script's target, run without the script on PATH
    proc = _run_child(["-c", _ENTRY_POINT, user_value], tmp_path)
    assert proc.returncode == 0, proc.stderr
    version = f"separability {separability.__version__}"
    assert proc.stdout.splitlines() == [version, f"{want} ['{want}']"]


_IMPORT_ORDER = """
import os, sys
environ = dict(os.environ)
{first}
import separability
print("numpy" in sys.modules)
assert separability.dsi is sys.modules["separability.dsi"].dsi
namespace = {{}}
exec("from separability import *", namespace)
assert sorted(namespace.keys() - {{"__builtins__"}}) == sorted(separability.__all__)
assert namespace["dsi"] is separability.dsi is sys.modules["separability.dsi"].dsi
assert dict(os.environ) == environ
"""


@pytest.mark.parametrize(
    "first",
    [
        "import separability",
        "import separability.cli",
        "import separability.dsi",
        "from separability.dsi import _dsi_reports",
    ],
)
def test_package_loads_its_modules_on_first_use(tmp_path, first):
    proc = _run_child(["-c", _IMPORT_ORDER.format(first=first)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(first != "import separability")  # numpy loaded


_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[demo.stem for demo in _DEMOS])
def test_demo_runs(tmp_path, demo):
    proc = _run_child([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_network_stack_unloaded(tmp_path):
    code = (
        "import sys, separability.cli; "
        "print(sorted(m for m in ('ssl', 'urllib.request') if m in sys.modules))"
    )
    proc = _run_child(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_SCIPY_AFTER_MEASURE = """
import contextlib, io, sys
from pathlib import Path
import numpy as np
from separability import load_csv, pairwise_condensed
from separability.cli import run
path, metric = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["measure", "--input", path, "--metric", metric]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
if metric == "cosine":
    from scipy.spatial.distance import pdist
    points = load_csv(Path(path)).points
    want = np.clip(pdist(points, "cosine"), 0.0, 2.0)
    print(np.array_equal(pairwise_condensed(points, "cosine").view(np.uint64), want.view(np.uint64)))
"""


_MODULES_AFTER_MEASURE = """
import contextlib, io, sys
from separability.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["measure", "--input", sys.argv[1], "--threads", sys.argv[2]]) == 0
print(sorted(m for m in ("concurrent.futures", "hashlib") if m in sys.modules))
"""


_NUMPY_MA_AFTER = """
import contextlib, io, sys
from separability.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert run([sys.argv[2], "--input", sys.argv[1]]) == 0
print("numpy.ma" in sys.modules)
"""


def test_numpy_ma_not_imported(tmp_path):
    # a plain np.unique or np.quantile imports numpy.ma, 9-17 ms on numpy 2.4
    data = _write_shape_csv(tmp_path / "d.csv", n=150)
    for command in ("measure", "compare"):
        proc = _run_child(["-c", _NUMPY_MA_AFTER, str(data), command], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", command


@pytest.mark.parametrize("threads", ["1", "2"])
def test_thread_pool_and_hashlib_load_only_when_needed(tmp_path, threads):
    # one thread starts no pool, and only a fetch checks a digest
    data = _write_shape_csv(tmp_path / "d.csv", n=150)
    proc = _run_child(["-c", _MODULES_AFTER_MEASURE, str(data), threads], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("[]" if threads == "1" else "['concurrent.futures']")


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_scipy_loads_only_when_a_kernel_needs_it(tmp_path, metric):
    data = _write_shape_csv(tmp_path / "d.csv", n=150)  # 2-D, above one row block
    proc = _run_child(["-c", _SCIPY_AFTER_MEASURE, str(data), metric], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    if metric == "euclidean":
        assert lines == ["[]"]
    else:
        assert "scipy.spatial.distance" in lines[0]
        assert lines[1] == "True"
