"""Command-line interface: exit codes, artifacts, and config precedence."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import separability
from separability import (
    class_distance_sets,
    distribution_identity_score,
    dsi,
    dsi_subsampled,
    fit_mahalanobis,
    load_csv,
)
from separability.cli import run

from conftest import rng


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

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["measure", "--input", str(tmp_path / "gone.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_max_points_cap(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv", n=30)
        assert run(["measure", "--input", str(data), "--max-points", "10"]) == 1
        assert "exceed" in capsys.readouterr().err

    def test_label_col_by_name(self, tmp_path, capsys):
        csv_file = tmp_path / "named.csv"
        csv_file.write_text("cls,u,v\na,0.0,0.1\na,0.2,0.0\nb,5.0,5.1\nb,5.2,5.0\n")
        assert run(["measure", "--input", str(csv_file), "--label-col", "cls"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 2
        assert payload["label_names"] == {"0": "a", "1": "b"}

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

    def test_unknown_measure(self, tmp_path, capsys):
        data = _write_shape_csv(tmp_path / "d.csv")
        assert run(["compare", "--input", str(data), "--measures", "Q7"]) == 1
        assert "unknown measure" in capsys.readouterr().err

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
        ],
        ids=[
            "subsample-above-n", "subsample-0", "trials-0", "threads-0", "threads-neg",
            "bins-0", "bins-neg", "config-threads-0", "config-bins-0",
            "compare-threads-0", "compare-config-threads-neg",
            "identity-threads-0", "identity-config-threads-0", "identity-column-mismatch",
            "compare-n4-synthetic-0", "compare-density-quantile-above-1",
            "compare-density-quantile-0-unselected", "compare-config-n4-synthetic-neg",
            "compare-config-density-quantile-1", "repro-seeds-0",
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


class TestArgparseBehavior:
    def test_unknown_flag_exits_2_with_suggestion(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["measure", "--inptu", "x.csv"])
        assert exc.value.code == 2
        assert "did you mean --input?" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

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

    def test_figure7_structure(self, capsys):
        assert run(["repro", "figure7", "--n-per-class", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cluster_sd,dsi_ks,dsi_wasserstein"
        assert len(lines) == 10  # header + sd 1..9

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

    def test_figure12_needs_data(self, capsys):
        assert run(["repro", "figure12"]) == 1
        assert "--data" in capsys.readouterr().err


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


def test_complexity_measures_demo_runs(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_complexity_measures.py"
    proc = _run_child([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
