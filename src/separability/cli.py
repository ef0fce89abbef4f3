"""Command-line interface.

Subcommands: generate, measure, compare, identity, fetch, repro.  Machine
output is JSON (stable, versioned schema) or CSV; ``--format text`` gives
aligned tables for terminals.  Exit codes: 0 success, 1 data error, 2
usage error.  The same argv over the same inputs always produces byte
identical artifacts: timing is excluded unless ``--timing`` is passed, and
every random choice derives from an echoed seed.

Options may also come from a ``--config`` file of ``key=value`` lines
(keys are the long flag names; ``#`` starts a comment).  Explicit flags
override config values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    Dataset,
    load_cifar10_batch,
    load_cifar10_tar,
    load_cifar100_batch,
    load_cifar100_tar,
    load_csv,
    load_points_csv,
)
from .distances import METRIC_NAMES, fit_mahalanobis
from .dsi import (
    DEFAULT_MAX_POINTS,
    STAT_NAMES,
    class_distance_sets,
    distribution_identity_score,
    dsi,
    dsi_subsampled,
)
from .errors import DomainError, ParseError, SeparabilityError
from .fetch import fetch_dataset
from .generators import SHAPES, GeneratorSpec, generate
from .measures import MEASURE_CODES, compute_measures

SCHEMA_VERSION = 1

_TABLE2_SHAPES = ("random", "spirals", "xor", "moons", "circles", "blobs")

_ALL_OPTION_STRINGS: list[str] = []


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that suggests a close flag on unknown options."""

    def error(self, message):
        if "unrecognized arguments" in message:
            _, _, extras = message.partition(":")
            for token in extras.split():
                if token.startswith("-"):
                    close = difflib.get_close_matches(token, _ALL_OPTION_STRINGS, n=1)
                    if close:
                        message += f" (did you mean {close[0]}?)"
                    break
        super().error(message)  # prints usage to stderr and exits 2


def _collect_option_strings(parser: argparse.ArgumentParser):
    for action in parser._actions:
        _ALL_OPTION_STRINGS.extend(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                _collect_option_strings(sub)


# ---------------------------------------------------------------------------
# config handling: flags > config file > defaults


def _as_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"expected a boolean, got {text!r}")


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"config {path} line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        cfg[key.strip().lower().replace("-", "_")] = value.strip()
    return cfg


def _merge_config(args: argparse.Namespace, spec: dict):
    """Fill every ``None`` arg from the config file, then from defaults.

    ``spec`` maps dest -> (converter, default).  Converters run only on
    config-file strings; argparse already converted real flags.
    """
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(config) - set(spec)
    if unknown:
        raise ParseError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    for dest, (convert, default) in spec.items():
        if getattr(args, dest, None) is None:
            if dest in config:
                setattr(args, dest, convert(config[dest]))
            else:
                setattr(args, dest, default)
    return args


def _check_positive(args, *dests: str):
    """Reject counts below 1, whether they came from a flag or the config."""
    for dest in dests:
        value = getattr(args, dest)
        if value < 1:
            flag = "--" + dest.replace("_", "-")
            raise DomainError(f"{flag} must be >= 1, got {value}")


def _fitted_metric(name: str, *point_sets):
    """The metric to use; mahalanobis is fitted once on all the points."""
    if name == "mahalanobis":
        return fit_mahalanobis(np.vstack(point_sets))
    return name


# ---------------------------------------------------------------------------
# shared IO helpers


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _fmt(value) -> str:
    """Full-precision, locale-independent cell text."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _aligned_text(rows: list[list]) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_labeled(args) -> Dataset:
    path = Path(args.input)
    if args.input_format == "csv":
        label: int | str = args.label_col
        if isinstance(label, str):
            try:
                label = int(label)
            except ValueError:
                pass
        return load_csv(
            path, label_column=label, delimiter=args.delimiter, header=not args.no_header
        )
    data = path.read_bytes()
    if args.input_format == "cifar10":
        if path.name.endswith((".tar", ".tar.gz", ".tgz")):
            return load_cifar10_tar(data)
        return load_cifar10_batch(data)
    if args.input_format == "cifar100":
        if path.name.endswith((".tar", ".tar.gz", ".tgz")):
            return load_cifar100_tar(data)
        return load_cifar100_batch(data)
    raise ParseError(f"unknown input format {args.input_format!r}")


# ---------------------------------------------------------------------------
# subcommand: generate


_GENERATE_SPEC = {
    "shape": (str, None),  # required; validated below
    "n_per_class": (int, 1000),
    "seed": (int, 0),
    "noise": (float, None),
    "cluster_sd": (float, None),
    "output": (str, None),
}


def _cmd_generate(args) -> int:
    _merge_config(args, _GENERATE_SPEC)
    if args.shape is None:
        raise ParseError("generate needs --shape (flag or config)")
    spec = GeneratorSpec(
        shape=args.shape.lower(),
        n_per_class=args.n_per_class,
        seed=args.seed,
        noise=args.noise,
        cluster_sd=args.cluster_sd,
    )
    ds = generate(spec)
    rows: list[list] = [[f"x{i}" for i in range(ds.dim)] + ["label"]]
    for point, label in zip(ds.points, ds.labels):
        rows.append([repr(float(v)) for v in point] + [int(label)])
    _emit(_csv_text(rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: measure


_MEASURE_SPEC = {
    "input": (str, None),
    "input_format": (str, "csv"),
    "label_col": (str, "-1"),
    "delimiter": (str, ","),
    "no_header": (_as_bool, False),
    "metric": (str, "euclidean"),
    "stat": (str, "ks"),
    "subsample": (int, None),
    "trials": (int, 8),
    "seed": (int, 0),
    "threads": (int, 1),
    "max_points": (int, DEFAULT_MAX_POINTS),
    "histogram": (str, None),
    "bins": (int, 50),
    "format": (str, "json"),
    "timing": (_as_bool, False),
    "output": (str, None),
}


def _write_histogram(path: str, sets: dict, bins: int):
    values = np.concatenate(
        [s.values for pair in sets.values() for s in pair]
    )
    edges = np.linspace(float(values.min()), float(values.max()), bins + 1)
    rows: list[list] = [["bin_left", "bin_right", "count", "set_kind"]]
    for label in sorted(sets):
        for dset in sets[label]:
            counts, _ = np.histogram(dset.values, bins=edges)
            kind = f"{dset.kind}_{label}"
            for b in range(bins):
                rows.append([repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b]), kind])
    Path(path).write_text(_csv_text(rows), encoding="utf-8")


def _cmd_measure(args) -> int:
    _merge_config(args, _MEASURE_SPEC)
    if args.input is None:
        raise ParseError("measure needs --input (flag or config)")
    _check_positive(args, "threads", "bins")
    ds = _load_labeled(args)
    metric = _fitted_metric(args.metric, ds.points)
    if args.subsample is not None:
        report = dsi_subsampled(
            ds,
            subset_size=args.subsample,
            trials=args.trials,
            seed=args.seed,
            metric=metric,
            stat=args.stat,
            workers=args.threads,
        )
    else:
        report = dsi(
            ds,
            metric=metric,
            stat=args.stat,
            workers=args.threads,
            max_points=args.max_points,
        )
    if args.histogram:
        sets = class_distance_sets(
            ds, metric, workers=args.threads, max_points=args.max_points
        )
        _write_histogram(args.histogram, sets, args.bins)

    payload = {"schema_version": SCHEMA_VERSION, "command": "measure", "input": args.input}
    payload.update(report.to_dict(include_timing=args.timing))
    if ds.label_names is not None:
        payload["label_names"] = {
            str(c): ds.label_names[c]
            for c in sorted(report.per_class_similarity)
            if c < len(ds.label_names)
        }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        rows = [["n_points", report.n_points], ["dim", report.dim],
                ["metric", report.metric], ["stat", report.stat]]
        for c, s in report.per_class_similarity.items():
            rows.append([f"class {c}", s])
        rows.append(["dsi", report.dsi])
        rows.append(["complexity", report.complexity])
        if report.subsample is not None:
            sub = report.subsample
            rows += [["subset_size", sub.subset_size], ["trials", sub.trials],
                     ["seed", sub.seed], ["trial sd", sub.sd]]
        if args.timing:
            rows.append(["wall_time_s", report.wall_time_s])
        _emit(_aligned_text(rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: compare


_COMPARE_SPEC = {
    "input": (str, None),
    "input_format": (str, "csv"),
    "label_col": (str, "-1"),
    "delimiter": (str, ","),
    "no_header": (_as_bool, False),
    "measures": (str, "all"),
    "n4_synthetic": (int, None),
    "seed": (int, 0),
    "density_quantile": (float, 0.15),
    "threads": (int, 1),
    "format": (str, "text"),
    "output": (str, None),
}


def _measure_rows(ds: Dataset, codes, seed, n4_synthetic, density_quantile, threads):
    results = compute_measures(
        ds,
        codes,
        n4_synthetic=n4_synthetic,
        seed=seed,
        density_quantile=density_quantile,
        workers=threads,
    )
    rows = []
    for res in results:
        params = ";".join(f"{k}={v}" for k, v in sorted(res.params.items()))
        rows.append([res.code, res.value, params])
    return rows


def _cmd_compare(args) -> int:
    _merge_config(args, _COMPARE_SPEC)
    if args.input is None:
        raise ParseError("compare needs --input (flag or config)")
    _check_positive(args, "threads")
    if args.n4_synthetic is not None:
        _check_positive(args, "n4_synthetic")
    if not 0.0 < args.density_quantile < 1.0:
        raise DomainError(
            f"--density-quantile must be in (0, 1), got {args.density_quantile}"
        )
    ds = _load_labeled(args)
    if args.measures.strip().lower() == "all":
        codes = list(MEASURE_CODES)
    else:
        codes = [c.strip() for c in args.measures.split(",") if c.strip()]
        unknown = [c for c in codes if c not in MEASURE_CODES]
        if unknown:
            raise ParseError(
                f"unknown measure codes {', '.join(unknown)}; "
                f"expected some of {', '.join(MEASURE_CODES)}"
            )
    rows: list[list] = [["measure", "value", "params"]]
    rows += _measure_rows(
        ds, codes, args.seed, args.n4_synthetic, args.density_quantile, args.threads
    )
    report = dsi(ds, workers=args.threads)
    rows.append(["1-DSI", report.complexity, f"metric={report.metric};stat={report.stat}"])
    text = _csv_text(rows) if args.format == "csv" else _aligned_text(rows)
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: identity


_IDENTITY_SPEC = {
    "a": (str, None),
    "b": (str, None),
    "delimiter": (str, ","),
    "no_header": (_as_bool, False),
    "metric": (str, "euclidean"),
    "stat": (str, "ks"),
    "threads": (int, 1),
    "max_points": (int, DEFAULT_MAX_POINTS),
    "format": (str, "json"),
    "output": (str, None),
}


def _cmd_identity(args) -> int:
    _merge_config(args, _IDENTITY_SPEC)
    if args.a is None or args.b is None:
        raise ParseError("identity needs --a and --b (flag or config)")
    _check_positive(args, "threads")
    header = not args.no_header
    sample_a = load_points_csv(Path(args.a), delimiter=args.delimiter, header=header)
    sample_b = load_points_csv(Path(args.b), delimiter=args.delimiter, header=header)
    if sample_a.shape[1] != sample_b.shape[1]:
        raise ParseError(
            f"--a has {sample_a.shape[1]} columns but --b has {sample_b.shape[1]}"
        )
    score = distribution_identity_score(
        sample_a,
        sample_b,
        metric=_fitted_metric(args.metric, sample_a, sample_b),
        stat=args.stat,
        workers=args.threads,
        max_points=args.max_points,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "identity",
        "a": args.a,
        "b": args.b,
        "n_a": int(sample_a.shape[0]),
        "n_b": int(sample_b.shape[0]),
        "dim": int(sample_a.shape[1]),
        "metric": args.metric,
        "stat": args.stat,
        "score": score,
    }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        rows = [[k, v] for k, v in payload.items() if k != "schema_version"]
        _emit(_aligned_text(rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: fetch


def _cmd_fetch(args) -> int:
    data = fetch_dataset(
        args.url, args.digest, cache=args.cache, timeout=args.timeout
    )
    if args.output:
        Path(args.output).write_bytes(data)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "fetch",
        "url": args.url,
        "digest": args.digest,
        "bytes": len(data),
        "output": args.output,
    }
    if args.format == "json":
        _emit(_json_text(payload), None)
    else:
        sys.stdout.write(f"fetched {len(data)} bytes\n")
    return 0


# ---------------------------------------------------------------------------
# subcommand: repro


def _load_cifar_train(path: str) -> Dataset:
    p = Path(path)
    if p.name.endswith((".tar", ".tar.gz", ".tgz")):
        return load_cifar10_tar(p.read_bytes(), split="train")
    return load_cifar10_batch(p.read_bytes())


def _repro_table2(args) -> list[list]:
    rows: list[list] = [["measure"] + list(_TABLE2_SHAPES)]
    datasets = {
        shape: generate(GeneratorSpec(shape, args.n_per_class, seed=args.seed))
        for shape in _TABLE2_SHAPES
    }
    columns = {
        shape: {
            res.code: res.value
            for res in compute_measures(ds, seed=args.seed, workers=args.threads)
        }
        for shape, ds in datasets.items()
    }
    for shape, ds in datasets.items():
        columns[shape]["1-DSI"] = dsi(ds, workers=args.threads).complexity
    for code in list(MEASURE_CODES) + ["1-DSI"]:
        rows.append([code] + [columns[shape][code] for shape in _TABLE2_SHAPES])
    return rows


def _repro_figure4(args) -> list[list]:
    codes = ["N2", "N4", "T1", "LSC", "Density"]
    rows: list[list] = [["cluster_sd"] + codes + ["1-DSI"]]
    for sd in range(1, 10):
        ds = generate(
            GeneratorSpec("blobsd", args.n_per_class, seed=args.seed, cluster_sd=float(sd))
        )
        values = {
            res.code: res.value
            for res in compute_measures(ds, codes, seed=args.seed, workers=args.threads)
        }
        complexity = dsi(ds, workers=args.threads).complexity
        rows.append([sd] + [values[c] for c in codes] + [complexity])
    return rows


def _repro_figure7(args) -> list[list]:
    rows: list[list] = [["cluster_sd", "dsi_ks", "dsi_wasserstein"]]
    for sd in range(1, 10):
        ds = generate(
            GeneratorSpec("blobsd", args.n_per_class, seed=args.seed, cluster_sd=float(sd))
        )
        rows.append(
            [
                sd,
                dsi(ds, stat="ks", workers=args.threads).dsi,
                dsi(ds, stat="wasserstein", workers=args.threads).dsi,
            ]
        )
    return rows


def _repro_figure12(args) -> list[list]:
    if not args.data:
        raise ParseError("repro figure12 needs --data pointing to a CIFAR-10 archive or batch")
    ds = _load_cifar_train(args.data)
    sizes = [int(s) for s in str(args.sizes).split(",") if s.strip()]
    rows: list[list] = [["subset_size", "mean_dsi", "sd_dsi", "trials", "seed"]]
    for size in sizes:
        report = dsi_subsampled(
            ds, subset_size=size, trials=args.trials, seed=args.seed, workers=args.threads
        )
        sub = report.subsample
        rows.append([size, sub.mean, sub.sd, sub.trials, sub.seed])
    return rows


def _uniform_identity_scores(n: int, seeds: int, threads: int) -> list[float]:
    scores = []
    for seed in range(seeds):
        streams = [
            np.random.Generator(np.random.Philox(key=np.array([seed, c], dtype=np.uint64)))
            for c in (0, 1)
        ]
        a, b = (rng.random((n, 2)) for rng in streams)
        scores.append(distribution_identity_score(a, b, workers=threads))
    return scores


def _repro_section5_2(args) -> list[list]:
    rows: list[list] = [["experiment", "mean", "sd", "n_seeds"]]
    for n in (1000, 2000):
        scores = _uniform_identity_scores(n, args.seeds, args.threads)
        mean = float(np.mean(scores))
        sd = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
        rows.append([f"uniform_{n}_per_class", mean, sd, len(scores)])
    if args.data:
        ds = _load_cifar_train(args.data)
        airplanes = ds.points[ds.labels == 0]
        autos = ds.points[ds.labels == 1]
        half = airplanes.shape[0] // 2
        air1, air2 = airplanes[:half], airplanes[half : 2 * half]
        auto = autos[:half]
        rows.append(
            ["air1_vs_air2", distribution_identity_score(air1, air2, workers=args.threads), "", 1]
        )
        rows.append(
            ["air1_vs_auto", distribution_identity_score(air1, auto, workers=args.threads), "", 1]
        )
    return rows


def _cmd_repro(args) -> int:
    _check_positive(args, "threads", "seeds")
    fns = {
        "table2": _repro_table2,
        "figure4": _repro_figure4,
        "figure7": _repro_figure7,
        "figure12": _repro_figure12,
        "section5_2": _repro_section5_2,
    }
    rows = fns[args.target](args)
    text = _aligned_text(rows) if args.format == "text" else _csv_text(rows)
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="separability", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common_io(p):
        p.add_argument("--input", help="path to the dataset file")
        p.add_argument(
            "--input-format",
            choices=["csv", "cifar10", "cifar100"],
            default=None,
            help="input layout (default csv)",
        )
        p.add_argument("--label-col", default=None,
                       help="label column name or index (default: last column)")
        p.add_argument("--delimiter", default=None, help="CSV delimiter (default ,)")
        p.add_argument("--no-header", action="store_const", const=True, default=None,
                       help="treat the first CSV row as data")

    g = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    g.add_argument("--shape", choices=list(SHAPES), default=None)
    g.add_argument("--n-per-class", type=int, default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--noise", type=float, default=None,
                   help="jitter scale for circles/moons/spirals")
    g.add_argument("--cluster-sd", type=float, default=None,
                   help="cluster standard deviation (blobsd only)")
    g.add_argument("--output", default=None, help="output path (default stdout)")
    g.add_argument("--config", default=None, help="key=value defaults file")
    g.set_defaults(fn=_cmd_generate)

    m = sub.add_parser("measure", help="separability index of a labeled dataset")
    add_common_io(m)
    m.add_argument("--metric", choices=list(METRIC_NAMES), default=None)
    m.add_argument("--stat", choices=list(STAT_NAMES), default=None)
    m.add_argument("--subsample", type=int, default=None,
                   help="estimate on random subsets of this size")
    m.add_argument("--trials", type=int, default=None, help="subsample trial count (default 8)")
    m.add_argument("--seed", type=int, default=None, help="subsample seed (default 0)")
    m.add_argument("--threads", type=int, default=None, help="worker threads (default 1)")
    m.add_argument("--max-points", type=int, default=None,
                   help=f"exact-computation cap (default {DEFAULT_MAX_POINTS})")
    m.add_argument("--histogram", default=None,
                   help="also write per-class ICD/BCD histograms to this CSV")
    m.add_argument("--bins", type=int, default=None, help="histogram bins (default 50)")
    m.add_argument("--format", choices=["json", "text"], default=None)
    m.add_argument("--timing", action="store_const", const=True, default=None,
                   help="include wall_time_s in the report")
    m.add_argument("--output", default=None)
    m.add_argument("--config", default=None)
    m.set_defaults(fn=_cmd_measure)

    c = sub.add_parser("compare", help="complexity-measure table for a dataset")
    add_common_io(c)
    c.add_argument("--measures", default=None,
                   help="'all' or comma list from " + ",".join(MEASURE_CODES))
    c.add_argument("--n4-synthetic", type=int, default=None,
                   help="synthetic point count for N4 (default n)")
    c.add_argument("--seed", type=int, default=None, help="N4 interpolation seed (default 0)")
    c.add_argument("--density-quantile", type=float, default=None,
                   help="edge quantile for Density (default 0.15)")
    c.add_argument("--threads", type=int, default=None)
    c.add_argument("--format", choices=["csv", "text"], default=None)
    c.add_argument("--output", default=None)
    c.add_argument("--config", default=None)
    c.set_defaults(fn=_cmd_compare)

    i = sub.add_parser("identity", help="score whether two point sets share a distribution")
    i.add_argument("--a", default=None, help="CSV of points (all columns numeric)")
    i.add_argument("--b", default=None, help="CSV of points (all columns numeric)")
    i.add_argument("--delimiter", default=None)
    i.add_argument("--no-header", action="store_const", const=True, default=None)
    i.add_argument("--metric", choices=list(METRIC_NAMES), default=None)
    i.add_argument("--stat", choices=list(STAT_NAMES), default=None)
    i.add_argument("--threads", type=int, default=None)
    i.add_argument("--max-points", type=int, default=None)
    i.add_argument("--format", choices=["json", "text"], default=None)
    i.add_argument("--output", default=None)
    i.add_argument("--config", default=None)
    i.set_defaults(fn=_cmd_identity)

    f = sub.add_parser("fetch", help="download and digest-verify a dataset")
    f.add_argument("--url", required=True)
    f.add_argument("--digest", required=True,
                   help="expected digest, algo:hex or bare sha256 hex")
    f.add_argument("--output", default=None, help="also copy the payload here")
    f.add_argument("--cache", default=None, help="cache directory override")
    f.add_argument("--timeout", type=float, default=60.0)
    f.add_argument("--format", choices=["json", "text"], default="json")
    f.set_defaults(fn=_cmd_fetch)

    r = sub.add_parser("repro", help="regenerate the benchmark tables")
    r.add_argument("target", choices=["table2", "figure4", "figure7", "figure12", "section5_2"])
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--n-per-class", type=int, default=1000)
    r.add_argument("--seeds", type=int, default=10,
                   help="seed count for the uniform identity runs (section5_2)")
    r.add_argument("--data", default=None, help="local CIFAR-10 archive or batch file")
    r.add_argument("--sizes", default="100,500,1000,5000",
                   help="comma list of subset sizes (figure12)")
    r.add_argument("--trials", type=int, default=8, help="trials per subset size (figure12)")
    r.add_argument("--threads", type=int, default=1)
    r.add_argument("--format", choices=["csv", "text"], default="csv")
    r.add_argument("--output", default=None)
    r.set_defaults(fn=_cmd_repro)

    _ALL_OPTION_STRINGS.clear()
    _collect_option_strings(parser)
    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SeparabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
