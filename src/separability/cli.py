"""Command-line interface.

Subcommands: generate, measure, compare, identity, fetch, repro.  Machine
output is JSON (stable, versioned schema) or CSV; ``--format text`` gives
aligned tables for terminals.  Exit codes: 0 success, 1 data error, 2
usage error.  The same argv over the same inputs always produces byte
identical artifacts: timing is excluded unless ``--timing`` is passed, and
every random choice derives from an echoed seed.

The options of generate, measure, compare and identity may also come
from a ``--config`` file of ``key=value`` lines
(keys are the long flag names; ``#`` starts a comment).  Config values are
parsed and checked exactly like the flags they name; explicit flags
override config values, which override built-in defaults.
"""

from __future__ import annotations

if __name__ == "__main__":  # python -m separability.cli: hand over before numpy loads
    import sys

    from .__main__ import main

    sys.exit(main())

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
    _check_cap,
    _dsi_reports,
    class_distance_sets,
    distribution_identity_score,
    dsi,
    dsi_subsampled,
)
from .errors import DistanceCapError, DomainError, ParseError, SeparabilityError
from .fetch import fetch_dataset
from .generators import SHAPES, GeneratorSpec, _philox, generate
from .measures import MEASURE_CODES, compute_measures

SCHEMA_VERSION = 1

_TABLE2_SHAPES = ("random", "spirals", "xor", "moons", "circles", "blobs")

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that checks the value of ``--flag=--``."""

    def _get_values(self, action, arg_strings):
        # argparse strips the "--" of "--flag=--" and would store an empty
        # list unchecked; parse and check "--" like any other value instead
        if action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


# ---------------------------------------------------------------------------
# config handling: flags > config file > defaults


def _as_bool(text: str, where: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"{where}: expected a boolean, got {text!r}")


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


def _config_flags(subparser: argparse.ArgumentParser, path: str) -> list[str]:
    """The config file's ``key=value`` lines as the flags they name.

    A key names a long option of the subcommand other than ``--config`` and
    ``--help``.  Valued options become one ``--key=value`` token, so values
    that start with ``-`` still parse; switches appear when the value is true.
    """
    actions = {
        flag: action
        for flag, action in subparser._option_string_actions.items()
        if flag.startswith("--") and flag not in ("--config", "--help")
    }
    config = _load_config(path)
    flags = {key: "--" + key.replace("_", "-") for key in config}
    unknown = sorted(key for key, flag in flags.items() if flag not in actions)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in config.items():
        flag = flags[key]
        if actions[flag].nargs != 0:
            tokens.append(f"{flag}={value}")
        elif _as_bool(value, f"config {path}: {key}"):
            tokens.append(flag)
    return tokens


def _check_positive(args, *dests: str):
    """Reject counts below 1, whether they came from a flag or the config."""
    for dest in dests:
        value = getattr(args, dest)
        if value < 1:
            flag = "--" + dest.replace("_", "-")
            raise DomainError(f"{flag} must be >= 1, got {value}")


def _int_list(text: str) -> list[int]:
    """A comma list of integers, as an argparse type."""
    try:
        values = [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    return values


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


# (tar archive, binary batch) loader of each CIFAR input format
_CIFAR_LOADERS = {
    "cifar10": (load_cifar10_tar, load_cifar10_batch),
    "cifar100": (load_cifar100_tar, load_cifar100_batch),
}


def _load_cifar(path: str, input_format: str = "cifar10") -> Dataset:
    """The training records of a CIFAR tar archive, or one binary batch."""
    from_tar, from_batch = _CIFAR_LOADERS[input_format]
    p = Path(path)
    load = from_tar if p.name.endswith((".tar", ".tar.gz", ".tgz")) else from_batch
    return load(p.read_bytes())


def _load_labeled(args) -> Dataset:
    if args.input_format != "csv":
        return _load_cifar(args.input, args.input_format)
    return load_csv(
        Path(args.input),
        label_column=args.label_col,
        delimiter=args.delimiter,
        header=not args.no_header,
    )


# ---------------------------------------------------------------------------
# subcommand: generate


def _cmd_generate(args) -> int:
    if args.shape is None:
        raise ParseError("generate needs --shape (flag or config)")
    spec = GeneratorSpec(
        shape=args.shape,
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


def _write_histogram(path: str, sets: dict, bins: int):
    # every multiset is sorted: its ends are its extremes, and bin b
    # ([edges[b], edges[b + 1]), the last bin closed, as in np.histogram)
    # starts at the insertion point of edges[b]
    lo = min(float(s.values[0]) for pair in sets.values() for s in pair)
    hi = max(float(s.values[-1]) for pair in sets.values() for s in pair)
    edges = np.linspace(lo, hi, bins + 1)
    rows: list[list] = [["bin_left", "bin_right", "count", "set_kind"]]
    for label in sorted(sets):
        for dset in sets[label]:
            starts = np.searchsorted(dset.values, edges[:-1])
            counts = np.diff(starts, append=dset.values.size)
            kind = f"{dset.kind}_{label}"
            for b in range(bins):
                rows.append([repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b]), kind])
    Path(path).write_text(_csv_text(rows), encoding="utf-8")


def _cmd_measure(args) -> int:
    if args.input is None:
        raise ParseError("measure needs --input (flag or config)")
    _check_positive(args, "threads", "bins", "max_points")
    ds = _load_labeled(args)
    metric = _fitted_metric(args.metric, ds.points)
    if args.subsample is not None:
        _check_positive(args, "subsample", "trials")
        if args.subsample > args.max_points:
            raise DistanceCapError(
                f"--subsample {args.subsample} exceeds --max-points {args.max_points}; "
                "pass a smaller --subsample or a larger --max-points"
            )
        if args.subsample > ds.n:
            raise DomainError(f"--subsample {args.subsample} exceeds the dataset's {ds.n} points")
        if args.histogram:  # the histogram covers the whole dataset, not a subset
            _check_cap(
                ds.n, args.max_points, "--histogram reads every point; pass a larger --max-points"
            )
        report = dsi_subsampled(
            ds,
            subset_size=args.subsample,
            trials=args.trials,
            seed=args.seed,
            metric=metric,
            stat=args.stat,
            workers=args.threads,
            max_points=args.max_points,
        )
    else:
        _check_cap(ds.n, args.max_points, "use --subsample or pass a larger --max-points")
        report = dsi(ds, metric, stat=args.stat, workers=args.threads, max_points=args.max_points)
    if args.histogram:
        sets = class_distance_sets(ds, metric, workers=args.threads, max_points=args.max_points)
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


def _complexity_rows(ds: Dataset, codes, threads: int, **options) -> list[list]:
    """``[code, value, params]`` of each measure in ``codes``, then of 1-DSI."""
    # before any distance: the measures' time grows with n**2, like the DSI's;
    # the remedy names no flag, as compare has none
    _check_cap(ds.n, DEFAULT_MAX_POINTS, "the measures need every pairwise distance; use fewer rows")
    rows = []
    for res in compute_measures(ds, codes, workers=threads, **options):
        params = ";".join(f"{k}={v}" for k, v in sorted(res.params.items()))
        rows.append([res.code, res.value, params])
    report = dsi(ds, workers=threads)
    rows.append(["1-DSI", report.complexity, f"metric={report.metric};stat={report.stat}"])
    return rows


def _cmd_compare(args) -> int:
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
    else:  # compute_measures rejects unknown codes
        codes = [c.strip() for c in args.measures.split(",") if c.strip()]
    rows: list[list] = [["measure", "value", "params"]]
    rows += _complexity_rows(
        ds, codes, args.threads, seed=args.seed, n4_synthetic=args.n4_synthetic,
        density_quantile=args.density_quantile,
    )
    text = _csv_text(rows) if args.format == "csv" else _aligned_text(rows)
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: identity


def _cmd_identity(args) -> int:
    if args.a is None or args.b is None:
        raise ParseError("identity needs --a and --b (flag or config)")
    _check_positive(args, "threads", "max_points")
    header = not args.no_header
    sample_a = load_points_csv(Path(args.a), delimiter=args.delimiter, header=header)
    sample_b = load_points_csv(Path(args.b), delimiter=args.delimiter, header=header)
    if sample_a.shape[1] != sample_b.shape[1]:
        raise ParseError(
            f"--a has {sample_a.shape[1]} columns but --b has {sample_b.shape[1]}"
        )
    _check_cap(len(sample_a) + len(sample_b), args.max_points, "pass a larger --max-points")
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


def _repro_table2(args) -> list[list]:
    columns = [
        _complexity_rows(
            generate(GeneratorSpec(shape, args.n_per_class, seed=args.seed)),
            MEASURE_CODES,
            args.threads,
            seed=args.seed,
        )
        for shape in _TABLE2_SHAPES
    ]
    rows: list[list] = [["measure"] + list(_TABLE2_SHAPES)]
    for cells in zip(*columns):
        rows.append([cells[0][0]] + [value for _, value, _ in cells])
    return rows


def _blobsd_sweep(args):
    """The blobsd datasets of figures 4 and 7, by cluster_sd from 1 to 9."""
    for sd in range(1, 10):
        yield sd, generate(
            GeneratorSpec("blobsd", args.n_per_class, seed=args.seed, cluster_sd=float(sd))
        )


def _repro_figure4(args) -> list[list]:
    codes = ["N2", "N4", "T1", "LSC", "Density"]
    rows: list[list] = [["cluster_sd"] + codes + ["1-DSI"]]
    for sd, ds in _blobsd_sweep(args):
        complexity = _complexity_rows(ds, codes, args.threads, seed=args.seed)
        rows.append([sd] + [value for _, value, _ in complexity])
    return rows


def _repro_figure7(args) -> list[list]:
    rows: list[list] = [["cluster_sd", "dsi_ks", "dsi_wasserstein"]]
    for sd, ds in _blobsd_sweep(args):
        ks, wasserstein = _dsi_reports(
            ds, "euclidean", ("ks", "wasserstein"), args.threads, DEFAULT_MAX_POINTS
        )
        rows.append([sd, ks.dsi, wasserstein.dsi])
    return rows


def _repro_figure12(args) -> list[list]:
    if not args.data:
        raise ParseError("repro figure12 needs --data pointing to a CIFAR-10 archive or batch")
    _check_positive(args, "trials")
    for size in args.sizes:
        if not 1 <= size <= DEFAULT_MAX_POINTS:
            raise DomainError(f"--sizes entries must be in [1, {DEFAULT_MAX_POINTS}], got {size}")
    ds = _load_cifar(args.data)
    for size in args.sizes:
        if size > ds.n:
            raise DomainError(f"--sizes entry {size} exceeds the data's {ds.n} records")
    rows: list[list] = [["subset_size", "mean_dsi", "sd_dsi", "trials", "seed"]]
    for size in args.sizes:
        report = dsi_subsampled(
            ds, subset_size=size, trials=args.trials, seed=args.seed, workers=args.threads
        )
        sub = report.subsample
        rows.append([size, sub.mean, sub.sd, sub.trials, sub.seed])
    return rows


def _uniform_identity_scores(n: int, seed: int, seeds: int, threads: int) -> list[float]:
    """Identity scores of two uniform samples, run s keyed by ``[seed + s, class]``."""
    scores = []
    for s in range(seeds):
        a, b = (_philox(seed + s, c).random((n, 2)) for c in (0, 1))
        scores.append(distribution_identity_score(a, b, workers=threads))
    return scores


def _repro_section5_2(args) -> list[list]:
    rows: list[list] = [["experiment", "mean", "sd", "n_seeds"]]
    for n in (1000, 2000):
        scores = _uniform_identity_scores(n, args.seed, args.seeds, args.threads)
        mean = float(np.mean(scores))
        sd = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
        rows.append([f"uniform_{n}_per_class", mean, sd, len(scores)])
    if args.data:
        ds = _load_cifar(args.data)
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


_REPRO_TARGETS = {
    "table2": _repro_table2,
    "figure4": _repro_figure4,
    "figure7": _repro_figure7,
    "figure12": _repro_figure12,
    "section5_2": _repro_section5_2,
}


def _cmd_repro(args) -> int:
    _check_positive(args, "threads", "seeds")
    rows = _REPRO_TARGETS[args.target](args)
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
            choices=["csv", *_CIFAR_LOADERS],
            default="csv",
            help="input layout (default %(default)s)",
        )
        p.add_argument("--label-col", default="-1",
                       help="label column: a header name, else an integer index "
                       "(negative counts from the right; default: last column)")
        p.add_argument("--delimiter", default=",", help="CSV delimiter (default %(default)s)")
        p.add_argument("--no-header", action="store_true",
                       help="treat the first CSV row as data")

    g = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    g.add_argument("--shape", choices=list(SHAPES))
    g.add_argument("--n-per-class", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=float,
                   help="jitter scale for circles/moons/spirals")
    g.add_argument("--cluster-sd", type=float,
                   help="cluster standard deviation (blobsd only)")
    g.add_argument("--output", help="output path (default stdout)")
    g.add_argument("--config", help="key=value defaults file")
    g.set_defaults(fn=_cmd_generate)

    m = sub.add_parser("measure", help="separability index of a labeled dataset")
    add_common_io(m)
    m.add_argument("--metric", choices=list(METRIC_NAMES), default="euclidean")
    m.add_argument("--stat", choices=list(STAT_NAMES), default="ks")
    m.add_argument("--subsample", type=int,
                   help="estimate on random subsets of this size")
    m.add_argument("--trials", type=int, default=8,
                   help="subsample trial count (default %(default)s)")
    m.add_argument("--seed", type=int, default=0, help="subsample seed (default %(default)s)")
    m.add_argument("--threads", type=int, default=1, help="worker threads (default %(default)s)")
    m.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS,
                   help="exact-computation cap (default %(default)s)")
    m.add_argument("--histogram",
                   help="also write per-class ICD/BCD histograms to this CSV")
    m.add_argument("--bins", type=int, default=50, help="histogram bins (default %(default)s)")
    m.add_argument("--format", choices=["json", "text"], default="json")
    m.add_argument("--timing", action="store_true", help="include wall_time_s in the report")
    m.add_argument("--output")
    m.add_argument("--config")
    m.set_defaults(fn=_cmd_measure)

    c = sub.add_parser("compare", help="complexity-measure table for a dataset")
    add_common_io(c)
    c.add_argument("--measures", default="all",
                   help="'all' or comma list from " + ",".join(MEASURE_CODES))
    c.add_argument("--n4-synthetic", type=int,
                   help="synthetic point count for N4 (default n)")
    c.add_argument("--seed", type=int, default=0,
                   help="N4 interpolation seed (default %(default)s)")
    c.add_argument("--density-quantile", type=float, default=0.15,
                   help="edge quantile for Density (default %(default)s)")
    c.add_argument("--threads", type=int, default=1)
    c.add_argument("--format", choices=["csv", "text"], default="text")
    c.add_argument("--output")
    c.add_argument("--config")
    c.set_defaults(fn=_cmd_compare)

    i = sub.add_parser("identity", help="score whether two point sets share a distribution")
    i.add_argument("--a", help="CSV of points (all columns numeric)")
    i.add_argument("--b", help="CSV of points (all columns numeric)")
    i.add_argument("--delimiter", default=",")
    i.add_argument("--no-header", action="store_true")
    i.add_argument("--metric", choices=list(METRIC_NAMES), default="euclidean")
    i.add_argument("--stat", choices=list(STAT_NAMES), default="ks")
    i.add_argument("--threads", type=int, default=1)
    i.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)
    i.add_argument("--format", choices=["json", "text"], default="json")
    i.add_argument("--output")
    i.add_argument("--config")
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
    r.add_argument("target", choices=list(_REPRO_TARGETS))
    r.add_argument("--seed", type=int, default=0,
                   help="seed of the generated data and the random draws (default %(default)s)")
    r.add_argument("--n-per-class", type=int, default=1000)
    r.add_argument("--seeds", type=int, default=10,
                   help="seed count for the uniform identity runs (section5_2)")
    r.add_argument("--data", default=None, help="local CIFAR-10 archive or batch file")
    r.add_argument("--sizes", type=_int_list, default="100,500,1000,5000",
                   help="comma list of subset sizes (figure12)")
    r.add_argument("--trials", type=int, default=8, help="trials per subset size (figure12)")
    r.add_argument("--threads", type=int, default=1)
    r.add_argument("--format", choices=["csv", "text"], default="csv")
    r.add_argument("--output", default=None)
    r.set_defaults(fn=_cmd_repro)
    return parser


def _parse(parser: _Parser, argv: list[str]) -> tuple[argparse.Namespace, _Parser]:
    """The parsed argv and the subcommand's parser.

    A token the subcommand does not take exits 2: its parser reports the
    error with its own usage and names the closest of its own flags.
    """
    args, extras = parser.parse_known_args(argv)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.command]
    if extras:
        message = f"unrecognized arguments: {' '.join(extras)}"
        flag = next((token for token in extras if token.startswith("-")), "")
        close = difflib.get_close_matches(flag, command._option_string_actions, n=1)
        if close:
            message += f" (did you mean {close[0]}?)"
        command.error(message)  # prints usage to stderr and exits 2
    return args, command


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code.

    Each subcommand's parser is the one table of its flags, read for
    parsing, for the hint on an unknown flag and for ``--config`` keys.
    With ``--config``, the file's flags go right after the subcommand name
    and argv is parsed again, so explicit flags, coming later, win.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, command = _parse(parser, argv)
    try:
        if getattr(args, "config", None):
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(command, args.config)
            args, _ = _parse(parser, argv)
        return args.fn(args)
    except (SeparabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
