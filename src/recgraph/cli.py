"""Command-line toolkit around the library.

Subcommands: ``stats`` (dataset report), ``sweep`` (hammock-width sweep with
measured and predicted path lengths), ``synth-study`` (synthetic datasets
across a kappa range), ``ws`` (ring-lattice rewiring curves), and ``cdf``
(complementary degree CDFs per width).

Every produced CSV is a pure function of (input, configuration, seed), and
every one is written by ``_write_csv``, the one place the format lives:
comma-separated, header row, LF line endings, UTF-8, numbers at 6
significant digits, counts as plain integers, an undefined value as an
empty cell.  Exit codes: 0 success, 1 input error (missing/malformed/empty
dataset), 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import (
    FORMATS,
    fit_power_law,
    is_connected_bipartite,
    load_ratings,
    reorder_hits_buffs,
    sparsity,
)
from .errors import (
    ConfigError,
    DegenerateModelError,
    FitError,
    InvalidDistributionError,
    RecgraphError,
    UndefinedMetricError,
)
from .jumps import RecommenderGraph, hammock_graphs
from .metrics import (
    connected_components,
    degree_cdf,
    degree_distribution,
    joint_degree_distribution,
    linf_discrepancy,
    measure_l_pp,
    measure_l_r_l_pm,
)
from .nsw import predict_l_pm, predict_l_pp, predict_l_r
from .synth import (
    REWIRE_MODES,
    SynthConfig,
    WreathConfig,
    calibrate_epsilon,
    generate_power_law_bipartite,
    small_world_curve,
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation: flags win over the config file,
    which wins over built-in defaults."""

    command: str
    input: str | None = None
    format: str = "movielens"
    w_min: int = 1
    w_max: int = 30
    kappa_min: int = 1
    kappa_max: int = 15
    trials: int = 1
    seed: int = 0
    max_sources: int | None = None
    out: str = "."
    log_scale: bool = False
    largest_only: bool = False
    n: int = 1000
    k: int = 10
    p_values: tuple = (0.0, 0.0001, 0.001, 0.01, 0.1, 1.0)
    mode: str = "uniform"
    n_people: int = 500
    n_movies: int = 75


# Built-in defaults of every setting a flag or the config file can change.
DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name not in ("command", "input")}


@dataclass(frozen=True)
class SweepRow:
    """One hammock width's structure and path-length measurements."""

    w: int
    components: int
    giant_people: int
    giant_movies: int
    isolated_people: int
    l_pp_measured: float | None
    l_r_measured: float | None
    l_pm_measured: float | None
    l_pp_predicted: float | None
    l_r_predicted: float | None
    l_pm_predicted: float | None
    sampled_sources: str  # "all", or the count either distance pass sampled


# -- configuration plumbing ---------------------------------------------------


def _parse_config_value(key, raw):
    """Parse a config-file value by the type of the key's default.

    ``max_sources``, whose default is None, takes an integer; ``input``,
    which has no default, stays a string.
    """
    default = DEFAULTS.get(key, "")
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"config key {key} needs a boolean, got {raw!r}")
    if default is None or isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key} needs an integer, got {raw!r}") from None
    if isinstance(default, tuple):
        return _parse_p_values(raw)
    return raw


def load_config_file(path) -> dict:
    """Parse a flat key=value config file; '#' starts a comment line."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in DEFAULTS and key != "input":
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_config_value(key, raw.strip())
    return values


def _parse_p_values(raw) -> tuple:
    try:
        values = tuple(float(part) for part in str(raw).split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"p values must be comma-separated floats, got {raw!r}") from None
    if not values:
        raise ConfigError("need at least one p value")
    return values


def resolve_config(args) -> RunConfig:
    """Merge CLI flags (all None when unset), config file, and defaults."""
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    merged = dict(file_values)
    for key in set(DEFAULTS) | {"input"}:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    cfg = RunConfig(command=args.command, **merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.format not in FORMATS:
        raise ConfigError(f"format must be one of {sorted(FORMATS)}, got {cfg.format!r}")
    if cfg.w_min < 1 or cfg.w_max < cfg.w_min:
        raise ConfigError(f"need 1 <= w_min <= w_max, got [{cfg.w_min}, {cfg.w_max}]")
    if cfg.kappa_min < 1 or cfg.kappa_max < cfg.kappa_min:
        raise ConfigError(f"need 1 <= kappa_min <= kappa_max, got [{cfg.kappa_min}, {cfg.kappa_max}]")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.n_people < 2:
        raise ConfigError(f"n_people must be at least 2, got {cfg.n_people}")
    if cfg.n_movies < 1:
        raise ConfigError(f"n_movies must be at least 1, got {cfg.n_movies}")
    if cfg.max_sources is not None and cfg.max_sources < 1:
        raise ConfigError("max sources must be at least 1")
    if cfg.mode not in REWIRE_MODES + ("both",):
        raise ConfigError(f"mode must be uniform, preferential, or both; got {cfg.mode!r}")
    if not all(0 <= p <= 1 for p in cfg.p_values):  # NaN fails every comparison
        raise ConfigError("p values must lie in [0, 1]")


def _load_dataset(cfg: RunConfig):
    if not cfg.input:
        raise ConfigError(f"{cfg.command} needs --input")
    return load_ratings(cfg.input, cfg.format)


def csv_float(x) -> str:
    """Render a value for CSV: 6 significant digits, ints plain, None empty."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


def _write_csv(path: Path, header, rows):
    """Write a header and rows of cells, strings as they are and the rest
    through csv_float, creating the output directory; print where."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(c if isinstance(c, str) else csv_float(c) for c in row) + "\n")
    print(f"wrote {path}")


# -- sweep core (shared with tests) --------------------------------------------


def sweep_rows(g, w_min, w_max, max_sources=None, seed=0):
    """Measure and predict across hammock widths; one SweepRow per width.

    Measured l_pp comes from the social graph's giant component; l_r and
    l_pm follow arcs in the recommender graph.  Movies are sinks there, so
    person-to-person distances in G_r are the social distances, and one
    distance pass gives all three whenever both giants hold the same people.
    Predictions use the giant component's degree distributions; degenerate
    models leave their columns empty.
    """
    rows = []
    for w, gs in hammock_graphs(g, w_min, w_max):
        gr = RecommenderGraph(g, gs)
        report = connected_components(gr)
        n_gp = len(report.giant_people)
        n_gm = len(report.giant_movies)
        same_giant = connected_components(gs).giant_people == report.giant_people

        l_pp_m = l_r_m = l_pm_m = None
        sampled = "all"
        if not same_giant:
            try:
                stats = measure_l_pp(gs, max_sources, seed)
                l_pp_m = stats.l_pp
                if stats.sampled:
                    sampled = str(stats.sources)
            except UndefinedMetricError:
                pass
        try:
            stats = measure_l_r_l_pm(gr, max_sources, seed)
            if same_giant:
                l_pp_m = stats.l_pp
            l_r_m = stats.l_r
            l_pm_m = stats.l_pm
            if stats.sampled:
                sampled = str(stats.sources)
        except UndefinedMetricError:
            pass

        l_pp_p = l_r_p = l_pm_p = None
        try:
            l_pp_p = predict_l_pp(degree_distribution(gs, largest_only=True))
        except (DegenerateModelError, InvalidDistributionError, UndefinedMetricError):
            pass
        try:
            l_r_p = predict_l_r(joint_degree_distribution(gr, largest_only=True))
        except (DegenerateModelError, InvalidDistributionError, UndefinedMetricError):
            pass
        if l_r_p is not None and l_pp_p is not None and n_gm >= 1 and n_gp >= 2:
            l_pm_p = predict_l_pm(l_r_p, l_pp_p, n_gp, n_gm)

        rows.append(SweepRow(
            w=w,
            components=len(report.component_sizes),
            giant_people=n_gp,
            giant_movies=n_gm,
            isolated_people=report.isolated_people,
            l_pp_measured=l_pp_m,
            l_r_measured=l_r_m,
            l_pm_measured=l_pm_m,
            l_pp_predicted=l_pp_p,
            l_r_predicted=l_r_p,
            l_pm_predicted=l_pm_p,
            sampled_sources=sampled,
        ))
    return rows


# -- subcommands -----------------------------------------------------------------


def cmd_stats(cfg: RunConfig) -> int:
    g = _load_dataset(cfg)
    order = reorder_hits_buffs(g)
    # the ranks are by degree, so the degrees in rank order are a descending sort
    buff_degrees = np.sort(g.person_degrees())[::-1].tolist()
    hit_degrees = np.sort(g.movie_degrees())[::-1].tolist()
    print(f"people: {g.n_people}")
    print(f"movies: {g.n_movies}")
    print(f"edges: {g.edge_count}")
    print(f"duplicate rows: {g.duplicate_count}")
    print(f"sparsity: {100 * sparsity(g):.4f}%")
    print(f"connected: {'yes' if is_connected_bipartite(g) else 'no'}")
    for rank, (person, degree) in enumerate(zip(order.buff_rank[:10], buff_degrees), 1):
        print(f"buff {rank}: person {person} ({degree} ratings)")
    for rank, (movie, degree) in enumerate(zip(order.hit_rank[:10], hit_degrees), 1):
        print(f"hit {rank}: movie {movie} ({degree} ratings)")
    try:
        fit = fit_power_law(buff_degrees)
    except FitError as exc:
        print(f"buff power law: undefined ({exc})")
    else:
        print(f"buff power law: alpha={csv_float(fit.alpha)} tau={csv_float(fit.tau)} "
              f"residual={csv_float(fit.residual)}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    g = _load_dataset(cfg)
    rows = sweep_rows(g, cfg.w_min, cfg.w_max, cfg.max_sources, cfg.seed)
    for row in rows:
        # predictions come from the giant's degrees, so they degrade where it is thin
        coverage = (row.giant_people + row.giant_movies) / (g.n_people + g.n_movies)
        if coverage < 0.9 and (row.l_pp_predicted is not None or row.l_r_predicted is not None):
            print(f"w={row.w}: giant component covers {100 * coverage:.1f}% of vertices; "
                  "predictions degrade outside the giant", file=sys.stderr)
    _write_csv(Path(cfg.out) / "sweep.csv", [f.name for f in fields(SweepRow)],
               [astuple(row) for row in rows])
    return 0


def cmd_synth_study(cfg: RunConfig) -> int:
    lengths = [f.name for f in fields(SweepRow) if f.name.startswith("l_")]
    study_rows = []
    linf_rows = []
    widths = range(cfg.w_min, cfg.w_max + 1)
    for kappa in range(cfg.kappa_min, cfg.kappa_max + 1):
        try:
            eps = calibrate_epsilon(kappa, cfg.n_people, cfg.n_movies)
        except ValueError as exc:
            print(f"warning: kappa={kappa} skipped: {exc}", file=sys.stderr)
            linf_rows.append((kappa, None, None))
            continue
        per_w = {w: {name: [] for name in lengths} for w in widths}
        for trial in range(cfg.trials):
            synth_cfg = SynthConfig(
                n_people=cfg.n_people, n_movies=cfg.n_movies, epsilon=eps,
                seed=f"{cfg.seed}:{kappa}:{trial}",
            )
            g, _ = generate_power_law_bipartite(synth_cfg)
            rows = sweep_rows(g, cfg.w_min, cfg.w_max, cfg.max_sources, cfg.seed)
            for row in rows:
                for name in lengths:
                    value = getattr(row, name)
                    if value is not None:
                        per_w[row.w][name].append(value)
        measured_avg = []
        predicted_avg = []
        for w in widths:
            bucket = per_w[w]
            averages = {
                name: (sum(vals) / len(vals) if vals else None)
                for name, vals in bucket.items()
            }
            measured_avg.append(averages["l_pp_measured"])
            predicted_avg.append(averages["l_pp_predicted"])
            study_rows.append((kappa, eps, w, *(averages[name] for name in lengths),
                               len(bucket["l_pp_measured"])))
        try:
            linf = linf_discrepancy(measured_avg, predicted_avg)
        except UndefinedMetricError:
            linf = None
        linf_rows.append((kappa, eps, linf))
    out = Path(cfg.out)
    _write_csv(out / "synth_study.csv", ["kappa", "epsilon", "w", *lengths, "defined_trials"],
               study_rows)
    _write_csv(out / "synth_linf.csv", ["kappa", "epsilon", "linf_l_pp"], linf_rows)
    return 0


def cmd_ws(cfg: RunConfig) -> int:
    modes = REWIRE_MODES if cfg.mode == "both" else (cfg.mode,)
    rows = []
    for mode in modes:
        try:
            wreath_cfg = WreathConfig(n=cfg.n, k=cfg.k, seed=cfg.seed, mode=mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for point in small_world_curve(wreath_cfg, cfg.p_values, cfg.trials):
            rows.append((point.p, point.l_ratio, point.c_ratio, mode))
    _write_csv(Path(cfg.out) / "ws.csv", ["p", "l_ratio", "c_ratio", "mode"], rows)
    return 0


def cmd_cdf(cfg: RunConfig) -> int:
    g = _load_dataset(cfg)
    header = ["degree", "log10_count" if cfg.log_scale else "count"]
    for w, gs in hammock_graphs(g, cfg.w_min, cfg.w_max):
        try:
            dist = degree_distribution(gs, largest_only=cfg.largest_only)
        except UndefinedMetricError:
            continue
        _write_csv(Path(cfg.out) / f"cdf_w{w:02d}.csv", header,
                   degree_cdf(dist, log_scale=cfg.log_scale))
    return 0


COMMANDS = {
    "stats": cmd_stats,
    "sweep": cmd_sweep,
    "synth-study": cmd_synth_study,
    "ws": cmd_ws,
    "cdf": cmd_cdf,
}


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recgraph",
        description="Connectivity analysis of rating datasets under parameterized jumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dataset=False):
        p.add_argument("--config", help="flat key=value config file; flags win")
        p.add_argument("--out", help="output directory for CSV files (default .)")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        if dataset:
            p.add_argument("--input", help="path to the ratings file")
            p.add_argument("--format", choices=sorted(FORMATS),
                           help="input format (default movielens)")

    p = sub.add_parser("stats", help="dataset shape, hits/buffs, power-law fit")
    add_common(p, dataset=True)

    p = sub.add_parser("sweep", help="hammock-width sweep with measured and predicted lengths")
    add_common(p, dataset=True)
    p.add_argument("--w-min", dest="w_min", type=int, help="first hammock width (default 1)")
    p.add_argument("--w-max", dest="w_max", type=int, help="last hammock width (default 30)")
    p.add_argument("--max-sources", dest="max_sources", type=int,
                   help="BFS source cap before sampling kicks in")

    p = sub.add_parser("synth-study", help="synthetic datasets across a kappa range")
    add_common(p)
    p.add_argument("--kappa-min", dest="kappa_min", type=int, help="first kappa (default 1)")
    p.add_argument("--kappa-max", dest="kappa_max", type=int, help="last kappa (default 15)")
    p.add_argument("--w-min", dest="w_min", type=int, help="first hammock width (default 1)")
    p.add_argument("--w-max", dest="w_max", type=int, help="last hammock width (default 30)")
    p.add_argument("--trials", type=int, help="datasets per kappa (default 1)")
    p.add_argument("--n-people", dest="n_people", type=int, help="people per dataset (default 500)")
    p.add_argument("--n-movies", dest="n_movies", type=int, help="movies per dataset (default 75)")
    p.add_argument("--max-sources", dest="max_sources", type=int,
                   help="BFS source cap before sampling kicks in")

    p = sub.add_parser("ws", help="ring-lattice rewiring curves (scaled L and C)")
    add_common(p)
    p.add_argument("--n", type=int, help="lattice size (default 1000)")
    p.add_argument("--k", type=int, help="lattice degree, even (default 10)")
    p.add_argument("--p-values", dest="p_values", type=_parse_p_values,
                   help="comma-separated rewiring probabilities")
    p.add_argument("--trials", type=int, help="rewired lattices per p (default 1)")
    p.add_argument("--mode", choices=REWIRE_MODES + ("both",),
                   help="rewiring target rule (default uniform)")

    p = sub.add_parser("cdf", help="complementary degree CDFs per hammock width")
    add_common(p, dataset=True)
    p.add_argument("--w-min", dest="w_min", type=int, help="first hammock width (default 1)")
    p.add_argument("--w-max", dest="w_max", type=int, help="last hammock width (default 30)")
    p.add_argument("--log", dest="log_scale", action="store_const", const=True,
                   help="emit log10 counts")
    p.add_argument("--largest-only", dest="largest_only", action="store_const", const=True,
                   help="restrict to the giant component")
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        cfg = resolve_config(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
