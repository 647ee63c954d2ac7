"""Command-line toolkit around the library.

Subcommands: ``stats`` (dataset report), ``sweep`` (hammock-width sweep with
measured and predicted path lengths), ``synth-study`` (synthetic datasets
across a kappa range), ``ws`` (ring-lattice rewiring curves), and ``cdf``
(complementary degree CDFs per width).

Every produced CSV is a pure function of (input, configuration, seed):
comma-separated, header row, LF line endings, UTF-8, lengths at 6
significant digits, counts as plain integers.  Exit codes: 0 success,
1 input error (missing/malformed/empty dataset), 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .dataset import (
    GENERIC_CSV,
    MOVIELENS_TAB,
    fit_power_law,
    is_connected_bipartite,
    load_ratings,
    reorder_hits_buffs,
    sparsity,
)
from .errors import (
    ConfigError,
    DegenerateModelError,
    InvalidDistributionError,
    RecgraphError,
    UndefinedMetricError,
)
from .jumps import JumpSpec, RecommenderGraph, apply_jump, co_rating_pairs
from .metrics import (
    connected_components,
    csv_float,
    degree_cdf,
    degree_cdf_csv,
    degree_distribution,
    joint_degree_distribution,
    linf_discrepancy,
    measure_l_pp,
    measure_l_r_l_pm,
)
from .nsw import DirectedModelInput, UndirectedModelInput, predict_l_pm, predict_l_pp, predict_l_r
from .synth import (
    REWIRE_MODES,
    SynthConfig,
    WreathConfig,
    calibrate_epsilon,
    generate_power_law_bipartite,
    small_world_curve,
)

FORMAT_ALIASES = {"movielens": MOVIELENS_TAB, "csv": GENERIC_CSV}

DEFAULTS = {
    "format": "movielens",
    "w_min": 1,
    "w_max": 30,
    "kappa_min": 1,
    "kappa_max": 15,
    "trials": 1,
    "seed": 0,
    "max_sources": None,
    "out": ".",
    "log_scale": False,
    "largest_only": False,
    "n": 1000,
    "k": 10,
    "p_values": (0.0, 0.0001, 0.001, 0.01, 0.1, 1.0),
    "mode": "uniform",
    "n_people": 500,
    "n_movies": 75,
}


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
    p_values: tuple = DEFAULTS["p_values"]
    mode: str = "uniform"
    n_people: int = 500
    n_movies: int = 75


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
    sampled_sources: str  # "all" or the sampled source count


# -- configuration plumbing ---------------------------------------------------


def _parse_config_value(key, raw):
    if key in ("w_min", "w_max", "kappa_min", "kappa_max", "trials", "seed",
               "max_sources", "n", "k", "n_people", "n_movies"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key} needs an integer, got {raw!r}") from None
    if key in ("log_scale", "largest_only"):
        low = raw.strip().lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"config key {key} needs a boolean, got {raw!r}")
    if key == "p_values":
        return _parse_p_values(raw)
    return raw


def load_config_file(path) -> dict:
    """Parse a flat key=value config file; '#' starts a comment line."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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
    merged = {}
    fields = set(DEFAULTS) | {"input"}
    for key in fields:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in file_values:
            merged[key] = file_values[key]
        else:
            merged[key] = DEFAULTS.get(key)
    if isinstance(merged.get("p_values"), str):
        merged["p_values"] = _parse_p_values(merged["p_values"])
    cfg = RunConfig(command=args.command, **merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.format not in FORMAT_ALIASES:
        raise ConfigError(f"format must be one of {sorted(FORMAT_ALIASES)}, got {cfg.format!r}")
    if cfg.w_min < 1 or cfg.w_max < cfg.w_min:
        raise ConfigError(f"need 1 <= w_min <= w_max, got [{cfg.w_min}, {cfg.w_max}]")
    if cfg.kappa_min < 1 or cfg.kappa_max < cfg.kappa_min:
        raise ConfigError(f"need 1 <= kappa_min <= kappa_max, got [{cfg.kappa_min}, {cfg.kappa_max}]")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.max_sources is not None and cfg.max_sources < 1:
        raise ConfigError("max sources must be at least 1")
    if cfg.mode not in REWIRE_MODES + ("both",):
        raise ConfigError(f"mode must be uniform, preferential, or both; got {cfg.mode!r}")
    if any(p < 0 or p > 1 for p in cfg.p_values):
        raise ConfigError("p values must lie in [0, 1]")


def _load_dataset(cfg: RunConfig):
    if not cfg.input:
        raise ConfigError(f"{cfg.command} needs --input")
    return load_ratings(cfg.input, FORMAT_ALIASES[cfg.format])


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- sweep core (shared with tests) --------------------------------------------


def sweep_rows(g, w_min, w_max, max_sources=None, seed=0, warn=None):
    """Measure and predict across hammock widths; one SweepRow per width.

    Measured l_pp comes from the social graph's giant component; l_r and
    l_pm follow arcs in the recommender graph.  Movies are sinks there, so
    person-to-person distances in G_r are the social distances, and one
    distance pass gives all three whenever both giants hold the same people.
    Predictions use the giant component's degree distributions; degenerate
    models leave their columns empty.  ``warn`` (a callable) hears about
    widths where the giant covers under 90% of the vertices, where
    predictions degrade.
    """
    pairs = co_rating_pairs(g)
    total_vertices = g.n_people + g.n_movies
    rows = []
    for w in range(w_min, w_max + 1):
        gs = apply_jump(g, JumpSpec.hammock(w), pairs)
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
            dist = degree_distribution(gs, largest_only=True)
            if dist.n >= 2:
                l_pp_p = predict_l_pp(UndirectedModelInput(dist, dist.n))
        except (DegenerateModelError, InvalidDistributionError, UndefinedMetricError):
            pass
        try:
            if n_gp >= 1 and n_gp + n_gm >= 2:
                joint = joint_degree_distribution(gr, largest_only=True)
                l_r_p = predict_l_r(DirectedModelInput(joint, n_gp, n_gm))
        except (DegenerateModelError, InvalidDistributionError, UndefinedMetricError):
            pass
        if l_r_p is not None and l_pp_p is not None and n_gm >= 1 and n_gp >= 2:
            l_pm_p = predict_l_pm(l_r_p, l_pp_p, n_gp, n_gm)

        if warn is not None and (l_pp_p is not None or l_r_p is not None):
            coverage = (n_gp + n_gm) / total_vertices if total_vertices else 0.0
            if coverage < 0.9:
                warn(f"w={w}: giant component covers {100 * coverage:.1f}% of vertices; "
                     "predictions degrade outside the giant")

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


SWEEP_HEADER = ("w,components,giant_people,giant_movies,isolated_people,"
                "l_pp_measured,l_r_measured,l_pm_measured,"
                "l_pp_predicted,l_r_predicted,l_pm_predicted,sampled_sources")


def sweep_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.w), str(r.components), str(r.giant_people), str(r.giant_movies),
            str(r.isolated_people),
            csv_float(r.l_pp_measured), csv_float(r.l_r_measured), csv_float(r.l_pm_measured),
            csv_float(r.l_pp_predicted), csv_float(r.l_r_predicted), csv_float(r.l_pm_predicted),
            r.sampled_sources,
        ]))
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------------


def cmd_stats(cfg: RunConfig) -> int:
    g = _load_dataset(cfg)
    order = reorder_hits_buffs(g)
    pdeg = {int(p): int(d) for p, d in zip(g.people, g.person_degrees())}
    mdeg = {int(m): int(d) for m, d in zip(g.movies, g.movie_degrees())}
    print(f"people: {g.n_people}")
    print(f"movies: {g.n_movies}")
    print(f"edges: {g.edge_count}")
    print(f"duplicate rows: {g.duplicate_count}")
    print(f"sparsity: {100 * sparsity(g):.4f}%")
    print(f"connected: {'yes' if is_connected_bipartite(g) else 'no'}")
    for rank, person in enumerate(order.buff_rank[:10], 1):
        print(f"buff {rank}: person {person} ({pdeg[person]} ratings)")
    for rank, movie in enumerate(order.hit_rank[:10], 1):
        print(f"hit {rank}: movie {movie} ({mdeg[movie]} ratings)")
    degrees = [pdeg[p] for p in order.buff_rank]
    fit = fit_power_law(degrees)
    print(f"buff power law: alpha={csv_float(fit.alpha)} tau={csv_float(fit.tau)} "
          f"residual={csv_float(fit.residual)}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    g = _load_dataset(cfg)
    rows = sweep_rows(g, cfg.w_min, cfg.w_max, cfg.max_sources, cfg.seed,
                      warn=lambda msg: print(msg, file=sys.stderr))
    path = _out_dir(cfg) / "sweep.csv"
    _write_text(path, sweep_csv(rows))
    print(f"wrote {path}")
    return 0


def cmd_synth_study(cfg: RunConfig) -> int:
    metric_names = ("l_pp_measured", "l_r_measured", "l_pm_measured",
                    "l_pp_predicted", "l_r_predicted", "l_pm_predicted")
    study_lines = ["kappa,epsilon,w," + ",".join(metric_names) + ",defined_trials"]
    linf_lines = ["kappa,epsilon,linf_l_pp"]
    widths = range(cfg.w_min, cfg.w_max + 1)
    for kappa in range(cfg.kappa_min, cfg.kappa_max + 1):
        try:
            eps = calibrate_epsilon(kappa, cfg.n_people, cfg.n_movies)
        except ValueError as exc:
            print(f"warning: kappa={kappa} skipped: {exc}", file=sys.stderr)
            linf_lines.append(f"{kappa},,")
            continue
        per_w = {w: {name: [] for name in metric_names} for w in widths}
        for trial in range(cfg.trials):
            synth_cfg = SynthConfig(
                n_people=cfg.n_people, n_movies=cfg.n_movies, epsilon=eps,
                seed=f"{cfg.seed}:{kappa}:{trial}",
            )
            g = generate_power_law_bipartite(synth_cfg)
            rows = sweep_rows(g, cfg.w_min, cfg.w_max, cfg.max_sources, cfg.seed)
            for row in rows:
                for name in metric_names:
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
            study_lines.append(",".join(
                [str(kappa), csv_float(eps), str(w)]
                + [csv_float(averages[name]) for name in metric_names]
                + [str(len(bucket["l_pp_measured"]))]
            ))
        try:
            linf = linf_discrepancy(measured_avg, predicted_avg)
        except UndefinedMetricError:
            linf = None
        linf_lines.append(f"{kappa},{csv_float(eps)},{csv_float(linf)}")
    out = _out_dir(cfg)
    _write_text(out / "synth_study.csv", "\n".join(study_lines) + "\n")
    _write_text(out / "synth_linf.csv", "\n".join(linf_lines) + "\n")
    print(f"wrote {out / 'synth_study.csv'}")
    print(f"wrote {out / 'synth_linf.csv'}")
    return 0


def cmd_ws(cfg: RunConfig) -> int:
    modes = REWIRE_MODES if cfg.mode == "both" else (cfg.mode,)
    lines = ["p,l_ratio,c_ratio,mode"]
    for mode in modes:
        try:
            wreath_cfg = WreathConfig(n=cfg.n, k=cfg.k, seed=cfg.seed, mode=mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for point in small_world_curve(wreath_cfg, cfg.p_values, cfg.trials):
            lines.append(f"{csv_float(point.p)},{csv_float(point.l_ratio)},"
                         f"{csv_float(point.c_ratio)},{mode}")
    path = _out_dir(cfg) / "ws.csv"
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_cdf(cfg: RunConfig) -> int:
    g = _load_dataset(cfg)
    pairs = co_rating_pairs(g)
    out = _out_dir(cfg)
    for w in range(cfg.w_min, cfg.w_max + 1):
        gs = apply_jump(g, JumpSpec.hammock(w), pairs)
        try:
            dist = degree_distribution(gs, largest_only=cfg.largest_only)
        except UndefinedMetricError:
            continue
        entries = degree_cdf(dist, log_scale=cfg.log_scale)
        path = out / f"cdf_w{w:02d}.csv"
        _write_text(path, degree_cdf_csv(entries, log_scale=cfg.log_scale))
        print(f"wrote {path}")
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
            p.add_argument("--format", choices=sorted(FORMAT_ALIASES),
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
