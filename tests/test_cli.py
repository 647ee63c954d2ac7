import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import recgraph.cli
from recgraph import (
    RecommenderGraph,
    SynthConfig,
    dataset,
    edges,
    generate_power_law_bipartite,
    jumps,
    load_ratings,
    metrics,
)
from recgraph.dataset import BipartiteRatings
from recgraph.cli import (
    DEFAULTS,
    RunConfig,
    _write_csv,
    csv_float,
    load_config_file,
    main,
    resolve_config,
    sweep_rows,
)

from oracles import (
    floyd_warshall,
    hammock_edges_bruteforce,
    load_movielens_tab_oracle,
    mean_over_pairs,
    write_movielens_tab,
)


def write_tab(path, rows):
    path.write_text("".join(f"{p}\t{m}\t3\t0\n" for p, m in rows), encoding="utf-8")


def synth_file(tmp_path, **kwargs):
    cfg = SynthConfig(**{"n_people": 30, "n_movies": 12, "epsilon": 0.5,
                         "seed": 4, **kwargs})
    g, _ = generate_power_law_bipartite(cfg)
    path = tmp_path / "ratings.tsv"
    write_movielens_tab(g, path)
    return g, path


# -- stats -------------------------------------------------------------------------


def test_stats_reports_shape_and_rankings(tmp_path, capsys):
    g, path = synth_file(tmp_path)
    assert main(["stats", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "people: 30\n" in out
    assert "movies: 12\n" in out
    assert f"edges: {g.edge_count}\n" in out
    assert "duplicate rows: 0\n" in out
    assert "connected: yes\n" in out
    assert "buff 1: person 1 (12 ratings)\n" in out
    assert "hit 1: movie" in out
    assert "buff power law: alpha=" in out


def test_stats_fit_undefined_below_three_people(tmp_path, capsys):
    path = tmp_path / "two.tsv"
    write_tab(path, [(1, 1), (1, 2), (2, 1)])
    assert main(["stats", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("buff power law: undefined (need at least 3 counts for a fit)\n")
    assert captured.err == ""


def test_stats_counts_duplicates(tmp_path, capsys):
    path = tmp_path / "dups.tsv"
    write_tab(path, [(1, 1), (1, 2), (2, 1), (3, 2), (1, 1)])
    assert main(["stats", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "edges: 4\n" in out
    assert "duplicate rows: 1\n" in out
    assert "sparsity: 33.3333%\n" in out


# -- sweep -------------------------------------------------------------------------


def test_sweep_writes_byte_identical_csv(tmp_path, capsys):
    _, path = synth_file(tmp_path)
    for name in ("a", "b"):
        rc = main(["sweep", "--input", str(path), "--w-min", "1", "--w-max", "4",
                   "--out", str(tmp_path / name)])
        assert rc == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "sweep.csv").read_bytes()
    second = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert first == second
    lines = first.decode("utf-8").splitlines()
    assert lines[0] == ("w,components,giant_people,giant_movies,isolated_people,"
                        "l_pp_measured,l_r_measured,l_pm_measured,"
                        "l_pp_predicted,l_r_predicted,l_pm_predicted,sampled_sources")
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4"]


def test_sweep_two_person_toy(tmp_path, capsys):
    path = tmp_path / "toy.tsv"
    write_tab(path, [(1, 7), (2, 7)])
    assert main(["sweep", "--input", str(path), "--w-min", "1", "--w-max", "2",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    w1 = lines[1].split(",")
    w2 = lines[2].split(",")
    assert w1[1] == "1" and w2[1] == "2"  # width 2 splits the only pair
    assert w1[5] == "1" and w2[5] == ""  # mean length defined only at width 1


def test_sweep_warns_on_thin_giant_coverage(tmp_path, capsys):
    # star over persons 1..5 (two shared movies per spoke) plus fifteen
    # lone raters: the giant holds 13 of 43 vertices once widths reach 2
    rows = []
    for j in range(2, 6):
        rows += [(1, 10 * j), (j, 10 * j), (1, 10 * j + 1), (j, 10 * j + 1)]
    rows += [(100 + i, 900 + i) for i in range(15)]
    path = tmp_path / "star.tsv"
    write_tab(path, rows)
    assert main(["sweep", "--input", str(path), "--w-min", "1", "--w-max", "2",
                 "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.count("covers") == 2
    assert "predictions degrade outside the giant" in err


def test_sweep_l_pp_follows_social_giant_when_giants_differ():
    # at w=2 a path of people, neighbours co-rating two movies, sits beside a
    # triangle whose first person's extra movies make it the recommender
    # giant.  A path of 3 ties the triangle on people and is the social giant
    # by its smaller ids; a path of 6 is it by size, and with max_sources=5
    # its pass samples sources 1, 3, 4, 5, 6 (59 hops over 25 pairs) while
    # the triangle's runs from all 3.  Both passes sample the same count, so
    # the column reads it when either sampled.
    for path, extra, max_sources, l_pp, sampled in [(3, 10, None, 4 / 3, "all"),
                                                    (6, 20, 5, 59 / 25, "5")]:
        rows = [(q, m) for p in range(1, path) for q in (p, p + 1) for m in (2 * p - 1, 2 * p)]
        rows += [(p, m) for p in range(path + 1, path + 4) for m in (100, 101)]
        rows += [(path + 1, m) for m in range(200, 200 + extra)]
        (row,) = sweep_rows(BipartiteRatings(rows), 2, 2, max_sources)
        assert row.giant_people == 3
        assert row.giant_movies == 2 + extra
        assert row.l_pp_measured == l_pp  # path distances, not the triangle's 1.0
        assert row.sampled_sources == sampled


def test_sweep_leaves_l_pp_empty_when_the_social_giant_is_one_person():
    # at w=1 nobody shares a movie, so every person is isolated: the social
    # giant is person 1 alone, and l_pp is undefined there, while the
    # recommender giant is person 3 with its four movies, one hop each
    (row,) = sweep_rows(BipartiteRatings([(1, 10), (2, 20), (3, 30), (3, 31), (3, 32), (3, 33)]),
                        1, 1)
    assert (row.giant_people, row.giant_movies, row.isolated_people) == (1, 4, 3)
    assert row.l_pp_measured is None
    assert row.l_r_measured == row.l_pm_measured == 1
    assert row.sampled_sources == "all"


def test_sweep_analyses_each_width_once(tmp_path, capsys, monkeypatch):
    calls = {"components": 0, "distances": 0, "rows": 0, "tables": 0, "raters": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "component_labels",
                        counted("components", metrics.component_labels))
    monkeypatch.setattr(metrics, "_bfs_levels", counted("distances", metrics._bfs_levels))
    # a width's social rows are cut from the sweep's one arc table, and G_r's
    # arcs are never listed, so no CSR is built per width
    rows = counted("rows", edges.csr)
    monkeypatch.setattr(edges, "csr", rows)
    monkeypatch.setattr(jumps, "csr", rows)
    monkeypatch.setattr(dataset, "csr", counted("raters", dataset.csr))
    monkeypatch.setattr(jumps, "co_rating_pairs", counted("tables", jumps.co_rating_pairs))

    def no_out_csr(self):
        raise AssertionError("sweep_rows listed G_r's arcs")

    monkeypatch.setattr(RecommenderGraph, "out_csr", no_out_csr)
    g, _ = generate_power_law_bipartite(SynthConfig(n_people=30, n_movies=12, epsilon=0.5, seed=4))
    for w in (1, 2, 3):
        calls.update(components=0, distances=0, rows=0)
        (row,) = sweep_rows(g, w, w)
        assert row.components == 1
        assert calls["components"] == 1
        assert calls["distances"] == 1
        assert calls["rows"] == 0
    # the arc table is counted once per sweep, and each movie's raters are
    # listed once per dataset, not once per width
    g, _ = generate_power_law_bipartite(SynthConfig(n_people=30, n_movies=12, epsilon=0.5, seed=5))
    calls.update(tables=0, rows=0, raters=0, distances=0)
    assert len(sweep_rows(g, 1, 3)) == 3
    assert calls["tables"] == 1 and calls["rows"] == 0
    assert calls["distances"] == 3 and calls["raters"] == 1
    # cdf counts its arc table once per run too
    path = tmp_path / "ratings.tsv"
    write_movielens_tab(g, path)
    calls.update(tables=0)
    assert main(["cdf", "--input", str(path), "--w-min", "1", "--w-max", "3",
                 "--out", str(tmp_path / "cdf")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert calls["tables"] == 1


def write_weighted_path(path, shared):
    """People 1, 2, ... in a row; neighbours i and i + 1 co-rate shared[i - 1] movies."""
    rows = []
    movie = 0
    for person, count in enumerate(shared, 1):
        for _ in range(count):
            movie += 1
            rows += [(person, movie), (person + 1, movie)]
    write_tab(path, rows)


def oracle_giant_and_l_pp(g, w, max_sources):
    """The social giant at width w and its mean distance from the sources
    ``_pick_sources`` takes, by brute-force hammock and Floyd-Warshall."""
    people = g.people.tolist()
    index = {p: i for i, p in enumerate(people)}
    arcs = [(index[u], index[v]) for u, v in hammock_edges_bruteforce(g, w)]
    dist = floyd_warshall(len(people), arcs, directed=False)
    groups = {tuple(np.flatnonzero(np.isfinite(row)).tolist()) for row in dist}
    giant = [people[i] for i in min(groups, key=lambda grp: (-len(grp), grp[0]))]
    sources, _ = metrics._pick_sources(giant, max_sources, 0)
    l_pp, _ = mean_over_pairs(dist, [index[p] for p in sources], range(len(people)))
    return giant, l_pp


def test_sweep_samples_sources_of_a_giant_past_the_cap(tmp_path, capsys, monkeypatch):
    # neighbours on a path of ten people co-rate 3, 3, 2, 3, 3, 3, 1, 3, 3
    # movies, so the giant holds 10, 7, 4 and 1 people at widths 1 to 4
    path = tmp_path / "path.tsv"
    write_weighted_path(path, [3, 3, 2, 3, 3, 3, 1, 3, 3])
    loaded = load_movielens_tab_oracle(path)
    g = BipartiteRatings(loaded.edges, people=loaded.people, movies=loaded.movies)

    def sweep(out, *flags):
        assert main(["sweep", "--input", str(path), "--w-min", "1", "--w-max", "4",
                     "--out", str(out), *flags]) == 0
        capsys.readouterr()
        return (out / "sweep.csv").read_bytes()

    def assert_sampled(csv_bytes, max_sources, count):
        lines = csv_bytes.decode("utf-8").splitlines()
        header = lines[0].split(",")
        sizes = []
        for w, line in enumerate(lines[1:], 1):
            row = dict(zip(header, line.split(",")))
            giant, l_pp = oracle_giant_and_l_pp(g, w, max_sources)
            sizes.append(len(giant))
            assert row["giant_people"] == str(len(giant))
            assert row["sampled_sources"] == (count if len(giant) > 5 else "all")
            assert row["l_pp_measured"] == csv_float(l_pp)
        assert sizes == [10, 7, 4, 1]

    capped = sweep(tmp_path / "a", "--max-sources", "5")
    assert sweep(tmp_path / "b", "--max-sources", "5") == capped
    assert_sampled(capped, 5, "5")
    # pinned: another draw from the same seed would move every sampled CSV
    assert metrics._pick_sources(range(1, 11), 5, 0) == ([1, 6, 7, 8, 9], True)
    # the default policy: exact through EXACT_SOURCE_LIMIT people, then a sample
    monkeypatch.setattr(metrics, "EXACT_SOURCE_LIMIT", 5)
    monkeypatch.setattr(metrics, "DEFAULT_SAMPLED_SOURCES", 3)
    assert_sampled(sweep(tmp_path / "c"), None, "3")


# -- offline stand-in, end to end -------------------------------------------------


def write_standin_tab(path, seed=0, n_people=300, n_movies=400):
    """A shuffled MovieLens-shaped rating file with a few file-format quirks.

    Person degrees are at least 20 with a lognormal tail, and movie
    popularity is Zipf-like.  One row repeats an earlier (person, movie)
    with another rating, one line ends in CRLF and one line is blank.  The
    numbers it yields are stand-in values, not the paper's MovieLens values.
    """
    rng = np.random.default_rng(seed)
    popularity = 1.0 / (np.arange(n_movies) + 10.0)
    popularity /= popularity.sum()
    rows = []
    for person in range(1, n_people + 1):
        degree = min(n_movies, 20 + int(rng.lognormal(2.5, 0.8)))
        movies = rng.choice(n_movies, size=degree, replace=False, p=popularity) + 1
        rows += [(person, int(movie)) for movie in movies]
    lines = [f"{p}\t{m}\t{rng.integers(1, 6)}\t{rng.integers(874724710, 893286638)}\n"
             for p, m in (rows[i] for i in rng.permutation(len(rows)))]
    person, movie = lines[0].split("\t")[:2]
    lines.insert(40, f"{person}\t{movie}\t1\t893286638\n")
    lines[7] = lines[7].replace("\n", "\r\n")
    lines.insert(11, "\n")
    path.write_bytes("".join(lines).encode("utf-8"))


def test_standin_sweep_and_stats_match_oracle_loaded_graph(tmp_path, capsys, monkeypatch):
    path = tmp_path / "standin.tsv"
    write_standin_tab(path)
    loaded = load_movielens_tab_oracle(path)
    assert loaded.duplicate_count == 1
    oracle_graph = BipartiteRatings(loaded.edges, people=loaded.people, movies=loaded.movies)
    # built from deduplicated edges, so it takes the oracle's count of collapsed rows
    oracle_graph.duplicate_count = loaded.duplicate_count

    def sweep(out):
        assert main(["sweep", "--input", str(path), "--w-min", "1", "--w-max", "12",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        return (out / "sweep.csv").read_bytes()

    swept = sweep(tmp_path / "loaded")
    assert main(["stats", "--input", str(path)]) == 0
    stats_out = capsys.readouterr().out

    monkeypatch.setattr(recgraph.cli, "load_ratings", lambda *args: oracle_graph)
    assert sweep(tmp_path / "oracle") == swept
    assert main(["stats", "--input", str(path)]) == 0
    assert capsys.readouterr().out == stats_out
    assert "duplicate rows: 1\n" in stats_out
    assert f"people: {len(loaded.people)}\n" in stats_out


def test_sweep_peak_memory_per_arc(standin):
    # sweep_rows(g, 17, 18) on the benchmark's stand-in peaks at 17.4 bytes
    # per width-1 arc (tracemalloc, numpy 2.4), as the sweep counts width 17's
    # arcs and never holds the width-1 table; building the width-1 table and
    # cutting width 17 from it read 29.0, holding that table for the whole
    # sweep 32.8, and a per-width CSR sort over the arcs 39.2
    g = load_ratings(standin)
    arcs = len(jumps.co_rating_pairs(g)[0])
    assert arcs == 883_614
    tracemalloc.start()
    try:
        rows = sweep_rows(g, 17, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.w for row in rows] == [17, 18]
    assert peak <= 20 * arcs


# -- CSV format --------------------------------------------------------------------


def test_csv_float():
    assert csv_float(None) == ""
    assert csv_float(2) == "2"
    assert csv_float(np.int64(123456789)) == "123456789"
    assert csv_float(1.234567890) == "1.23457"
    assert csv_float(2.0) == "2"


def test_write_csv_bytes(tmp_path, capsys):
    path = tmp_path / "new" / "t.csv"
    _write_csv(path, ["mode", "count", "length", "ratio"],
               [("uniform", 1234567, 1.234567890, None), ("a b", np.int64(7), 2.0, 1e-7)])
    assert path.read_bytes() == (b"mode,count,length,ratio\n"
                                 b"uniform,1234567,1.23457,\n"
                                 b"a b,7,2,1e-07\n")
    assert capsys.readouterr().out == f"wrote {path}\n"
    # the path 1-2-3: two people of degree 1 and one of degree 2
    toy = tmp_path / "toy.tsv"
    write_tab(toy, [(1, 7), (2, 7), (2, 8), (3, 8)])
    for flags, text in (([], b"degree,count\n1,3\n2,1\n"),
                        (["--log"], b"degree,log10_count\n1,0.477121\n2,0\n")):
        out = tmp_path / f"cdf{len(flags)}"
        assert main(["cdf", "--input", str(toy), "--w-min", "1", "--w-max", "1",
                     "--out", str(out), *flags]) == 0
        assert capsys.readouterr().out == f"wrote {out / 'cdf_w01.csv'}\n"
        assert (out / "cdf_w01.csv").read_bytes() == text


# -- config handling ---------------------------------------------------------------


def test_config_file_sets_defaults_and_flags_win(tmp_path, capsys):
    _, path = synth_file(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# sweep window\nw_min = 2\nw_max = 3\n", encoding="utf-8")
    assert main(["sweep", "--input", str(path), "--config", str(cfg_file),
                 "--out", str(tmp_path / "c1")]) == 0
    assert main(["sweep", "--input", str(path), "--config", str(cfg_file),
                 "--w-max", "2", "--out", str(tmp_path / "c2")]) == 0
    capsys.readouterr()
    c1 = (tmp_path / "c1" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    c2 = (tmp_path / "c2" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert [r.split(",")[0] for r in c1[1:]] == ["2", "3"]
    assert [r.split(",")[0] for r in c2[1:]] == ["2"]


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed=9\np_values=0,0.5\n\n# comment\nmode=preferential\n",
                        encoding="utf-8")
    values = load_config_file(str(cfg_file))
    assert values["seed"] == 9
    assert values["p_values"] == (0.0, 0.5)
    assert values["mode"] == "preferential"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    _, path = synth_file(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus=1\n", encoding="utf-8")
    rc = main(["sweep", "--input", str(path), "--config", str(cfg_file)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_format_exits_2(tmp_path, capsys):
    _, path = synth_file(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("format = movielens_tab\n", encoding="utf-8")
    rc = main(["sweep", "--input", str(path), "--config", str(cfg_file)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: format must be one of ['csv', 'movielens'], got 'movielens_tab'\n")
    assert main(["sweep", "--input", str(path), "--format", "tab"]) == 2
    assert "argument --format: invalid choice: 'tab'" in capsys.readouterr().err


def test_config_file_sets_boolean_none_and_typed_keys(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("largest_only = yes\nmax_sources = 40\nn_people = 60\n"
                        "p_values = 0, 0.5\nmode = both\n", encoding="utf-8")
    cfg = resolve_config(main_args(["ws", "--config", str(cfg_file)]))
    assert cfg == RunConfig(command="ws", largest_only=True, max_sources=40, n_people=60,
                            p_values=(0.0, 0.5), mode="both")
    cfg_file.write_text("largest_only = no\n", encoding="utf-8")
    assert load_config_file(str(cfg_file)) == {"largest_only": False}
    for bad, kind in (("largest_only = maybe", "a boolean"), ("max_sources = all", "an integer")):
        cfg_file.write_text(bad + "\n", encoding="utf-8")
        assert main(["ws", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        assert f"needs {kind}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, message", [
    pytest.param(["ws", "--config", "absent.cfg"], None,
                 "error: cannot read config file: ", id="unreadable_config"),
    pytest.param(["ws", "--config", "run.cfg"], b"seed = 1\n\xff = 2\n",
                 "error: cannot read config file: 'utf-8' codec can't decode byte 0xff",
                 id="config_not_utf8"),
    pytest.param(["ws", "--config", "run.cfg"], b"seed 9\n",
                 "error: run.cfg:1: expected key=value\n", id="line_without_equals"),
    pytest.param(["ws", "--p-values", ","], None,
                 "error: need at least one p value\n", id="no_p_values"),
    pytest.param(["synth-study", "--config", "run.cfg"], b"kappa_min = 5\nkappa_max = 2\n",
                 "error: need 1 <= kappa_min <= kappa_max, got [5, 2]\n", id="inverted_kappa"),
    pytest.param(["ws", "--trials", "0"], None,
                 "error: trials must be at least 1\n", id="no_trials"),
    pytest.param(["sweep", "--input", "ratings.tsv", "--max-sources", "0"], None,
                 "error: max sources must be at least 1\n", id="no_sources"),
    pytest.param(["ws", "--config", "run.cfg"], b"mode = sideways\n",
                 "error: mode must be uniform, preferential, or both; got 'sideways'\n",
                 id="unknown_mode"),
])
def test_configuration_errors_exit_2(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_bytes(config)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def main_args(argv):
    from recgraph.cli import build_parser
    return build_parser().parse_args(argv)


def test_defaults_fill_unset_fields(tmp_path):
    _, path = synth_file(tmp_path)
    cfg = resolve_config(main_args(["sweep", "--input", str(path)]))
    assert cfg.w_min == DEFAULTS["w_min"] and cfg.w_max == DEFAULTS["w_max"]
    assert cfg.seed == 0 and cfg.format == "movielens"


# -- exit codes --------------------------------------------------------------------


def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = main(["stats", "--input", str(tmp_path / "absent.tsv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_input_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("1\tnot_a_number\t3\t0\n", encoding="utf-8")
    rc = main(["stats", "--input", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# A bad row after a good one: an undecodable byte, an id past int64, or
# (CSV) a row of the wrong width, with a rating that is not a number, or with
# a field past the csv module's size limit.
BAD_ROWS = {
    ("movielens", "invalid_utf8"): (b"1\t10\t5\t0\n\xff\t2\t3\t0\n", 2),
    ("movielens", "id_past_int64"): (b"1\t10\t5\t0\n123456789012345678901\t2\t3\t0\n", 2),
    ("csv", "invalid_utf8"): (b"person,movie\n1,10\n2,\xff\n", 3),
    ("csv", "id_past_int64"): (b"person,movie\n1,10\n2,123456789012345678901\n", 3),
    ("csv", "wrong_field_count"): (b"person,movie\n1,10\n2,3,4\n", 3),
    ("csv", "rating_not_numeric"): (b"person,movie,rating\n1,10,5\n2,3,x\n", 3),
    ("csv", "field_past_csv_limit"): (b"person,movie\n1,10\n" + b"1" * 131_073 + b",4\n", 3),
    ("csv", "quoted_newline_then_bad_id"): (b'person,movie\n"1\n",10\n2,x\n', 4),
}


@pytest.mark.parametrize("fmt, case", sorted(BAD_ROWS))
def test_undecodable_or_oversized_id_exits_1_at_its_line(tmp_path, capsys, fmt, case):
    data, line = BAD_ROWS[fmt, case]
    path = tmp_path / "ratings"
    path.write_bytes(data)
    for command in ("stats", "sweep", "cdf"):
        rc = main([command, "--input", str(path), "--format", fmt, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}:{line}: ")
        assert "Traceback" not in err


def test_csv_empty_file_exits_1_and_blank_rows_are_skipped(tmp_path, capsys):
    path = tmp_path / "ratings.csv"
    path.write_bytes(b"")
    assert main(["stats", "--input", str(path), "--format", "csv"]) == 1
    assert capsys.readouterr().err == f"error: {path}: empty file\n"
    path.write_bytes(b"person,movie\n1,10\n\n2,10\n")
    assert main(["stats", "--input", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "people: 2\n" in out and "edges: 2\n" in out


def test_inverted_width_range_exits_2(tmp_path, capsys):
    _, path = synth_file(tmp_path)
    rc = main(["sweep", "--input", str(path), "--w-min", "5", "--w-max", "2"])
    assert rc == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_input_flag_exits_2(capsys):
    assert main(["stats"]) == 2
    assert "error:" in capsys.readouterr().err


# -- cdf ---------------------------------------------------------------------------


def test_cdf_writes_per_width_files(tmp_path, capsys):
    _, path = synth_file(tmp_path)
    assert main(["cdf", "--input", str(path), "--w-min", "1", "--w-max", "2",
                 "--out", str(tmp_path / "cdf")]) == 0
    capsys.readouterr()
    one = (tmp_path / "cdf" / "cdf_w01.csv").read_text(encoding="utf-8")
    two = (tmp_path / "cdf" / "cdf_w02.csv").read_text(encoding="utf-8")
    assert one.startswith("degree,count\n")
    assert two.startswith("degree,count\n")
    rows = [line.split(",") for line in one.splitlines()[1:]]
    assert rows[0][1] == "30"  # every vertex sits at or above the smallest degree
    degrees = [int(r[0]) for r in rows]
    counts = [int(r[1]) for r in rows]
    assert degrees == sorted(degrees)
    assert counts == sorted(counts, reverse=True)


def test_cdf_log_scale_header(tmp_path, capsys):
    _, path = synth_file(tmp_path)
    assert main(["cdf", "--input", str(path), "--w-min", "1", "--w-max", "1",
                 "--log", "--out", str(tmp_path / "cdflog")]) == 0
    capsys.readouterr()
    text = (tmp_path / "cdflog" / "cdf_w01.csv").read_text(encoding="utf-8")
    assert text.startswith("degree,log10_count\n")


# -- ws ----------------------------------------------------------------------------


def test_ws_csv_covers_modes_and_p_values(tmp_path, capsys):
    assert main(["ws", "--n", "20", "--k", "4", "--p-values", "0,1",
                 "--trials", "1", "--mode", "both", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "ws.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,l_ratio,c_ratio,mode"
    assert len(lines) == 5
    assert {row.split(",")[-1] for row in lines[1:]} == {"uniform", "preferential"}
    zero_rows = [row for row in lines[1:] if row.startswith("0,")]
    assert all(row.split(",")[1:3] == ["1", "1"] for row in zero_rows)


def test_ws_single_mode(tmp_path, capsys):
    assert main(["ws", "--n", "16", "--k", "4", "--p-values", "0.5",
                 "--mode", "uniform", "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    lines = (tmp_path / "one" / "ws.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",uniform")


def test_ws_rejects_bad_p_values(tmp_path, capsys):
    for p_values in ("0,banana", "nan", "0,1.5"):
        assert main(["ws", "--p-values", p_values]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    config = tmp_path / "ws.cfg"
    config.write_text("p_values = 0,nan\n", encoding="utf-8")
    assert main(["ws", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_ws_k2_ring_leaves_c_ratio_empty(tmp_path, capsys):
    # a k=2 ring has no triangles, so clustering has no base to scale by
    assert main(["ws", "--n", "20", "--k", "2", "--p-values", "0,0.5",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "ws.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,l_ratio,c_ratio,mode"
    assert lines[1] == "0,1,,uniform"
    p, l_ratio, c_ratio, mode = lines[2].split(",")
    assert (p, c_ratio, mode) == ("0.5", "", "uniform")
    assert float(l_ratio) > 0


def test_ws_rejects_bad_lattice_shape(capsys):
    for n, k in (("20", "3"), ("2", "2")):
        assert main(["ws", "--n", n, "--k", k]) == 2
        assert capsys.readouterr().err.startswith("error: ")


# -- synth-study -------------------------------------------------------------------


def test_synth_study_files_and_kappa_skip(tmp_path, capsys):
    rc = main(["synth-study", "--kappa-min", "6", "--kappa-max", "7",
               "--n-people", "10", "--n-movies", "6", "--w-min", "1",
               "--w-max", "2", "--trials", "2", "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning: kappa=7 skipped:" in captured.err
    study = (tmp_path / "synth_study.csv").read_text(encoding="utf-8").splitlines()
    linf = (tmp_path / "synth_linf.csv").read_text(encoding="utf-8").splitlines()
    assert study[0] == ("kappa,epsilon,w,l_pp_measured,l_r_measured,l_pm_measured,"
                        "l_pp_predicted,l_r_predicted,l_pm_predicted,defined_trials")
    assert len(study) == 3  # kappa 6 only, widths 1 and 2
    assert [row.split(",")[0] for row in study[1:]] == ["6", "6"]
    assert study[1].split(",")[-1] == "2"
    assert linf[0] == "kappa,epsilon,linf_l_pp"
    assert linf[1].split(",")[0] == "6" and linf[1].split(",")[2] != ""
    assert linf[2] == "7,,"


def test_synth_study_leaves_linf_empty_when_no_width_has_l_pp(tmp_path, capsys):
    # widths 76 and 77 pass the default 75 movies, so no two people are
    # joined, no trial measures l_pp and the discrepancy is undefined
    assert main(["synth-study", "--kappa-min", "1", "--kappa-max", "2", "--w-min", "76",
                 "--w-max", "77", "--n-people", "20", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    linf = (tmp_path / "synth_linf.csv").read_text(encoding="utf-8").splitlines()
    assert linf[1:] == ["1,1.44121,", "2,1.32552,"]
    study = (tmp_path / "synth_study.csv").read_text(encoding="utf-8").splitlines()
    assert len(study) == 5 and all(row.endswith(",0") for row in study[1:])


@pytest.mark.parametrize("size", [["--n-people", "0"], ["--n-people", "1"],
                                  ["--n-movies", "0"]])
def test_synth_study_that_cannot_run_exits_2(tmp_path, capsys, size):
    assert main(["synth-study", *size, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "warning" not in captured.err
    assert not list(tmp_path.iterdir())


def test_synth_study_deterministic(tmp_path, capsys):
    args = ["synth-study", "--kappa-min", "2", "--kappa-max", "2",
            "--n-people", "15", "--n-movies", "8", "--w-min", "1",
            "--w-max", "3", "--trials", "2"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    for name in ("synth_study.csv", "synth_linf.csv"):
        assert ((tmp_path / "r1" / name).read_bytes()
                == (tmp_path / "r2" / name).read_bytes())


# -- dependencies -------------------------------------------------------------------


def test_commands_run_without_scipy(tmp_path):
    _, path = synth_file(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(recgraph.__file__).parents[1]))
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "from recgraph.cli import main; sys.exit(main(sys.argv[1:]))")
    data = ["--input", str(path)]
    for args in (["stats", *data],
                 ["sweep", *data, "--w-min", "1", "--w-max", "3"],
                 ["cdf", *data, "--w-min", "1", "--w-max", "3"],
                 ["ws", "--n", "30", "--k", "4"],
                 ["synth-study", "--kappa-min", "2", "--kappa-max", "3", "--n-people", "15",
                  "--n-movies", "8", "--w-min", "1", "--w-max", "2"]):
        done = subprocess.run([sys.executable, "-c", blocked, *args, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (args, done.stderr)
    listed = ("import sys, recgraph.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", listed], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
