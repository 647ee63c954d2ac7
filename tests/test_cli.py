from recgraph import BipartiteRatings, SynthConfig, generate_power_law_bipartite, metrics
from recgraph.cli import DEFAULTS, load_config_file, main, resolve_config, sweep_rows


def write_tab(path, rows):
    path.write_text("".join(f"{p}\t{m}\t3\t0\n" for p, m in rows), encoding="utf-8")


def synth_file(tmp_path, **kwargs):
    cfg = SynthConfig(**{"n_people": 30, "n_movies": 12, "epsilon": 0.5,
                         "seed": 4, **kwargs})
    g = generate_power_law_bipartite(cfg)
    path = tmp_path / "ratings.tsv"
    g.export_movielens_tab(path)
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
    # at w=2 the path 1-2-3 and the triangle 4-5-6 tie on people, so the
    # social giant is the path (smaller id); person 4's ten extra movies
    # make the triangle the recommender giant
    rows = [(p, m) for p in (1, 2) for m in (1, 2)]
    rows += [(p, m) for p in (2, 3) for m in (3, 4)]
    rows += [(p, m) for p in (4, 5, 6) for m in (10, 11)]
    rows += [(4, m) for m in range(20, 30)]
    (row,) = sweep_rows(BipartiteRatings(rows), 2, 2)
    assert row.giant_people == 3
    assert row.giant_movies == 12
    assert row.l_pp_measured == 4 / 3  # path distances, not the triangle's 1.0


def test_sweep_analyses_each_width_once(monkeypatch):
    calls = {"components": 0, "dijkstra": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics.csgraph, "connected_components",
                        counted("components", metrics.csgraph.connected_components))
    monkeypatch.setattr(metrics.csgraph, "dijkstra",
                        counted("dijkstra", metrics.csgraph.dijkstra))
    g = generate_power_law_bipartite(SynthConfig(n_people=30, n_movies=12, epsilon=0.5, seed=4))
    for w in (1, 2, 3):
        calls.update(components=0, dijkstra=0)
        (row,) = sweep_rows(g, w, w)
        assert row.components == 1
        assert calls["components"] <= 2
        assert calls["dijkstra"] == 1


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


def test_ws_rejects_bad_p_values(capsys):
    assert main(["ws", "--p-values", "0,banana"]) == 2
    capsys.readouterr()


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
