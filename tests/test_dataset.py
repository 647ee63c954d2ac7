import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from recgraph import (
    EmptyDatasetError,
    FitError,
    ParseError,
    RecgraphError,
    UndefinedMetricError,
    UnknownNodeError,
    apply_jump,
    load_ratings,
)
from recgraph import dataset
from recgraph.dataset import (
    GENERIC_CSV,
    MOVIELENS_TAB,
    BipartiteRatings,
    fit_power_law,
    is_connected_bipartite,
    reorder_hits_buffs,
    sparsity,
)
from recgraph.metrics import bfs_reach_count

from oracles import (
    bipartite_reach,
    edge_ids,
    load_csv_oracle,
    load_movielens_tab_oracle,
    movies_by_person,
    people_by_movie,
    random_ratings,
    ratings_of,
    ratings_oracle,
    write_movielens_tab,
)


# -- construction ---------------------------------------------------------------


def test_basic_counts():
    g = BipartiteRatings([(1, 10), (1, 11), (2, 10)])
    assert g.n_people == 2
    assert g.n_movies == 2
    assert g.edge_count == 3
    assert g.duplicate_count == 0
    assert repr(g) == "BipartiteRatings(n_people=2, n_movies=2, edges=3)"


def test_duplicates_keep_first_and_count():
    g = BipartiteRatings([(1, 10), (1, 10), (2, 10), (1, 10)])
    assert g.edge_count == 2
    assert g.duplicate_count == 2


def test_degree_sums_match_edge_count():
    for seed in range(40):
        g = random_ratings(seed)
        assert g.person_degrees().sum() == g.edge_count
        assert g.movie_degrees().sum() == g.edge_count


def test_explicit_vertex_sets_keep_isolated_nodes():
    g = BipartiteRatings([(1, 10)], people=[1, 2, 3], movies=[10, 20])
    assert g.n_people == 3
    assert g.n_movies == 2
    assert movies_by_person(g)[2] == set()


def test_stray_edge_endpoint_rejected():
    with pytest.raises(UnknownNodeError):
        BipartiteRatings([(1, 10), (4, 10)], people=[1], movies=[10])


def test_negative_ids_rejected():
    with pytest.raises(ValueError):
        BipartiteRatings([(-1, 10)])
    # as is a table whose rows are not (person, movie) pairs
    with pytest.raises(ValueError, match="pairs"):
        BipartiteRatings(np.ones((2, 3), dtype=np.int64))


def test_adjacency_lookups():
    g = BipartiteRatings([(1, 10), (1, 11), (2, 10)])
    assert movies_by_person(g) == {1: {10, 11}, 2: {10}}
    assert people_by_movie(g) == {10: {1, 2}, 11: {1}}


# -- parsing -------------------------------------------------------------------


def test_load_movielens_tab(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t874965758\n2\t10\t3\t876893171\n1\t11\t4\t878542960\n")
    g = load_ratings(path, MOVIELENS_TAB)
    assert g.n_people == 2
    assert g.n_movies == 2
    assert g.edge_count == 3


def test_movielens_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t874965758\nabc\t5\t3\t0\n")
    with pytest.raises(ParseError) as err:
        load_ratings(path, MOVIELENS_TAB)
    assert err.value.line_number == 2


def test_movielens_wrong_field_count(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\n")
    with pytest.raises(ParseError):
        load_ratings(path, MOVIELENS_TAB)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_ratings(path, MOVIELENS_TAB)


def test_generic_csv_rating_optional(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("person,movie,rating\n1,10,4\n2,10,\n")
    g = load_ratings(path, GENERIC_CSV)
    assert g.edge_count == 2

    bare = tmp_path / "bare.csv"
    bare.write_text("person,movie\n1,10\n1,11\n")
    g2 = load_ratings(bare, GENERIC_CSV)
    assert g2.edge_count == 2


def test_generic_csv_bad_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n1,10\n")
    with pytest.raises(ParseError):
        load_ratings(path, GENERIC_CSV)
    # a format name outside FORMATS is refused before the file is read
    with pytest.raises(ValueError, match="unknown format"):
        load_ratings(path, "xml")


def test_duplicate_rows_counted_on_load(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t0\n1\t10\t4\t1\n")
    g = load_ratings(path, MOVIELENS_TAB)
    assert g.edge_count == 1
    assert g.duplicate_count == 1


def test_movielens_tab_skips_byte_order_mark(tmp_path):
    path = tmp_path / "u.data"
    path.write_bytes("\ufeff1\t10\t5\t0\n2\t10\t3\t1\n".encode("utf-8"))
    g = load_ratings(path, MOVIELENS_TAB)
    assert g.people.tolist() == [1, 2]
    assert edge_ids(g) == [(1, 10), (2, 10)]


def test_generic_csv_skips_byte_order_mark(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes("\ufeffperson,movie,rating\n1,10,4\n2,10,3\n".encode("utf-8"))
    g = load_ratings(path, GENERIC_CSV)
    assert g.people.tolist() == [1, 2]
    assert edge_ids(g) == [(1, 10), (2, 10)]


# The loader once read files in blocks, and these tests ran each case at two
# block sizes, named by these ids.  The loader now reads a file whole, so the
# ``block_chars`` axis only keeps the ids: both of a case run the same check.
ONE_BLOCK = pytest.param(8 << 20, id="8388608")

# Tab files the loader must read exactly as the row-wise oracle does, by
# ``np.loadtxt`` or the row scan: the same graph, or the same exception type,
# line number and message.
TAB_CASES = {
    "plain": "1\t10\t5\t874965758\n2\t10\t3\t876893171\n1\t11\t4\t878542960\n",
    "no_final_newline": "1\t10\t5\t0\n2\t11\t4\t1",
    "blank_and_whitespace_lines": "\n1\t10\t5\t0\n\n   \n\t\t\t\n \t \n\x0b\x0c\xa0\n2\t10\t3\t1\n\n",
    "crlf": "1\t10\t5\t0\r\n2\t11\t4\t1\r\n\r\n3\t11\t2\t2\r\n",
    "lone_cr": "1\t10\t5\t0\r2\t11\t4\t1\r\r3\t12\t1\t2",
    "mixed_endings": "1\t10\t5\t0\r\n2\t11\t4\t1\r3\t12\t1\t2\n",
    "int_syntax": "+7\t1_000\t4\t+0\n\uff11\uff12\t\uff13\t5\t99 \n 8\t9 \t 4.5 \t 7  \n-0\t0\t1\t-0\n",
    "float_ratings": "1\t10\tnan\t0\n2\t10\t-inf\t0\n3\t10\t1e999\t0\n4\t10\t1_5.5\t0\n",
    "duplicates": "1\t10\t5\t0\n1\t10\t4\t1\n2\t10\t3\t1\n1\t10\t5\t0\n2\t10\t1\t9\n",
    "negative_person": "1\t10\t5\t0\n-1\t10\t5\t0\n",
    "negative_movie": "1\t10\t5\t0\n\n2\t-10\t5\t0\n",
    "negative_timestamp": "1\t10\t5\t0\n2\t10\t5\t-3\n",
    "non_integer_person": "abc\t5\t3\t0\n",
    "float_person": "1\t10\t5\t0\n1.5\t10\t5\t0\n",
    "empty_movie": "1\t\t5\t0\n",
    "non_numeric_rating": "1\t10\t5\t0\r\n2\t10\tfive\t0\r\n",
    "three_fields": "1\t10\t5\n",
    "five_fields": "1\t10\t5\t0\n2\t10\t5\t0\t9\n",
    "five_then_three": "1\t10\t5\t0\t9\n2\t11\t4\n",
    "three_then_five": "1\t10\t5\n2\t11\t4\t0\t9\n",
    "bad_line_after_lone_cr": "1\t10\t5\t0\r\rx\t1\t1\t1\r",
    "id_past_int64": "1\t10\t5\t0\n99999999999999999999\t10\t5\t0\n",
    "id_past_int64_then_bad_line": "99999999999999999999\t10\t5\t0\n1\t10\t5\n",
    "timestamp_past_int64": "1\t10\t5\t99999999999999999999\n",
    "invalid_utf8": b"1\t10\t5\t0\nx\t1\t1\t1\n\xff\t2\t3\t0\n",
    "empty": "",
    "blank_only": "\n \n\t\t\t\n",
}


def _outcome(build):
    """What ``build()`` returns, or the type, line number and text of its error."""
    try:
        return build()
    except (RecgraphError, ValueError, OverflowError) as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)


def _assert_tab_parse_matches_oracle(path):
    got = _outcome(lambda: ratings_of(load_ratings(path, MOVIELENS_TAB)))
    assert got == _outcome(lambda: load_movielens_tab_oracle(path))


@pytest.mark.parametrize("block_chars", [ONE_BLOCK, 16])
@pytest.mark.parametrize("name", sorted(TAB_CASES))
def test_tab_parse_matches_row_oracle(tmp_path, name, block_chars):
    text = TAB_CASES[name]
    path = tmp_path / "u.data"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    _assert_tab_parse_matches_oracle(path)


def _seeded_tab_file(seed) -> str:
    """Random valid rows mixed with blank lines, odd syntax and line endings.

    One seed in three plants one malformed line somewhere in the file.
    """
    rng = random.Random(f"tab:{seed}")
    bad = ["-1\t10\t5\t0", "1\t-2\t5\t0", "1\t2\t5\t-1", "1\t2\tx\t0", "1\t2\t5",
           "1\t2\t5\t0\t0", "1\t2\t5\t0\t0\n3\t4\t5", "p\t2\t5\t0", "1\t2\t\t0"]
    lines = []
    for _ in range(rng.randint(0, 300)):
        kind = rng.random()
        if kind < 0.08:
            lines.append(rng.choice(["", "  ", "\t\t\t", " \t ", "\x0c"]))
            continue
        p, m = rng.randint(0, 40), rng.randint(0, 60)
        fields = [str(p), str(m), rng.choice(["5", "3.5", "nan", "1_0"]), str(rng.randint(0, 10**9))]
        if kind < 0.15:
            fields = [f"+{p}", f" {m} ", fields[2], f"{fields[3]}  "]
        lines.append("\t".join(fields))
    if lines and seed % 3 == 0:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(bad))
    endings = ["\n"] * 8 + ["\r\n", "\r"]
    return "".join(line + rng.choice(endings) for line in lines)


@pytest.mark.parametrize("block_chars", [ONE_BLOCK, 200])
def test_seeded_tab_files_match_row_oracle(tmp_path, block_chars):
    path = tmp_path / "u.data"
    for seed in range(60):
        path.write_bytes(_seeded_tab_file(seed).encode("utf-8"))
        _assert_tab_parse_matches_oracle(path)


def _forbid_row_scan(monkeypatch):
    def row_scan(path, fmt):
        raise AssertionError(f"{path} reached the row scan")
    monkeypatch.setattr(dataset, "_scan_rows", row_scan)


def _count_row_scans(monkeypatch) -> list:
    calls = []
    scan = dataset._scan_rows

    def counted(path, fmt):
        calls.append(path)
        return scan(path, fmt)
    monkeypatch.setattr(dataset, "_scan_rows", counted)
    return calls


def test_standin_and_its_crlf_and_cr_copies_skip_the_row_scan(standin, tmp_path, monkeypatch):
    expected = load_movielens_tab_oracle(standin)
    assert len(expected.edges) == 100_000
    crlf = tmp_path / "u_crlf.data"
    crlf.write_bytes(standin.read_bytes().replace(b"\n", b"\r\n"))
    cr = tmp_path / "u_cr.data"
    cr.write_bytes(standin.read_bytes().replace(b"\n", b"\r"))
    _forbid_row_scan(monkeypatch)
    for path in (standin, crlf, cr):
        assert ratings_of(load_ratings(path, MOVIELENS_TAB)) == expected


@pytest.mark.parametrize("rating, strict", [
    ("4", True), ("4.5", True), ("10.25", True), (".5", True), ("5.", True),
    ("4..5", False), ("1.2.3", False), (".", False), ("4.5.", False), ("4.5e1", False),
])
def test_rating_grammar(tmp_path, monkeypatch, rating, strict):
    calls = _count_row_scans(monkeypatch)
    path = tmp_path / "u.data"
    path.write_bytes(f"1\t10\t5\t0\n2\t10\t{rating}\t0\n".encode())
    _assert_tab_parse_matches_oracle(path)
    assert calls == ([] if strict else [path])


@pytest.mark.parametrize("text", ["1\t1\r0\t5\t0\n", "1\t10\t5\t0\r\r\n2\t3\t1\t0\n", "1\t10\t5\t0\r"])
def test_cr_outside_crlf_matches_oracle(tmp_path, text):
    path = tmp_path / "u.data"
    path.write_bytes(text.encode())
    _assert_tab_parse_matches_oracle(path)


@pytest.mark.parametrize("block_chars", [ONE_BLOCK, 16])
@pytest.mark.parametrize("name, strict", [
    ("plain", True), ("no_final_newline", True), ("crlf", True), ("duplicates", True),
    ("empty", True), ("int_syntax", False), ("lone_cr", True), ("timestamp_past_int64", False),
])
def test_only_lenient_syntax_reaches_the_row_scan(tmp_path, monkeypatch, name, strict, block_chars):
    calls = _count_row_scans(monkeypatch)
    path = tmp_path / "u.data"
    path.write_bytes(TAB_CASES[name].encode("utf-8"))
    _assert_tab_parse_matches_oracle(path)
    assert calls == ([] if strict else [path])


@pytest.mark.parametrize("block_chars", [ONE_BLOCK, 16])
def test_ids_of_18_and_19_digits(tmp_path, monkeypatch, block_chars):
    calls = _count_row_scans(monkeypatch)
    path = tmp_path / "u.data"
    top = 2**63 - 1
    eighteen = 10**18 - 1
    path.write_bytes(f"1\t10\t5\t0\n{eighteen}\t{eighteen}\t5\t{eighteen}\n".encode())
    _assert_tab_parse_matches_oracle(path)
    assert ratings_of(load_ratings(path)).edges == [(1, 10), (eighteen, eighteen)]
    path.write_bytes(f"1\t10\t5\t0\n{top}\t{top}\t5\t0\n".encode())
    _assert_tab_parse_matches_oracle(path)
    assert ratings_of(load_ratings(path)).edges == [(1, 10), (top, top)]
    assert calls == []  # ids up to int64's largest skip the row scan
    for row in (f"{top + 1}\t10\t5\t0", f"1\t{top + 1}\t5\t0"):
        path.write_bytes(f"1\t10\t5\t0\n{row}\n".encode())
        _assert_tab_parse_matches_oracle(path)
        with pytest.raises(ParseError) as err:
            load_ratings(path)
        assert err.value.line_number == 2


@pytest.mark.parametrize("block_chars", [16, 64])
def test_line_longer_than_a_block(tmp_path, monkeypatch, block_chars):
    long_line = f"{'7' * 18}\t{'0' * 17}3\t4.{'5' * 200}\t{'1' * 18}"
    path = tmp_path / "u.data"
    path.write_bytes(("\ufeff1\t10\t5\t0\r\n" + long_line + "\r\n\n2\t3\t1\t0").encode("utf-8"))
    expected = ratings_oracle([(1, 10), (int("7" * 18), 3), (2, 3)])
    _forbid_row_scan(monkeypatch)
    assert ratings_of(load_ratings(path)) == expected


# CSV files the loader must read exactly as the row-wise CSV oracle does, each
# with whether ``np.loadtxt`` reads it (True) or the row scan runs (False).
CSV_CASES = {
    # strict: an exact lower-case header, ASCII digits, LF, CRLF or CR
    "plain": ("person,movie,rating\n1,10,5\n2,10,3\n1,11,4\n", True),
    "two_field_header": ("person,movie\n1,10\n2,11\n007,0010\n", True),
    "no_final_newline": ("person,movie,rating\n1,10,5\n2,11,4", True),
    "crlf": ("person,movie,rating\r\n1,10,5\r\n2,11,4\r\n\r\n3,11,2\r\n", True),
    "byte_order_mark": ("\ufeffperson,movie\n1,10\n2,10\n", True),
    "blank_lines": ("person,movie\n\n1,10\n\n\n2,10\n\n", True),
    "decimal_rating": ("person,movie,rating\n1,10,4.5\n2,10,10.25\n", True),
    "bare_dot_rating": ("person,movie,rating\n1,10,.5\n2,10,5.\n", True),
    "lone_cr": ("person,movie\n1,10\r2,11\r\r3,12", True),
    "duplicates": ("person,movie,rating\n1,10,5\n1,10,4\n2,10,3\n1,10,5\n", True),
    # lenient: the csv module's quoting, any header case and spacing, blank ratings
    "quoted_field": ('person,movie,rating\n"1",10,5\n2,"10","3"\n', False),
    "quoted_header": ('"person","movie"\n1,10\n', False),
    "upper_case_header": ("PERSON,Movie,RATING\n1,10,5\n", False),
    "spaced_header": (" person , movie \n1,10\n", False),
    "blank_rating": ("person,movie,rating\n1,10,4\n2,10,\n3,10,  \n", False),
    "padded_ids": ("person,movie\n 1 ,10\n2,\t11 \n", False),
    "signed_ids": ("person,movie\n+1,10\n2,+0\n-0,3\n", False),
    "lone_cr_header": ("person,movie\r1,10\r", False),
    "quoted_newline": ('person,movie\n"1\n",10\n2,10\n', False),
    # errors
    "bad_header": ("person,film\n1,10\n", False),
    "header_too_wide": ("person,movie,rating,timestamp\n1,10,5,0\n", False),
    "wrong_field_count": ("person,movie\n1,10\n2,11,4\n", False),
    "rating_not_numeric": ("person,movie,rating\n1,10,5\n2,10,five\n", False),
    "negative_id": ("person,movie\n1,10\n-1,10\n", False),
    "float_id": ("person,movie,rating\n1,10,5\n1.5,10,5\n", False),
    "padded_bad_id": ("person,movie,rating\n1,10,5\n2, x ,5\n", False),
    "id_past_int64": ("person,movie\n1,10\n99999999999999999999,10\n", False),
    "invalid_utf8": (b"person,movie\n1,10\n2,\xff\n", False),
    "field_past_csv_limit": (b"person,movie\n1,10\n" + b"1" * 131_073 + b",4\n", False),
    "header_only": ("person,movie,rating\n", True),
    "empty": ("", False),
    "blank_only": ("\n\n", False),
}


def _assert_csv_parse_matches_oracle(path):
    got = _outcome(lambda: ratings_of(load_ratings(path, GENERIC_CSV)))
    assert got == _outcome(lambda: load_csv_oracle(path))


@pytest.mark.parametrize("block_chars", [ONE_BLOCK, 16])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_parse_matches_row_oracle(tmp_path, monkeypatch, name, block_chars):
    calls = _count_row_scans(monkeypatch)
    text, strict = CSV_CASES[name]
    path = tmp_path / "r.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    _assert_csv_parse_matches_oracle(path)
    assert calls == ([] if strict else [path])


def _seeded_csv_file(seed) -> str:
    """A header and random rows, mixed with blank lines and line endings.

    Half the seeds keep to the strict form; the rest mix in quoting,
    padding, signs and blank ratings.  One seed in three plants one
    malformed line somewhere after the header.
    """
    rng = random.Random(f"csv:{seed}")
    odd = seed % 2 == 1
    header = rng.choice(["person,movie", "person,movie,rating"]
                        + odd * ["Person, Movie", '"person","movie","rating"'])
    width = header.count(",") + 1
    bad = ["-1,10", "1,x", "1", "1,2,3,4", "p,2", "1,2,five", '"1,2']
    lines = [header]
    for _ in range(rng.randint(0, 300)):
        kind = rng.random()
        if kind < 0.08:
            lines.append(rng.choice(["", "  ", ",", " , "]))
            continue
        p, m = rng.randint(0, 40), rng.randint(0, 60)
        fields = [str(p), str(m), rng.choice(["5", "3.5", "10"])][:width]
        if odd and kind < 0.15:
            fields = [f'"{p}"', f" +{m} ", ""][:width]
        lines.append(",".join(fields))
    if seed % 3 == 0:
        lines.insert(rng.randint(1, len(lines)), rng.choice(bad))
    endings = rng.choice([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n"] * 8 + ["\r"]])
    return "".join(line + rng.choice(endings) for line in lines)


@pytest.mark.parametrize("block_chars", [ONE_BLOCK, 200])
def test_seeded_csv_files_match_row_oracle(tmp_path, block_chars):
    path = tmp_path / "r.csv"
    for seed in range(60):
        path.write_bytes(_seeded_csv_file(seed).encode("utf-8"))
        _assert_csv_parse_matches_oracle(path)


# -- the strict form against the oracles -------------------------------------------

# What the differential files mix into their fields: bytes numpy's reader and
# ``int``/``float`` read apart (numpy strips \x1c-\x1f and reads zero-padded
# ids past ``int``'s digit limit), Unicode spaces and digits, signs, quotes,
# the other format's separator, ids either side of int64's largest, and runs
# of zeros either side of the 640 digits the strict form allows.
HOSTILE = ["\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u3000", "\ufeff", "\uff11", "\u0663", " ",
           "+", "-", '"', "_", "e", ".", "\t", ",", "\r", str(2**63 - 1), str(2**63),
           "0" * 640, "0" * 700, "0" * 4401]

# Files that once read differently with the byte check left out, and the edges
# of the strict form: (format, text).
PLANTED = [
    *((MOVIELENS_TAB, f"1\t10\t5\t0\n2{c}\t10\t5\t0\n") for c in "\x1c\x1d\x1e\x1f"),
    *((MOVIELENS_TAB, f"1\t{c}10\t5{c}\t{c}0\n") for c in "\x1c\x1f"),
    *((GENERIC_CSV, f"person,movie\n1,10{c}\n") for c in "\x1c\x1f"),
    (MOVIELENS_TAB, "0" * 639 + "1\t10\t5\t0\n"),  # 640 digits
    (MOVIELENS_TAB, "0" * 640 + "1\t10\t5\t0\n"),  # 641 digits
    (MOVIELENS_TAB, "1\t" + "0" * 4300 + "1\t5\t0\n"),  # 4301 digits
    (GENERIC_CSV, "person,movie\n" + "0" * 4300 + "1,10\n"),
    (GENERIC_CSV, "person,movie,rating\n1,10," + "5" * 131_073 + "\n"),
    (MOVIELENS_TAB, "1\t10\t5\t0\n-1\t10\t5\t0\n"),
    (GENERIC_CSV, "person,movie\n1,10\n2,-3\n"),
    (MOVIELENS_TAB, ""),
    (GENERIC_CSV, ""),
    (GENERIC_CSV, "person,movie,rating\n"),
    (GENERIC_CSV, "person,movie\r\n"),
    (MOVIELENS_TAB, "1\t10\t" + "5" * 131_073 + "\t0\n"),  # past csv's field limit
    (MOVIELENS_TAB, "\ufeff1\t10\t5\t0\n2\t10\t5\t0\n"),
]


def _hostile_file(fmt, seed) -> str:
    """Rows of small ids, each field now and then laced with a HOSTILE token."""
    rng = random.Random(f"hostile:{fmt}:{seed}")
    sep, width = ("\t", 4) if fmt == MOVIELENS_TAB else (",", rng.choice([2, 3]))
    lines = [] if fmt == MOVIELENS_TAB else [["person,movie", "person,movie,rating"][width - 2]]
    for _ in range(rng.randint(0, 12)):
        fields = [str(rng.randint(0, 30)) for _ in range(width)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            k = rng.randrange(width)
            cut = rng.randint(0, len(fields[k]))
            fields[k] = fields[k][:cut] + rng.choice(HOSTILE) + fields[k][cut:]
        lines.append(sep.join(fields))
    return "".join(line + rng.choice(["\n", "\n", "\r\n", "\r"]) for line in lines)


def _assert_parse_matches_oracle(path, fmt):
    oracle = load_movielens_tab_oracle if fmt == MOVIELENS_TAB else load_csv_oracle
    assert _outcome(lambda: ratings_of(load_ratings(path, fmt))) == _outcome(lambda: oracle(path))


@pytest.mark.parametrize("fmt", [MOVIELENS_TAB, GENERIC_CSV])
def test_hostile_files_match_oracle(tmp_path, fmt):
    path = tmp_path / "ratings"
    for seed in range(300):
        path.write_bytes(_hostile_file(fmt, seed).encode("utf-8"))
        _assert_parse_matches_oracle(path, fmt)


@pytest.mark.parametrize("fmt, text", PLANTED, ids=range(len(PLANTED)))
def test_planted_files_match_oracle(tmp_path, fmt, text):
    path = tmp_path / "ratings"
    path.write_bytes(text.encode("utf-8"))
    _assert_parse_matches_oracle(path, fmt)


@pytest.mark.parametrize("digits, strict", [(19, True), (640, True), (641, False)])
def test_zero_padded_ids_up_to_640_digits_skip_the_row_scan(tmp_path, monkeypatch, digits, strict):
    calls = _count_row_scans(monkeypatch)
    path = tmp_path / "u.data"
    path.write_bytes(f"{7:0{digits}}\t10\t5\t0\n".encode())
    assert ratings_of(load_ratings(path)) == ratings_oracle([(7, 10)])
    assert calls == ([] if strict else [path])


@pytest.mark.parametrize("fmt, text", [(MOVIELENS_TAB, "\n"), (GENERIC_CSV, "person,movie\n")],
                         ids=[MOVIELENS_TAB, GENERIC_CSV])
def test_a_table_of_no_rows_warns_of_nothing(tmp_path, fmt, text):
    path = tmp_path / "ratings"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDatasetError):
            load_ratings(path, fmt)


def test_an_int_read_via_a_float_sends_the_file_to_the_row_scan(tmp_path, monkeypatch):
    # numpy releases that still read "1.5" as the int 1 give a DeprecationWarning
    def lenient_loadtxt(*args, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.ones(1, dtype=dtype)
    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    calls = _count_row_scans(monkeypatch)
    path = tmp_path / "u.data"
    path.write_text("1.5\t10\t5\t0\n")
    _assert_tab_parse_matches_oracle(path)
    assert calls == [path]


@pytest.mark.parametrize("fmt", [MOVIELENS_TAB, GENERIC_CSV])
def test_load_peak_memory_per_rating(tmp_path, fmt):
    # the loader peaked at 48.5 bytes a rating here for the tab file, while it
    # holds the parsed table and the (m, 2) id array, and at 41.4 for the CSV
    # (tracemalloc, numpy 2.4); the CSV row reader of an earlier loader
    # peaked at 165.2
    rng = np.random.default_rng(0)
    n = 200_000
    columns = (rng.integers(1, 6041, n), rng.integers(1, 3953, n), rng.integers(1, 6, n),
               rng.integers(956_703_932, 1_046_454_590, n))
    path = tmp_path / "ratings"
    if fmt == MOVIELENS_TAB:
        path.write_text("".join(map("{}\t{}\t{}\t{}\n".format, *(c.tolist() for c in columns))))
    else:
        rows = map("{},{},{}\n".format, *(c.tolist() for c in columns[:3]))
        path.write_text("person,movie,rating\n" + "".join(rows))
    tracemalloc.start()
    try:
        g = load_ratings(path, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count + g.duplicate_count == n
    assert peak <= 64 * n


# -- ids to indices -------------------------------------------------------------


def _count_searchsorted(monkeypatch) -> list:
    """(ids, endpoints) of every np.searchsorted call, as lists."""
    calls = []
    search = np.searchsorted

    def counted(a, v, *args, **kwargs):
        calls.append((np.asarray(a).tolist(), np.asarray(v).tolist()))
        return search(a, v, *args, **kwargs)
    monkeypatch.setattr(np, "searchsorted", counted)
    return calls


def test_sparse_ids_map_by_searchsorted(monkeypatch):
    pairs = [(0, 1), (2**62, 2**40), (0, 2**40), (2**62, 1), (0, 1), (5, 2**40)]
    calls = _count_searchsorted(monkeypatch)
    g = BipartiteRatings(np.array(pairs, dtype=np.int64))
    assert ratings_of(g) == ratings_oracle(pairs)
    assert ([0, 5, 2**62], [p for p, _ in pairs]) in calls
    assert ([1, 2**40], [m for _, m in pairs]) in calls


def test_dense_ids_map_by_table(monkeypatch):
    rng = random.Random("dense")
    pairs = [(rng.randint(1, 30), rng.randint(1, 50)) for _ in range(200)]
    calls = _count_searchsorted(monkeypatch)
    g = BipartiteRatings(pairs)
    assert ratings_of(g) == ratings_oracle(pairs)
    assert calls == []


def test_given_vertex_sets_with_unused_ids_match_oracle():
    for seed in range(20):
        rng = random.Random(f"given:{seed}")
        n_people, n_movies = rng.randint(1, 60), rng.randint(1, 40)
        pairs = [(rng.randint(1, n_people), rng.randint(1, n_movies))
                 for _ in range(rng.randint(0, 3 * n_people))]
        people, movies = list(range(1, n_people + 1)), list(range(1, n_movies + 1))
        if seed % 2:  # an unused huge id sends the lookup to searchsorted
            people.append(2**62)
            movies.append(10**12)
        g = BipartiteRatings(pairs, people=people, movies=movies)
        assert ratings_of(g) == ratings_oracle(pairs, people=people, movies=movies)


def test_lookup_table_never_sized_by_a_huge_id():
    pairs = [(p, p % 7) for p in range(1000)]
    for people, movies in (([*range(1000), 10**8], None), (None, [*range(7), 10**8])):
        tracemalloc.start()
        try:
            g = BipartiteRatings(pairs, people=people, movies=movies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == 1000
        assert peak < 200 * len(pairs)  # a table over the ids would take 800 MB


def test_array_and_pair_construction_match_oracle():
    for seed in range(40):
        rng = random.Random(f"construct:{seed}")
        g = random_ratings(seed)
        pairs = edge_ids(g)
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))
        rng.shuffle(pairs)
        people, movies = g.people.tolist(), g.movies.tolist()
        variants = [
            {},
            {"people": people + [10_000, 7_777], "movies": movies + [5_000]},
            {"people": people[1:], "movies": movies},
            {"people": people, "movies": movies[:-1]},
            {"people": [-1] + people},
        ]
        for edges in (pairs, []):
            array = np.array(edges, dtype=np.int64).reshape(-1, 2)
            for ids in variants:
                expected = _outcome(lambda: ratings_oracle(edges, **ids))
                assert _outcome(lambda: ratings_of(BipartiteRatings(iter(edges), **ids))) == expected
                assert _outcome(lambda: ratings_of(BipartiteRatings(array, **ids))) == expected
        built = BipartiteRatings(np.array(pairs))
        expected = ratings_oracle(pairs)
        rated, raters = movies_by_person(built), people_by_movie(built)
        for p in expected.people:
            assert rated[p] == {m for q, m in expected.edges if q == p}
        for m in expected.movies:
            assert raters[m] == {p for p, n in expected.edges if n == m}
        assert built.edge_person_idx.dtype == built.edge_movie_idx.dtype == np.int64


def test_export_round_trip(tmp_path):
    g = random_ratings(7)
    path = tmp_path / "out.tab"
    write_movielens_tab(g, path)
    g2 = load_ratings(path, MOVIELENS_TAB)
    assert edge_ids(g) == edge_ids(g2)


# -- sparsity and connectivity -----------------------------------------------------


def test_sparsity_exact_rational():
    g = BipartiteRatings([(1, 10), (1, 11), (2, 10), (3, 12), (3, 11)],
                         people=[1, 2, 3], movies=[10, 11, 12])
    assert sparsity(g) == (9 - 5) / 9


def test_sparsity_extremes():
    full = BipartiteRatings([(p, m) for p in (1, 2) for m in (10, 11)])
    assert sparsity(full) == 0.0
    empty = BipartiteRatings([], people=[1, 2], movies=[10])
    assert sparsity(empty) == 1.0


def test_sparsity_undefined_without_modes():
    g = BipartiteRatings([], people=[], movies=[])
    with pytest.raises(UndefinedMetricError):
        sparsity(g)


def test_connectivity():
    assert is_connected_bipartite(BipartiteRatings([(1, 10)]))
    two_islands = BipartiteRatings([(1, 10), (2, 11)])
    assert not is_connected_bipartite(two_islands)
    chained = BipartiteRatings([(1, 10), (2, 10), (2, 11), (3, 11)])
    assert is_connected_bipartite(chained)


def test_isolated_vertex_disconnects():
    g = BipartiteRatings([(1, 10)], people=[1, 2], movies=[10])
    assert not is_connected_bipartite(g)


# -- BFS reach ---------------------------------------------------------------------


def test_reach_depth_zero_is_one():
    g = BipartiteRatings([(1, 10), (2, 10)])
    assert bfs_reach_count(g, 1, 0) == 1


def test_reach_depth_one_counts_rated_movies():
    g = BipartiteRatings([(1, 10), (1, 11), (1, 12), (2, 10)])
    assert bfs_reach_count(g, 1, 1) == 4


def test_reach_monotone_and_saturating():
    for seed in range(30):
        g = random_ratings(seed)
        start = int(g.people[0])
        prev = 0
        for depth in range(8):
            cur = bfs_reach_count(g, start, depth)
            assert cur >= prev
            prev = cur
        if is_connected_bipartite(g):
            assert prev == g.n_people + g.n_movies


def test_reach_depth_two_is_movies_and_co_raters():
    # the two-step reach AC10 reports: the person, the movies they rate and
    # the people who share one with them, their width-1 social degree
    people = 0
    for seed in range(30):
        g = random_ratings(seed)
        gs = apply_jump(g, 1)
        assert np.array_equal(gs.vertices, g.people)
        for p, rated, co_raters in zip(g.people.tolist(), g.person_degrees().tolist(),
                                       gs.degrees().tolist()):
            assert bfs_reach_count(g, p, 2) == 1 + rated + co_raters
            people += 1
    assert people == 191


def test_reach_matches_boolean_frontier_oracle():
    # every person of 30 random tables at depths 0-8, past saturation, then a
    # table of two islands with an isolated person and an unrated movie
    tables = [random_ratings(seed) for seed in range(30)]
    tables.append(BipartiteRatings([(1, 10), (2, 10), (2, 11), (3, 11), (4, 12), (5, 12)],
                                   people=[1, 2, 3, 4, 5, 6], movies=[10, 11, 12, 13]))
    assert sum(not is_connected_bipartite(g) for g in tables) >= 2
    for g in tables:
        for p in g.people.tolist():
            for depth in range(9):
                assert bfs_reach_count(g, p, depth) == bipartite_reach(g, p, depth), (p, depth)
    assert [bfs_reach_count(tables[-1], 1, d) for d in range(5)] == [1, 2, 3, 4, 5]
    assert bfs_reach_count(tables[-1], 6, 3) == 1


def test_reach_unknown_start():
    g = BipartiteRatings([(1, 10)])
    with pytest.raises(UnknownNodeError):
        bfs_reach_count(g, 999, 2)
    with pytest.raises(UnknownNodeError):
        bipartite_reach(g, 999, 2)


def test_reach_negative_depth():
    g = BipartiteRatings([(1, 10)])
    with pytest.raises(ValueError):
        bfs_reach_count(g, 1, -1)
    with pytest.raises(ValueError):
        bipartite_reach(g, 1, -1)


# -- hits-buffs ordering ----------------------------------------------------------


def test_ordering_descending_with_id_ties():
    g = BipartiteRatings([(1, 10), (1, 11), (2, 10), (3, 11), (3, 12), (3, 13)])
    order = reorder_hits_buffs(g)
    assert order.buff_rank == (3, 1, 2)
    assert order.hit_rank[0] in (10, 11)  # both degree 2, tie to smaller id
    assert order.hit_rank == (10, 11, 12, 13)


def test_ordering_all_ties_is_ascending_ids():
    g = BipartiteRatings([(5, 10), (3, 11), (4, 12)])
    order = reorder_hits_buffs(g)
    assert order.buff_rank == (3, 4, 5)


def test_ordering_is_bijection_and_idempotent():
    for seed in range(30):
        g = random_ratings(seed)
        order = reorder_hits_buffs(g)
        assert sorted(order.buff_rank) == [int(p) for p in g.people]
        assert sorted(order.hit_rank) == [int(m) for m in g.movies]
        degs = dict(zip(g.people.tolist(), g.person_degrees().tolist()))
        seq = [degs[p] for p in order.buff_rank]
        assert seq == sorted(seq, reverse=True)
        assert reorder_hits_buffs(g) == order
        # the (-degree, id) sort key, one item at a time
        for ids, degrees, rank in ((g.people, g.person_degrees(), order.buff_rank),
                                   (g.movies, g.movie_degrees(), order.hit_rank)):
            keyed = sorted(zip(degrees.tolist(), ids.tolist()), key=lambda di: (-di[0], di[1]))
            assert rank == tuple(i for _, i in keyed)


# -- power-law fitting ------------------------------------------------------------


def test_fit_recovers_generating_exponent():
    degrees = [math.ceil(1000 * b ** -0.5) for b in range(1, 501)]
    fit = fit_power_law(degrees)
    assert abs(fit.alpha - 0.5) <= 0.05
    assert abs(1 / fit.tau) <= 1e-4  # no cutoff in the data
    assert fit.residual >= 0


def test_fit_recovers_alpha_and_tau_on_noiseless_curve():
    alpha, tau = 1.1, 300.0
    values = [5000.0 * b ** -alpha * math.exp(-b / tau) for b in range(1, 601)]
    fit = fit_power_law(values)
    assert abs(fit.alpha - alpha) / alpha <= 0.05
    assert abs(fit.tau - tau) / tau <= 0.05
    assert fit.residual < 1e-12


def test_fit_constant_sequence_is_flat():
    fit = fit_power_law([7] * 100)
    assert abs(fit.alpha) <= 0.01


def test_fit_rejects_short_and_nonpositive():
    with pytest.raises(FitError):
        fit_power_law([3, 2])
    with pytest.raises(FitError):
        fit_power_law([3, 2, 0, 1])


# -- conditional golden checks ---------------------------------------------------


def test_movielens_shape(ml100k):
    assert ml100k.n_people == 943
    assert ml100k.n_movies == 1682
    assert ml100k.edge_count == 100000
    assert abs(sparsity(ml100k) - 0.9370) <= 0.0005
    assert is_connected_bipartite(ml100k)


def test_eachmovie_buff_and_reach(eachmovie):
    order = reorder_hits_buffs(eachmovie)
    top = order.buff_rank[0]
    degs = dict(zip(eachmovie.people.tolist(), eachmovie.person_degrees().tolist()))
    assert degs[top] == 1455
    assert bfs_reach_count(eachmovie, top, 2) == 62705


def test_eachmovie_power_law(eachmovie):
    order = reorder_hits_buffs(eachmovie)
    degs = dict(zip(eachmovie.people.tolist(), eachmovie.person_degrees().tolist()))
    fit = fit_power_law([degs[p] for p in order.buff_rank])
    assert abs(fit.alpha - 1.3) / 1.3 <= 0.20
    assert abs(fit.tau - 10000) / 10000 <= 0.20
