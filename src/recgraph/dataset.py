"""Rating datasets as bipartite person-movie graphs.

Two on-disk formats are supported: the tab-separated layout used by the
MovieLens distributions (person, movie, rating, timestamp; no header) and a
generic CSV with a ``person,movie[,rating]`` header.  Either is read by
``np.loadtxt`` when a byte check finds only ASCII digits, dots, separators
and line ends; any other file, or one that numpy refuses, is read row by
row, which also names the first malformed line.  Parsed ratings become an
immutable bipartite graph, built from one (m, 2) array of (person, movie)
ids, and everything downstream (jumps, metrics, the synthetic generator)
works from that graph.

People and movies keep their external integer ids.  The two id spaces are
independent: person 7 and movie 7 are different vertices.
"""

from __future__ import annotations

import codecs
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .edges import Csr, component_labels, csr
from .errors import (
    EmptyDatasetError,
    FitError,
    ParseError,
    UndefinedMetricError,
    UnknownNodeError,
)

# Input formats, by the names the CLI's --format takes.
MOVIELENS_TAB = "movielens"
GENERIC_CSV = "csv"

FORMATS = (MOVIELENS_TAB, GENERIC_CSV)


class BipartiteRatings:
    """Immutable bipartite graph of people and the movies they rated.

    ``pairs`` is an iterable of (person, movie) pairs or an (m, 2) integer
    array.  Duplicate pairs collapse to a single edge; the number of
    collapsed rows is kept in ``duplicate_count``.  ``people``/``movies``
    may be passed explicitly to retain ids that never appear on an edge.
    """

    def __init__(self, pairs, people=None, movies=None):
        edges = _int64_array(pairs)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("pairs must be (person, movie) pairs")
        self.people = _vertex_ids(edges[:, 0], people, "person")
        self.movies = _vertex_ids(edges[:, 1], movies, "movie")
        if (self.n_people and self.people[0] < 0) or (self.n_movies and self.movies[0] < 0):
            raise ValueError("person and movie ids must be non-negative")
        # One sort dedupes the pairs and leaves them in (person, movie) order.
        keys = _positions(self.people, edges[:, 0])
        keys *= self.n_movies
        keys += _positions(self.movies, edges[:, 1])
        keys = _unique(keys)
        self.duplicate_count = len(edges) - len(keys)
        self.edge_person_idx, self.edge_movie_idx = np.divmod(keys, max(self.n_movies, 1))
        self._raters = None

    # -- basic shape ----------------------------------------------------

    @property
    def n_people(self) -> int:
        return len(self.people)

    @property
    def n_movies(self) -> int:
        return len(self.movies)

    @property
    def edge_count(self) -> int:
        return len(self.edge_person_idx)

    def __repr__(self):
        return (f"BipartiteRatings(n_people={self.n_people}, n_movies={self.n_movies}, "
                f"edges={self.edge_count})")

    # -- lookups ---------------------------------------------------------

    def person_degrees(self) -> np.ndarray:
        """Rating counts aligned with ``self.people``."""
        return np.bincount(self.edge_person_idx, minlength=self.n_people)

    def movie_degrees(self) -> np.ndarray:
        """Rating counts aligned with ``self.movies``."""
        return np.bincount(self.edge_movie_idx, minlength=self.n_movies)

    def rater_csr(self) -> Csr:
        """Row j lists the people who rated movie j, ascending (cached); see ``edges.Csr``."""
        if self._raters is None:
            self._raters = csr(self.n_movies, self.edge_movie_idx, self.edge_person_idx)
        return self._raters


def _int64_array(values) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=np.int64)


def _unique(values) -> np.ndarray:
    """Sorted distinct values, by one sort.

    ``np.unique`` takes a hash-table path since numpy 2.3 that measured 45 ms
    on 100k int64 keys, where this takes about 1 ms.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


# A lookup table of ids maps endpoints to indices when the largest id is
# below this many times the endpoint count, so it never outgrows the edges.
_TABLE_SPAN = 2


def _positions(ids, endpoints) -> np.ndarray:
    """Index of each endpoint in the sorted id array ``ids``, which holds them all.

    A table indexed by id when the ids are dense (0.17 ms for the 100k
    person ids of an ML-100k-shaped file, where ``searchsorted`` takes
    8.1 ms); sparse or huge ids keep ``searchsorted``.
    """
    if len(ids) and ids[-1] < _TABLE_SPAN * len(endpoints):
        table = np.empty(ids[-1] + 1, dtype=np.int64)
        table[ids] = np.arange(len(ids))
        return table[endpoints]
    return np.searchsorted(ids, endpoints)


def _vertex_ids(endpoints, given, side) -> np.ndarray:
    """Sorted ids of one side: the edge endpoints, or ``given`` when passed."""
    endpoints = _unique(endpoints)
    if given is None:
        return endpoints
    ids = _unique(_int64_array(given))
    stray = np.setdiff1d(endpoints, ids, assume_unique=True)
    if len(stray):
        raise UnknownNodeError(f"edge endpoints outside the {side} set: {stray[:5].tolist()}")
    return ids


# -- parsing -------------------------------------------------------------

# Largest person or movie id; ids are stored as int64.
_ID_MAX = 2**63 - 1

# Fields of a rating row, in file order; a CSV file has the first two or three.
_FIELDS = [("person", np.int64), ("movie", np.int64), ("rating", np.float64), ("stamp", np.int64)]


def _parse_int(field, path, lineno, what, limit=_ID_MAX):
    """Non-negative integer field, at most ``limit`` unless that is None."""
    try:
        value = int(field)
    except ValueError:
        raise ParseError(path, lineno, f"{what} is not an integer: {field!r}") from None
    if value < 0:
        raise ParseError(path, lineno, f"{what} must be non-negative: {value}")
    if limit is not None and value > limit:
        raise ParseError(path, lineno, f"{what} exceeds {limit}: {value}")
    return value


def _scan_bytes(path, fmt) -> np.ndarray | None:
    """(m, 2) person/movie array of a file in the strict form, or None.

    The strict form holds ASCII digits, ``.``, CR, LF and the separator: a
    tab, or a comma after a first line of exactly ``person,movie`` or
    ``person,movie,rating`` and its LF or CRLF.  No run of digits is longer
    than 640, so ``int`` reads each one however its digit limit is set.
    ``np.loadtxt`` reads such a file, and gives None for a wrong field
    count, an empty field, an id past int64 or any token that ``int`` or
    ``float`` would not read to the same value.  A leading UTF-8
    byte-order mark is skipped.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    sep, width = "\t", 4
    if fmt == GENERIC_CSV:
        header, _, data = data.partition(b"\n")
        sep, width = ",", {b"person,movie": 2, b"person,movie,rating": 3}.get(header.removesuffix(b"\r"))
        if width is None:
            return None
    # a digit reads "0", a dot, CR, LF or the separator ".", any other byte "x"
    form = data.translate(bytes(ord("0") if c in "0123456789" else ord(".") if c in ".\r\n" + sep
                                else ord("x") for c in map(chr, range(256))))
    del data
    # 640 digits: the least limit sys.set_int_max_str_digits takes
    # (sys.int_info.str_digits_check_threshold, from Python 3.10.7 on)
    if b"x" in form or b"0" * 641 in form:
        return None
    del form
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # given for a table of no rows
        # numpy releases that still read "1.5" as the int 1 warn when they do
        warnings.simplefilter("error", DeprecationWarning)
        try:
            table = np.loadtxt(path, dtype=_FIELDS[:width], delimiter=sep, comments=None,
                               encoding="utf-8-sig", skiprows=int(fmt == GENERIC_CSV), ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
    return np.column_stack((table["person"], table["movie"]))


def _scan_rows(path, fmt):
    """Yield the (person, movie) pair of each rating row.

    The lenient path, for files ``_scan_bytes`` gives None for.  A tab file
    is split on its tabs, four unquoted fields of any length a row, and
    needs its rating; a CSV file is read by ``csv.reader``, which takes
    quoting, a ``person,movie[,rating]`` header in any case and spacing,
    and a blank rating.  Fields take what ``int`` and ``float`` take
    (signs, underscores, padding, non-ASCII digits), and a lone CR ends a
    line.  Raises ParseError at the first bad line; an undecodable byte
    stays in its line (as a lone surrogate) and fails the field parse there.
    """
    tab = fmt == MOVIELENS_TAB
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        try:
            if tab:
                width = 4
                rows = ((n, line.rstrip("\r\n").split("\t")) for n, line in enumerate(fh, 1))
            else:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    raise EmptyDatasetError(f"{path}: empty file")
                width = len(header)
                if [h.strip().lower() for h in header] not in (
                        ["person", "movie"], ["person", "movie", "rating"]):
                    raise ParseError(path, 1, "header must be person,movie[,rating]")
                rows = ((reader.line_num, row) for row in reader)  # a quoted field may span lines
            for lineno, row in rows:
                if not any(cell.strip() for cell in row):
                    continue
                if len(row) != width:
                    kind = "tab-separated fields" if tab else "fields"
                    raise ParseError(path, lineno, f"expected {width} {kind}, got {len(row)}")
                ids = row[:2] if tab else [cell.strip() for cell in row[:2]]
                person = _parse_int(ids[0], path, lineno, "person id")
                movie = _parse_int(ids[1], path, lineno, "movie id")
                if width > 2 and (tab or row[2].strip()):
                    try:
                        float(row[2])
                    except ValueError:
                        raise ParseError(path, lineno, f"rating is not numeric: {row[2]!r}") from None
                if tab:
                    _parse_int(row[3], path, lineno, "timestamp", limit=None)
                yield person, movie
        except csv.Error as exc:  # a CSV field past csv.field_size_limit(), say
            raise ParseError(path, reader.line_num, str(exc)) from None


def load_ratings(path, fmt=MOVIELENS_TAB) -> BipartiteRatings:
    """Parse a ratings file into a BipartiteRatings graph.

    A file in the strict form is read by ``np.loadtxt``: ASCII digits, dots,
    tabs (or commas after an exact lower-case ``person,movie[,rating]`` CSV
    header), LF, CRLF or lone CR line ends, and no run of more than 640
    digits.  A file with anything else, such as padded, signed or quoted
    fields, or one numpy refuses, such as an id past int64, is read again
    row by row from line 1.  Malformed rows, undecodable bytes and person
    or movie ids past int64 raise ParseError with the 1-based line number.
    Duplicate (person, movie) rows collapse to one edge and are counted on
    the returned graph.  A file with no rating rows raises
    EmptyDatasetError.  A leading UTF-8 byte-order mark is skipped.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r} (expected one of {FORMATS})")
    pairs = _scan_bytes(path, fmt)
    if pairs is None:
        pairs = np.fromiter(_scan_rows(path, fmt), dtype=(np.int64, 2))
    graph = BipartiteRatings(pairs)
    if graph.edge_count == 0:
        raise EmptyDatasetError(f"{path}: no ratings found")
    return graph


# -- whole-dataset measures ----------------------------------------------


def sparsity(g: BipartiteRatings) -> float:
    """Fraction of the person x movie board left empty."""
    cells = g.n_people * g.n_movies
    if cells == 0:
        raise UndefinedMetricError("sparsity needs at least one person and one movie")
    return (cells - g.edge_count) / cells


def is_connected_bipartite(g: BipartiteRatings) -> bool:
    """True when one component spans every person and every movie."""
    # labels number people, then movies; one component labels them all 0
    return not component_labels(g.n_people + g.n_movies, g.edge_person_idx,
                                g.edge_movie_idx + g.n_people).any()


# -- hits and buffs -------------------------------------------------------


@dataclass(frozen=True)
class HitsBuffsOrdering:
    """People and movies ranked by rating count, most active first.

    ``buff_rank[0]`` is the person with buff index 1 (the heaviest rater);
    ties break toward the smaller raw id.  ``hit_rank`` does the same for
    movies.
    """

    buff_rank: tuple
    hit_rank: tuple


def reorder_hits_buffs(g: BipartiteRatings) -> HitsBuffsOrdering:
    """Rank people and movies by descending degree (ties by ascending id).

    The ids are sorted, so a stable sort of the negated degrees keeps ties
    in id order.
    """
    buffs = np.argsort(-g.person_degrees(), kind="stable")
    hits = np.argsort(-g.movie_degrees(), kind="stable")
    return HitsBuffsOrdering(
        buff_rank=tuple(g.people[buffs].tolist()),
        hit_rank=tuple(g.movies[hits].tolist()),
    )


# -- power-law fit ---------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of counts to C * rank**-alpha * exp(-rank / tau).

    tau comes back as the negative reciprocal of the rank coefficient; it
    is positive when the data actually decays, and infinite when the
    coefficient is exactly zero.
    """

    alpha: float
    tau: float
    intercept: float
    residual: float


def fit_power_law(counts) -> PowerLawFit:
    """Fit a rank-ordered count sequence to a power law with exponential cutoff.

    Works in log space: log y = intercept - alpha * log b - b / tau over
    ranks b = 1..len(counts).  Zero or negative counts make the log
    undefined and raise FitError, as do sequences shorter than 3.
    """
    y = np.asarray(counts, dtype=float)
    if y.ndim != 1 or len(y) < 3:
        raise FitError("need at least 3 counts for a fit")
    if np.any(y <= 0):
        raise FitError("counts must be positive (log undefined at zero)")
    b = np.arange(1, len(y) + 1, dtype=float)
    x = np.column_stack([np.ones_like(b), np.log(b), b])
    target = np.log(y)
    coef, _, _, _ = np.linalg.lstsq(x, target, rcond=None)
    residual = float(np.sum((x @ coef - target) ** 2))
    alpha = -float(coef[1])
    slope = float(coef[2])
    tau = math.inf if slope == 0.0 else -1.0 / slope
    return PowerLawFit(alpha=alpha, tau=tau, intercept=float(coef[0]), residual=residual)
