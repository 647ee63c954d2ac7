"""Rating datasets as bipartite person-movie graphs.

Two on-disk formats are supported: the tab-separated layout used by the
MovieLens distributions (person, movie, rating, timestamp; no header) and a
generic CSV with a ``person,movie[,rating]`` header.  Either is read by a
numpy scan over its bytes when every line keeps to a strict grammar of
ASCII digits and separators; any other file is read row by row, which also
names the first malformed line.  Parsed ratings become an immutable bipartite
graph, built from one (m, 2) array of (person, movie) ids, and everything
downstream (jumps, metrics, the synthetic generator) works from that graph.

People and movies keep their external integer ids.  The two id spaces are
independent: person 7 and movie 7 are different vertices.
"""

from __future__ import annotations

import codecs
import csv
import math
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

# Bytes read at a time by the byte scan; a block's index arrays stay in
# cache (ML-100k is eight blocks), and memory stays bounded as files grow.
LOAD_BLOCK_CHARS = 256 << 10


# Largest person or movie id; ids are stored as int64.
_ID_MAX = 2**63 - 1

# Longest id or timestamp the byte scan reads: 18 digits always fit in int64.
_SCAN_DIGITS = 18

_TAB, _COMMA, _LF, _CR, _DOT, _ZERO = b"\t,\n\r.0"


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


def _scan_block(data, sep, width) -> np.ndarray | None:
    """(m, 2) person/movie array of whole lines, the last ending in LF, or None.

    Reads only the strict grammar: ``width`` fields split by the byte
    ``sep`` and ended by LF or CRLF, with a rating (field 2, when there is
    one) of digits with at most one inner ``.`` and every other field of
    1-18 ASCII digits; empty lines are skipped.  Any other byte or shape
    gives None.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    cr = np.flatnonzero(buf == _CR)
    if len(cr):
        if (buf[cr + 1] != _LF).any():  # the last byte is a newline, so cr + 1 is in range
            return None
        buf = np.delete(buf, cr)
    lf = buf == _LF
    blank = lf.copy()  # a newline that starts the block or follows another
    blank[1:] &= lf[:-1]
    if blank.any():
        buf = buf[~blank]
    other = np.flatnonzero((buf - _ZERO) >= 10)  # every byte but the ASCII digits
    is_dot = buf[other] == _DOT
    dots, seps = other[is_dot], other[~is_dot]
    line_ends = np.array([sep] * (width - 1) + [_LF], dtype=np.uint8)
    if len(seps) % width or (buf[seps].reshape(-1, width) != line_ends).any():
        return None
    fields = np.diff(seps, prepend=-1).reshape(-1, width) - 1  # field lengths, one row per line
    if fields.size and (fields.min() < 1 or fields[:, np.arange(width) != 2].max() > _SCAN_DIGITS):
        return None
    if len(dots):
        field = np.searchsorted(seps, dots)
        # the last byte is a newline, so dots - 1 and dots + 1 are in range
        if ((field % width != 2).any() or (np.diff(field) == 0).any()
                or ((buf[dots - 1] - _ZERO) >= 10).any() or ((buf[dots + 1] - _ZERO) >= 10).any()):
            return None
    return _digit_values(buf, seps.reshape(-1, width)[:, :2], fields[:, :2])


def _digit_values(buf, ends, lengths) -> np.ndarray:
    """Values of the ASCII-digit fields that end before ``ends``, ``lengths`` long."""
    values = np.zeros(ends.shape, dtype=np.int64)
    for k in range(int(lengths.max(initial=0)), 0, -1):
        digit = buf[ends - k].astype(np.int64) - _ZERO
        values = values * 10 + digit * (lengths >= k)
    return values


def _scan_bytes(path, fmt) -> np.ndarray | None:
    """(m, 2) person/movie array of a file in the strict grammar, or None.

    A tab file has four fields a line.  A CSV file's first line must be
    exactly ``person,movie`` or ``person,movie,rating``, which sets its
    field count; any other header gives None.  Reads blocks of at most
    ``LOAD_BLOCK_CHARS`` bytes, cuts each at its last newline and carries
    the rest into the next; a leading UTF-8 byte-order mark is skipped.
    None as soon as a block leaves the grammar of ``_scan_block``.
    """
    blocks = [np.empty((0, 2), dtype=np.int64)]
    with open(path, "rb") as fh:
        head = fh.read(len(codecs.BOM_UTF8))
        rest = b"" if head == codecs.BOM_UTF8 else head
        sep, width = _TAB, 4
        if fmt == GENERIC_CSV:
            # the shortest header is longer than the bytes read for a BOM
            header = (rest + fh.readline()).removesuffix(b"\n").removesuffix(b"\r")
            sep, rest = _COMMA, b""
            width = {b"person,movie": 2, b"person,movie,rating": 3}.get(header)
            if width is None:
                return None
        while chunk := fh.read(LOAD_BLOCK_CHARS):
            data = rest + chunk
            cut = data.rfind(b"\n") + 1
            blocks.append(_scan_block(memoryview(data)[:cut], sep, width))
            rest = data[cut:]
            if blocks[-1] is None:
                return None
    blocks.append(_scan_block(rest + b"\n", sep, width))  # a last line without its newline
    return None if blocks[-1] is None else np.concatenate(blocks)


def _scan_rows(path, fmt):
    """Yield the (person, movie) pair of each rating row, read by ``csv.reader``.

    The lenient path, for files the byte scan rejects.  A tab file has four
    unquoted fields a row and needs its rating; a CSV file takes the csv
    module's quoting, a ``person,movie[,rating]`` header in any case and
    spacing, and a blank rating.  Fields take what ``int`` and ``float``
    take (signs, underscores, padding, non-ASCII digits), and a lone CR
    ends a line.  Raises ParseError at the first bad line; an undecodable
    byte stays in its line (as a lone surrogate) and fails the field parse
    there.
    """
    tab = fmt == MOVIELENS_TAB
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE) if tab else csv.reader(fh)
        try:
            width = 4
            if not tab:
                header = next(reader, None)
                if header is None:
                    raise EmptyDatasetError(f"{path}: empty file")
                width = len(header)
                if [h.strip().lower() for h in header] not in (
                        ["person", "movie"], ["person", "movie", "rating"]):
                    raise ParseError(path, 1, "header must be person,movie[,rating]")
            for row in reader:
                if not any(cell.strip() for cell in row):
                    continue
                lineno = reader.line_num  # a quoted field may span lines
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
        except csv.Error as exc:  # a field past csv.field_size_limit(), say
            raise ParseError(path, reader.line_num, str(exc)) from None


def load_ratings(path, fmt=MOVIELENS_TAB) -> BipartiteRatings:
    """Parse a ratings file into a BipartiteRatings graph.

    Both formats are read from their bytes, one block at a time, by a
    numpy scan of a strict grammar: ASCII digits, tabs (or commas after an
    exact lower-case ``person,movie[,rating]`` CSV header), LF or CRLF line
    ends.  A file with anything else, such as padded, signed or quoted
    fields, lone CR line ends or ids of 19 digits or more, is read again
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
