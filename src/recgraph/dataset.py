"""Rating datasets as bipartite person-movie graphs.

Two on-disk formats are supported: the tab-separated layout used by the
MovieLens distributions (person, movie, rating, timestamp; no header) and a
generic CSV with a ``person,movie[,rating]`` header.  A tab file is read
by a numpy scan over its bytes when every line keeps to a strict grammar of
ASCII digits and tabs; any other file is read row by row, which also names
the first malformed line.  Parsed ratings become an immutable bipartite
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


def _index_of(ids, value, side) -> int:
    """Index of an id in the sorted id array ``ids``; UnknownNodeError if absent."""
    v = int(value)
    i = int(np.searchsorted(ids, v))
    if i == len(ids) or ids[i] != v:
        raise UnknownNodeError(f"unknown {side} id: {value}")
    return i


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

# Bytes read at a time by the tab loader; a block's index arrays stay in
# cache (ML-100k is eight blocks), and memory stays bounded as files grow.
LOAD_BLOCK_CHARS = 256 << 10


# Largest person or movie id; ids are stored as int64.
_ID_MAX = 2**63 - 1

# Longest id or timestamp the byte scan reads: 18 digits always fit in int64.
_SCAN_DIGITS = 18

_TAB, _LF, _CR, _DOT, _ZERO = b"\t\n\r.0"
_LINE_SEPARATORS = np.array([_TAB, _TAB, _TAB, _LF], dtype=np.uint8)


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


def _scan_tab_block(data) -> np.ndarray | None:
    """(m, 2) person/movie array of whole lines, the last ending in LF, or None.

    Reads only the strict grammar: four tab-separated fields ended by LF
    or CRLF, with person, movie and timestamp of 1-18 ASCII digits and a
    rating of digits with at most one inner ``.``; empty lines are
    skipped.  Any other byte or shape gives None.
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
    if len(seps) % 4 or (buf[seps].reshape(-1, 4) != _LINE_SEPARATORS).any():
        return None
    fields = np.diff(seps, prepend=-1).reshape(-1, 4) - 1  # field lengths, one row per line
    if fields.size and (fields.min() < 1 or fields[:, [0, 1, 3]].max() > _SCAN_DIGITS):
        return None
    if len(dots):
        field = np.searchsorted(seps, dots)
        # the last byte is a newline, so dots - 1 and dots + 1 are in range
        if ((field % 4 != 2).any() or (np.diff(field) == 0).any()
                or ((buf[dots - 1] - _ZERO) >= 10).any() or ((buf[dots + 1] - _ZERO) >= 10).any()):
            return None
    return _digit_values(buf, seps.reshape(-1, 4)[:, :2], fields[:, :2])


def _digit_values(buf, ends, lengths) -> np.ndarray:
    """Values of the ASCII-digit fields that end before ``ends``, ``lengths`` long."""
    values = np.zeros(ends.shape, dtype=np.int64)
    for k in range(int(lengths.max(initial=0)), 0, -1):
        digit = buf[ends - k].astype(np.int64) - _ZERO
        values = values * 10 + digit * (lengths >= k)
    return values


def _scan_tab_bytes(path) -> np.ndarray | None:
    """(m, 2) person/movie array of a strict tab file, or None.

    Reads blocks of at most ``LOAD_BLOCK_CHARS`` bytes, cuts each at its
    last newline and carries the rest into the next; a leading UTF-8
    byte-order mark is skipped.  None as soon as a block leaves the strict
    grammar of ``_scan_tab_block``.
    """
    blocks = [np.empty((0, 2), dtype=np.int64)]
    with open(path, "rb") as fh:
        head = fh.read(len(codecs.BOM_UTF8))
        rest = b"" if head == codecs.BOM_UTF8 else head
        while chunk := fh.read(LOAD_BLOCK_CHARS):
            data = rest + chunk
            cut = data.rfind(b"\n") + 1
            blocks.append(_scan_tab_block(memoryview(data)[:cut]))
            rest = data[cut:]
            if blocks[-1] is None:
                return None
    blocks.append(_scan_tab_block(rest + b"\n"))  # a last line without its newline
    return None if blocks[-1] is None else np.concatenate(blocks)


def _scan_tab_rows(path):
    """Yield the (person, movie) pair of each rating row of a tab file.

    The lenient path, for files the byte scan rejects: fields take what
    ``int`` and ``float`` take (signs, underscores, padding, non-ASCII
    digits), and a lone CR ends a line.  Raises ParseError at the first bad
    line; an undecodable byte stays in its line (as a lone surrogate) and
    fails the field parse there.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(path, lineno, f"expected 4 tab-separated fields, got {len(fields)}")
            person = _parse_int(fields[0], path, lineno, "person id")
            movie = _parse_int(fields[1], path, lineno, "movie id")
            try:
                float(fields[2])
            except ValueError:
                raise ParseError(path, lineno, f"rating is not numeric: {fields[2]!r}") from None
            _parse_int(fields[3], path, lineno, "timestamp", limit=None)
            yield person, movie


def _iter_generic_csv(path):
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyDatasetError(f"{path}: empty file")
            header = [h.strip().lower() for h in header]
            if header[:2] != ["person", "movie"] or len(header) > 3 or (
                    len(header) == 3 and header[2] != "rating"):
                raise ParseError(path, 1, "header must be person,movie[,rating]")
            has_rating = len(header) == 3
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                lineno = reader.line_num  # a quoted field may span lines
                if len(row) != len(header):
                    raise ParseError(path, lineno, f"expected {len(header)} fields, got {len(row)}")
                person = _parse_int(row[0].strip(), path, lineno, "person id")
                movie = _parse_int(row[1].strip(), path, lineno, "movie id")
                if has_rating and row[2].strip():
                    try:
                        float(row[2])
                    except ValueError:
                        raise ParseError(path, lineno, f"rating is not numeric: {row[2]!r}") from None
                yield person, movie
        except csv.Error as exc:  # a field past csv.field_size_limit(), say
            raise ParseError(path, reader.line_num, str(exc)) from None


def load_ratings(path, fmt=MOVIELENS_TAB) -> BipartiteRatings:
    """Parse a ratings file into a BipartiteRatings graph.

    The tab format is read from its bytes, one block at a time, by a numpy
    scan of a strict grammar (ASCII digits, tabs, LF or CRLF line ends).
    A file with anything else, such as padded or signed fields, lone CR
    line ends or ids of 19 digits or more, is read again row by row from
    line 1.  Malformed rows, undecodable bytes and person or movie ids past
    int64 raise ParseError with the 1-based line number.  Duplicate
    (person, movie) rows collapse to one edge and are counted on the
    returned graph.  A file with no rating rows raises EmptyDatasetError.
    A leading UTF-8 byte-order mark is skipped.
    """
    if fmt == MOVIELENS_TAB:
        pairs = _scan_tab_bytes(path)
        if pairs is None:
            pairs = np.fromiter(_scan_tab_rows(path), dtype=(np.int64, 2))
    elif fmt == GENERIC_CSV:
        pairs = _iter_generic_csv(path)
    else:
        raise ValueError(f"unknown format: {fmt!r} (expected one of {FORMATS})")
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


def bfs_reach_count(g: BipartiteRatings, person, depth) -> int:
    """Vertices within ``depth`` hops of a person, the person included.

    The graph is bipartite, so hop parity alternates sides: depth 1 adds
    the person's movies, depth 2 adds co-raters, and so on.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    pi, mi = g.edge_person_idx, g.edge_movie_idx
    seen_p = np.zeros(g.n_people, dtype=bool)
    seen_m = np.zeros(g.n_movies, dtype=bool)
    seen_p[_index_of(g.people, person, "person")] = True
    frontier = seen_p.copy()
    for step in range(depth):
        if not frontier.any():
            break
        if step % 2 == 0:  # people -> movies
            reached = np.zeros(g.n_movies, dtype=bool)
            reached[mi[frontier[pi]]] = True
            frontier = reached & ~seen_m
            seen_m |= frontier
        else:  # movies -> people
            reached = np.zeros(g.n_people, dtype=bool)
            reached[pi[frontier[mi]]] = True
            frontier = reached & ~seen_p
            seen_p |= frontier
    return int(seen_p.sum() + seen_m.sum())


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
    """Rank people and movies by descending degree (ties by ascending id)."""
    pdeg = g.person_degrees()
    mdeg = g.movie_degrees()
    buffs = sorted(range(g.n_people), key=lambda i: (-int(pdeg[i]), int(g.people[i])))
    hits = sorted(range(g.n_movies), key=lambda i: (-int(mdeg[i]), int(g.movies[i])))
    return HitsBuffsOrdering(
        buff_rank=tuple(int(g.people[i]) for i in buffs),
        hit_rank=tuple(int(g.movies[i]) for i in hits),
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
