"""Seeded stand-ins for the MovieLens rating files.

The real MovieLens files cannot be shipped with the benchmark, so each
workload that reads a dataset gets a file with the same shape, drawn from
``numpy.random.default_rng(seed)``:

- every person rates at least ``min_degree`` movies, with a lognormal tail
  capped at ``max_degree``, scaled so the ratings add up to ``ratings``;
- movies are drawn without replacement with Zipf-like popularity
  ``1 / (rank + ZIPF_OFFSET) ** ZIPF_EXPONENT`` (Gumbel top-k sampling);
- every movie ends up rated at least once, so the file names all of them;
- lone people split off at ``split_width``: a draw whose smallest hammock
  width with a person left without social edges is another one is thrown
  away and drawn again from the same generator.  Left free, that width
  ranges from 15 to 19 by seed, and the graphs at the widths around it, so
  the work of a sweep there, change with it.

The same (shape, seed) always yields the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    people: int
    movies: int
    ratings: int
    min_degree: int
    max_degree: int
    split_width: int


TAIL_SIGMA = 1.0  # lognormal sigma of the person-degree tail
ZIPF_EXPONENT = 1.0
ZIPF_OFFSET = 25.0  # flattens the head: the top movie is rated by about 60% of people


# The real file's lone people split off in the high teens.
ML100K = Shape(people=943, movies=1682, ratings=100_000, min_degree=20, max_degree=737,
               split_width=18)


def _person_degrees(shape: Shape, rng) -> np.ndarray:
    """Degrees in [min_degree, max_degree] that sum to exactly ``ratings``."""
    tail = rng.lognormal(0.0, TAIL_SIGMA, shape.people)
    lo, hi = 0.0, float(shape.max_degree)
    for _ in range(100):  # bisect the tail scale so the clipped sum hits the target
        mid = (lo + hi) / 2
        total = np.minimum(shape.min_degree + tail * mid, shape.max_degree).sum()
        lo, hi = (mid, hi) if total < shape.ratings else (lo, mid)
    deg = np.minimum(np.floor(shape.min_degree + tail * lo), shape.max_degree).astype(np.int64)
    short = shape.ratings - int(deg.sum())
    while short > 0:  # hand the rounding remainder to random people below the cap
        room = np.flatnonzero(deg < shape.max_degree)
        pick = rng.choice(room, size=min(short, len(room)), replace=False)
        deg[pick] += 1
        short -= len(pick)
    return deg


def split_width(shape: Shape, person_idx, movie_idx) -> int:
    """The smallest hammock width at which some person has no social edge.

    A person keeps an edge at width w while some other person shares at least
    w movies with them, so the first lone person appears one past the
    smallest per-person maximum of the co-rating counts.
    """
    inc = np.zeros((shape.people, shape.movies), dtype=np.float32)
    inc[person_idx, movie_idx] = 1.0
    co = inc @ inc.T  # float32 counts are exact far beyond any movie count
    np.fill_diagonal(co, 0.0)
    return int(co.max(axis=1).min()) + 1


def _draw(shape: Shape, rng):
    deg = _person_degrees(shape, rng)
    log_w = -ZIPF_EXPONENT * np.log(np.arange(shape.movies) + ZIPF_OFFSET)
    popularity = rng.permutation(shape.movies)  # movie index -> popularity rank
    log_w = log_w[popularity]
    chosen = []
    for d in deg:
        keys = log_w + rng.gumbel(size=shape.movies)
        chosen.append(np.argpartition(-keys, d - 1)[:d])
    counts = np.bincount(np.concatenate(chosen), minlength=shape.movies)
    for movie in np.flatnonzero(counts == 0):
        # swap an unrated movie in for the person's most-rated movie
        person = int(rng.integers(shape.people))
        row = chosen[person]
        j = int(np.argmax(counts[row]))
        counts[row[j]] -= 1
        row[j] = movie
        counts[movie] += 1
    person_idx = np.repeat(np.arange(shape.people), deg)
    movie_idx = np.concatenate(chosen)
    return person_idx, movie_idx


def generate(shape: Shape, seed: int):
    """Return (person_idx, movie_idx, rng, draws): distinct ratings, 0-based.

    About two draws in five have the wanted split-off width.
    """
    rng = np.random.default_rng(seed)
    draws = 0
    while True:
        draws += 1
        person_idx, movie_idx = _draw(shape, rng)
        if split_width(shape, person_idx, movie_idx) == shape.split_width:
            return person_idx, movie_idx, rng, draws


def write_movielens(shape: Shape, seed: int, path) -> dict:
    """Write a tab-separated MovieLens-layout file; returns the realised shape."""
    person_idx, movie_idx, rng, draws = generate(shape, seed)
    n = len(person_idx)
    rating = rng.integers(1, 6, n)
    stamp = rng.integers(874_724_710, 893_286_638, n)
    order = rng.permutation(n)  # the real files are not sorted by person
    lines = map("{}\t{}\t{}\t{}".format,
                (person_idx[order] + 1).tolist(), (movie_idx[order] + 1).tolist(),
                rating.tolist(), stamp.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    pdeg = np.bincount(person_idx, minlength=shape.people)
    mdeg = np.bincount(movie_idx, minlength=shape.movies)
    return {
        "people": int(np.count_nonzero(pdeg)),
        "movies": int(np.count_nonzero(mdeg)),
        "ratings": n,
        "person_degree_min": int(pdeg.min()),
        "person_degree_median": float(np.median(pdeg)),
        "person_degree_max": int(pdeg.max()),
        "movie_degree_max": int(mdeg.max()),
        "split_width": shape.split_width,
        "draws": draws,
    }
