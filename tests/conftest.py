import os
from pathlib import Path

import pytest

from recgraph import load_ratings
from recgraph.dataset import GENERIC_CSV, MOVIELENS_TAB

REPO_ROOT = Path(__file__).resolve().parent.parent


def _data_root() -> Path:
    env = os.environ.get("RECGRAPH_DATA")
    return Path(env) if env else REPO_ROOT / "data"


def movielens_path():
    path = _data_root() / "ml-100k" / "u.data"
    return path if path.exists() else None


def eachmovie_path():
    path = _data_root() / "eachmovie.csv"
    return path if path.exists() else None


@pytest.fixture(scope="session")
def ml100k():
    path = movielens_path()
    if path is None:
        pytest.skip(
            "MovieLens-100k not found (expected data/ml-100k/u.data or "
            "$RECGRAPH_DATA/ml-100k/u.data; run scripts/fetch_ml100k.py)")
    return load_ratings(path, MOVIELENS_TAB)


@pytest.fixture(scope="session")
def eachmovie():
    path = eachmovie_path()
    if path is None:
        pytest.skip(
            "EachMovie data not found (expected $RECGRAPH_DATA/eachmovie.csv "
            "as person,movie CSV; the dataset is no longer distributed)")
    return load_ratings(path, GENERIC_CSV)


@pytest.fixture(scope="session")
def standin(tmp_path_factory):
    """The benchmark's seeded ML-100k-shaped tab file (``perfbench/standins.py``, seed 0)."""
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(REPO_ROOT / "perfbench"))
    try:
        import standins
        path = tmp_path_factory.mktemp("standin") / "u.data"
        standins.write_movielens(standins.ML100K, 0, path)
    finally:
        mp.undo()
    return path


@pytest.fixture(scope="session")
def standin_csv(standin, tmp_path_factory):
    """The ``standin`` fixture's ratings rewritten as a ``person,movie,rating`` CSV."""
    rows = (line.split("\t")[:3] for line in standin.read_text(encoding="utf-8").splitlines())
    path = tmp_path_factory.mktemp("standin_csv") / "ratings.csv"
    path.write_text("person,movie,rating\n" + "".join(",".join(row) + "\n" for row in rows),
                    encoding="utf-8")
    return path
