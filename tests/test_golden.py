"""Golden outputs: the SHA-256 of every CSV nine small CLI runs write.

The rating file is the benchmark's seeded ML-100k-shaped stand-in
(``perfbench/standins.py``, seed 0), written by the ``standin`` fixture in
``conftest.py``.  The other CLI tests compare two runs of the same code;
these digests pin the bytes themselves, so a rewrite that moves any output
byte fails here.  ``sweep-csv`` reads the same ratings as a
``person,movie,rating`` CSV and must write the tab ``sweep`` run's bytes.
``sweep-chain`` walks widths 1..30, so every width there is cut from the
one before it.  ``cdf`` writes log10 counts over the giant; ``cdf-counts``
writes the plain vertex counts over every person.  ``synth-study-trials``
averages three trials per kappa, with six (width, column) cells defined in
some trials and not others.  ``ws-lattice`` is the benchmark's n = 1000, k = 10 run: its
16-word BFS blocks switch to the slab pull, and two of its trials move no
edge.
"""

import hashlib

import pytest

from recgraph.cli import main

GOLDEN = {
    ("sweep", "sweep.csv"):
        "13e24c32cb091a849911baaa1362af0e019afba4c3eb5e080e07c6a2f565c8ac",
    ("sweep-csv", "sweep.csv"):
        "13e24c32cb091a849911baaa1362af0e019afba4c3eb5e080e07c6a2f565c8ac",
    ("sweep-chain", "sweep.csv"):
        "08bd01e03699aa32b24bc73d7faa84fea29637d922607695ada9c073b1a4ed80",
    ("cdf", "cdf_w01.csv"):
        "ea14fcac699a6e5c3c49e207e4b4a2beef932fa1d7165c038f1b2d73e059be97",
    ("cdf", "cdf_w02.csv"):
        "173e705d1e28c162af9ec2551832caa2c6af4d627b1329952494a9abd20ed103",
    ("cdf", "cdf_w03.csv"):
        "7d10dabe81ef989abee65355d9da342889c1ddb28468f927df6a87f0ccc6110a",
    ("cdf-counts", "cdf_w17.csv"):
        "5ee9661ca17c46ca32c2bce25e3e8d49a3c5169186bb3a2d852a9625bfc25e43",
    ("cdf-counts", "cdf_w18.csv"):
        "cec25c090329e704397fc5df8bbd76e42e1aabbbdc6a9967e0313074fa2c2b18",
    ("synth-study", "synth_linf.csv"):
        "6d3368e7bf6f2dd182febb53f869be90a698d1942b54264dd4d5d4d1e07fd6ad",
    ("synth-study", "synth_study.csv"):
        "f040808060a01d6e201e1f5714af5ed1bbf8ab2d475e3e75c11a3ec6acacea6f",
    ("synth-study-trials", "synth_linf.csv"):
        "6128fdf99d3e65edd733be2e4590a4327e18115b0e9000796f590da8108080ba",
    ("synth-study-trials", "synth_study.csv"):
        "bed3675659b0351609f2795925a1b69566ae69a623a05ea40a69a73409f2d56a",
    ("ws", "ws.csv"):
        "8243fb4809a77cab2485777b115433a42d68c22803b03c6dbf1a92fa5c39bc52",
    ("ws-lattice", "ws.csv"):
        "8d2a23fdc2ef3f020d8e052f418b03818eb1d388d3b384bdc64d1302139e7112",
}


def _runs(path, csv_path):
    return {
        "sweep": ["sweep", "--input", str(path), "--w-min", "17", "--w-max", "18"],
        "sweep-csv": ["sweep", "--input", str(csv_path), "--format", "csv",
                      "--w-min", "17", "--w-max", "18"],
        "sweep-chain": ["sweep", "--input", str(path), "--w-min", "1", "--w-max", "30",
                        "--max-sources", "50"],
        "cdf": ["cdf", "--input", str(path), "--w-min", "1", "--w-max", "3",
                "--log", "--largest-only"],
        "cdf-counts": ["cdf", "--input", str(path), "--w-min", "17", "--w-max", "18"],
        "synth-study": ["synth-study", "--kappa-min", "1", "--kappa-max", "3",
                        "--w-min", "1", "--w-max", "6"],
        "synth-study-trials": ["synth-study", "--kappa-min", "1", "--kappa-max", "3",
                               "--w-min", "1", "--w-max", "12", "--n-people", "30",
                               "--n-movies", "12", "--trials", "3"],
        "ws": ["ws", "--n", "200", "--k", "6", "--mode", "both", "--trials", "2"],
        "ws-lattice": ["ws", "--n", "1000", "--k", "10", "--mode", "both", "--trials", "3"],
    }


@pytest.mark.parametrize("command", ["sweep", "sweep-csv", "sweep-chain", "cdf", "cdf-counts",
                                     "synth-study", "synth-study-trials", "ws",
                                     "ws-lattice"])
def test_csv_digests_match_golden(command, standin, standin_csv, tmp_path, capsys):
    out = tmp_path / command
    assert main(_runs(standin, standin_csv)[command] + ["--out", str(out)]) == 0
    capsys.readouterr()
    got = {(command, f.name): hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(out.iterdir())}
    assert got == {key: digest for key, digest in GOLDEN.items() if key[0] == command}
