"""CLI parity: the exit code, stdout and stderr of a fixed set of invocations,
each in text and json, against the outputs recorded in ``cli_parity.json``.
Every run is made in-process; a few are made again as a fresh interpreter
writing to a pipe.

Any change of behaviour on these invocations shows up as a diff of that
file. After a deliberate change, regenerate it and review the diff:

    PYTHONPATH=src python tests/test_cli_parity.py --write
"""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rothe_lab import cli

DATA = Path(__file__).with_name("cli_parity.json")

# name -> command line, without --format; each runs once per format
CASES = {
    # enumerate
    "enumerate": "enumerate --p 3 --k 1 --m 1",
    "enumerate-prefix": "enumerate --p 5 --k 2 --m 1 --prefix-weight 2",
    "enumerate-prefix-m0": "enumerate --p 5 --k 2 --m 0 --prefix-weight 3",
    "enumerate-empty-word": "enumerate --p 0 --k 0 --m 0",
    "enumerate-empty-class": "enumerate --p 2 --k 3 --m 1",
    "enumerate-length-cap": "enumerate --p 27 --k 0 --m 0",
    "enumerate-negative-m": "enumerate --p 3 --k 1 --m=-1",
    # bijection
    "theorem1-word": "bijection theorem1 --p 1 --q 1 --m 1 --n 1 --word ab",
    "theorem1-word-inverse": "bijection theorem1 --p 1 --q 1 --m 1 --n 1 --word ba --inverse",
    "theorem1-all": "bijection theorem1 --p 2 --q 1 --m 1 --n 2 --all",
    "theorem1-all-inverse": "bijection theorem1 --p 2 --q 2 --m 1 --n 2 --all --inverse",
    "theorem1-all-inverse-m2": "bijection theorem1 --p 4 --q 2 --m 2 --n 2 --all --inverse",
    "factorize-word": "bijection factorize --p 1 --q 1 --m 1 --n 1 --word ba",
    "factorize-all": "bijection factorize --p 2 --q 2 --m 1 --n 2 --all",
    "factorize-all-m2": "bijection factorize --p 4 --q 1 --m 2 --n 2 --all",
    "theorem1-word-p-below-mn": "bijection theorem1 --p 0 --q 1 --m 1 --n 1 --word ba",
    "theorem1-word-q-0": "bijection theorem1 --p 1 --q 0 --m 0 --n 0 --word a",
    "theorem1-all-q-0": "bijection theorem1 --p 1 --q 0 --m 1 --n 1 --all",
    "factorize-all-p-below-mn": "bijection factorize --p 0 --q 1 --m 1 --n 3 --all",
    "factorize-word-wrong-weight": "bijection factorize --p 1 --q 1 --m 1 --n 1 --word aab",
    "bijection-negative-n": "bijection theorem1 --p 1 --q 1 --m 1 --n=-1 --all",
    "bijection-negative-m": "bijection factorize --p 1 --q 1 --m=-1 --n 1 --all",
    "bijection-b-count": "bijection theorem1 --p 1 --q 1 --m 1 --n 2 --word ab",
    "factorize-inverse": "bijection factorize --p 1 --q 1 --m 1 --n 1 --all --inverse",
    "bijection-word-and-all": "bijection theorem1 --p 1 --q 1 --m 1 --n 1 --word ab --all",
    "bijection-neither-word-nor-all": "bijection factorize --p 1 --q 1 --m 1 --n 1",
    # verify: every identity over ranges, with skips where it has a domain
    "rothe1": "verify --identity rothe1 --x=0..1 --y=1 --z=1/2 --n=0..2",
    "rothe2": "verify --identity rothe2 --x 1/2 --y 3 --z 2 --n 4",
    "rothe1-negative-n": "verify --identity rothe1 --x 0 --y 1 --z 1 --n=-1..1",
    "gould": "verify --identity gould --x=1 --y=2 --z=1 --n=0..2",
    "gould-negative-n": "verify --identity gould --x 1 --y 2 --z 1 --n=-1",
    "pqkm": "verify --identity pqkm --p=0..2 --q=1 --m=1 --n=-1..2",
    "kmx": "verify --identity kmx --p=0..2 --q=0..1 --m=1 --n=1..2",
    "kmpink": "verify --identity kmpink --p=3 --q=1 --m=0..2 --n=2 --j=0..2",
    "kmpink-default-j": "verify --identity kmpink --p 3 --q 1 --m 2 --n 2",
    "cardinality": "verify --identity cardinality --p 0..4 --k 0..2 --m 0..1",
    "invw": "verify --identity invw --p=0..3 --k=0..2 --m=1",
    "qchu": "verify --identity qchu --x 0..2 --y 0..1 --m 1 --n 1",
    "qchu-m1": "verify --identity qchu-m1 --x=0..2 --y=1 --n=1..2",
    "qword": "verify --identity qword --p=0..2 --q=1 --m=1 --n=1",
    # verify: q-sweeps in which a closed form recurs
    "qchu-recurring": "verify --identity qchu --x=3..8 --y=1..4 --m=0..2 --n=0..4",
    "invw-recurring": "verify --identity invw --p=0..12 --k=0..4 --m=0..2",
    "qword-recurring": "verify --identity qword --p=0..5 --q=1..4 --m=0..1 --n=0..3",
    # verify: refusals
    "unknown-identity": "verify --identity nope --x 1",
    "missing-variable": "verify --identity kmx --p 1 --q 1 --m 1",
    "fraction-for-integer": "verify --identity kmx --p 1/2 --q 1 --m 1 --n 1",
    "bad-cap": "verify --identity kmx --p 1 --q 1 --m 1 --n 1 --cap 0",
    "work-cap": "verify --identity kmx --p 0..100 --q 1..100 --m 1 --n 0..20",
    "tuple-count-cap": "verify --identity pqkm --p 0..1000000 --q 0..1000 --m 1 --n 1",
    "length-cap": "verify --identity cardinality --p 27 --k 1 --m 0",
    "qword-length-cap": "verify --identity qword --p 26 --q 1 --m 0 --n 1",
    "cardinality-negative-m": "verify --identity cardinality --p 30 --k 1 --m=-1",
    "kmx-negative-n": "verify --identity kmx --p 2 --q 1 --m 1 --n=-1",
    "kmx-negative-m": "verify --identity kmx --p 2 --q 1 --m=-1 --n 1",
    "qchu-negative-m": "verify --identity qchu --x 2 --y 1 --m=-1 --n 1",
    "qchu-m1-negative-n": "verify --identity qchu-m1 --x 2 --y 1 --n=-1",
    "qword-negative-n": "verify --identity qword --p 2 --q 1 --m 1 --n=-1",
    "qchu-m1-stray-m": "verify --identity qchu-m1 --x 4 --y 1 --n 2 --m 2",
    "pqkm-stray-j-eps": "verify --identity pqkm --p 3 --q 1 --m 1 --n 2 --j 5 --eps 3",
    "stray-before-missing": "verify --identity kmx --p 1 --q 1 --m 1 --x 1",
    "kmx-negative-n-before-cap": "verify --identity kmx --p 5000 --q 1 --m 1 --n=-1..3000",
    "rothe1-negative-n-before-cap": "verify --identity rothe1 --x 0 --y 1 --z 1 --n=-1..3000",
    # verify: a negative m or n on a tuple outside the domain
    "qchu-negative-m-outside": "verify --identity qchu --x=-5 --y 1 --m=-1 --n 1",
    "kmx-negative-m-outside": "verify --identity kmx --p=-5 --q 1 --m=-1 --n 1",
    "invw-negative-m-outside": "verify --identity invw --p=-5 --k 1 --m=-1",
    "qword-negative-m-outside": "verify --identity qword --p=-5 --q 1 --m=-1 --n 1",
    "kmx-negative-n-outside": "verify --identity kmx --p=-9 --q 1 --m 1 --n=-1",
    "qchu-m1-negative-n-outside": "verify --identity qchu-m1 --x=-5 --y 1 --n=-1",
    # verify: values that do not parse, and a range too long for len()
    "range-without-end": "verify --identity rothe1 --y 1 --z 1 --n 1 --x=1..",
    "empty-range": "verify --identity rothe1 --y 1 --z 1 --n 1 --x=3..1",
    "bad-value": "verify --identity rothe1 --y 1 --z 1 --n 1 --x=abc",
    "zero-denominator": "verify --identity rothe1 --x 1 --y 1 --z=1/0 --n 1",
    "huge-range-cap": "verify --identity rothe1 --x=0..100000000000000000000 --y 1 --z 1 --n 1",
    # grid-prove
    "grid-prove-rothe1": "grid-prove --identity rothe1 --n 3",
    "grid-prove-rothe2-n0": "grid-prove --identity rothe2 --n 0",
    "grid-prove-gould-offsets": "grid-prove --identity gould --n 2 --offsets=-1,0,2,0",
    "grid-prove-offset-count": "grid-prove --identity rothe1 --n 2 --offsets 1,2",
    "grid-prove-unsupported": "grid-prove --identity kmx --n 2",
    "grid-prove-gould-mixed-offsets": "grid-prove --identity gould --n 3 --offsets=2,-3,1,-3",
    "grid-prove-rothe1-n0-negative-offsets": "grid-prove --identity rothe1 --n 0 --offsets=-2,-1,-3",
    "grid-prove-rothe2-mixed-offsets": "grid-prove --identity rothe2 --n 5 --offsets=-3,2,-1",
    "grid-prove-empty-offset": "grid-prove --identity rothe1 --n 1 --offsets=1,,2",
}


def runs() -> dict[str, list[str]]:
    """Every recorded run by its key, ``name[format]``, with its arguments."""
    return {
        f"{name}[{fmt}]": [*shlex.split(line), "--format", fmt]
        for name, line in CASES.items()
        for fmt in ("text", "json")
    }


def invoke(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``rothe-lab`` on ``argv``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def recorded() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_recorded_runs_are_the_cases():
    assert sorted(recorded()) == sorted(runs())


@pytest.mark.parametrize("key", sorted(runs()))
def test_cli_matches_recorded_run(monkeypatch, key):
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert invoke(runs()[key]) == recorded()[key]


# runs whose output spans several blocks or that end in a refusal, repeated as
# a fresh interpreter writing to a pipe, with stdout buffered and unbuffered
STREAM_CASES = ("qchu-recurring", "invw-recurring", "theorem1-all", "enumerate-prefix",
                "work-cap")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("key", [f"{name}[{fmt}]" for name in STREAM_CASES
                                 for fmt in ("text", "json")])
def test_cli_matches_recorded_run_on_a_pipe(key, unbuffered):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", cli.CAP_ENV_VAR)}
    env.update(PYTHONPATH=str(Path(__file__).parents[1] / "src"), PYTHONIOENCODING="utf-8")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = runs()[key]
    proc = subprocess.run([sys.executable, "-m", "rothe_lab.cli", *argv], capture_output=True,
                          timeout=60, env=env)
    run = {"argv": argv, "exit": proc.returncode,
           "stdout": proc.stdout.decode("utf-8"), "stderr": proc.stderr.decode("utf-8")}
    assert run == recorded()[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_parity.py --write")
    os.environ.pop(cli.CAP_ENV_VAR, None)
    data = {key: invoke(argv) for key, argv in sorted(runs().items())}
    DATA.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
