import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rothe_lab import NoMatchError, VerificationReport, bijections, cli, identities, words


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def python(*argv, timeout=60):
    """Run a fresh interpreter on ``argv`` with this checkout's ``src`` as its
    path, whatever the path of the test run."""
    src = str(Path(__file__).parents[1] / "src")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": src})


def patch_check(monkeypatch, identity, check):
    """Swap the checker of one registry entry for the length of a test."""
    entry = identities.IDENTITIES[identity]._replace(check=check)
    monkeypatch.setitem(identities.IDENTITIES, identity, entry)


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--k", "1", "--m", "1")
    assert code == 0
    assert out.splitlines() == [
        "ab  weight=3 inv=0",
        "ba  weight=3 inv=1",
        "count 2, predicted C(2,1) = 2",
    ]


def test_enumerate_prefix_filter(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--p", "3", "--k", "1", "--m", "1", "--prefix-weight", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ba ")
    assert lines[-1] == "count 1, predicted C(2,1) = 2"


def test_enumerate_empty_word(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "0", "--k", "0", "--m", "0")
    assert code == 0
    assert out.splitlines() == ["ε  weight=0 inv=0", "count 1, predicted C(0,0) = 1"]


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--p", "3", "--k", "1", "--m", "1", "--format", "json"
    )
    assert code == 0
    records = json_lines(out)
    assert records[0] == {"word": "ab", "weight": 3, "b_count": 1, "inversions": 0}
    assert records[-1] == {"count": 2, "predicted": 2}


def test_enumerate_cap_breach_is_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "--p", "40", "--k", "0", "--m", "0")
    assert code == 2
    assert "cap" in err


def test_enumerate_bad_flags_exit_2(capsys):
    code, _, _ = run(capsys, "enumerate", "--p", "x", "--k", "0", "--m", "0")
    assert code == 2


def test_bijection_single_word(capsys):
    code, out, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--word", "ab",
    )
    assert code == 0
    assert out == "ab → ba\n"


def test_bijection_single_word_inverse(capsys):
    code, out, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--word", "ba", "--inverse",
    )
    assert code == 0
    assert out == "ba → ab\n"


def test_bijection_all(capsys):
    code, out, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "2", "--q", "1", "--m", "1", "--n", "2", "--all",
    )
    assert code == 0
    assert out.splitlines() == ["bab → bab", "bba → abb", "BIJECTION OK (2 words)"]


def test_bijection_all_json(capsys):
    code, out, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "2", "--q", "1", "--m", "1", "--n", "2", "--all", "--format", "json",
    )
    assert code == 0
    records = json_lines(out)
    assert records[0] == {"input": "bab", "output": "bab", "p": 2, "q": 1, "m": 1, "n": 2}
    assert records[-1] == {"status": "ok", "count": 2}


def test_bijection_all_inverse(capsys):
    code, out, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "2", "--q", "1", "--m", "1", "--n", "2", "--all", "--inverse",
    )
    assert code == 0
    assert out.splitlines() == ["abb → bba", "bab → bab", "BIJECTION OK (2 words)"]


@pytest.mark.parametrize("argv", [
    "theorem1 --p 2 --q 1 --m 1 --n 2", "theorem1 --p 2 --q 1 --m 1 --n 2 --inverse",
    "factorize --p 3 --q 2 --m 1 --n 2",
])
def test_bijection_all_validates_no_word_it_spells(capsys, monkeypatch, argv):
    # the loop spells every word of the class itself; only the maps check theirs
    def refuse(w):
        raise AssertionError(f"validated {w!r}")

    with monkeypatch.context() as patch:
        patch.setattr(words, "b_count", refuse)
        patched = run(capsys, "bijection", *argv.split(), "--all")
    assert patched == run(capsys, "bijection", *argv.split(), "--all")
    assert patched[0] == 0


def test_bijection_factorize_all_json(capsys):
    code, out, _ = run(
        capsys, "bijection", "factorize",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--all", "--format", "json",
    )
    assert code == 0
    records = json_lines(out)
    assert records[0] == {"input": "ab", "branch": "A", "p": 1, "q": 1, "m": 1, "n": 1}
    assert records[1] == {
        "input": "ba", "branch": "B", "j": 1, "k": 1, "u_prime": "", "v": "a",
        "p": 1, "q": 1, "m": 1, "n": 1,
    }
    assert records[-1] == {"status": "ok", "count": 2}


def test_bijection_word_outside_domain_exit_2(capsys):
    code, _, err = run(
        capsys, "bijection", "theorem1",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--word", "ba",
    )
    assert code == 2
    assert "prefix" in err


def test_bijection_factorize_word(capsys):
    code, out, _ = run(
        capsys, "bijection", "factorize",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--word", "ba",
    )
    assert code == 0
    assert out == "BranchB j=1 k=1 u'=ε v=a\n"


def test_bijection_factorize_all(capsys):
    code, out, _ = run(
        capsys, "bijection", "factorize",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--all",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ab: BranchA w=ab"
    assert lines[1] == "ba: BranchB j=1 k=1 u'=ε v=a"
    assert lines[2] == "BIJECTION OK (2 words)"


def test_bijection_factorize_rejects_inverse(capsys):
    code, _, err = run(
        capsys, "bijection", "factorize",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--word", "ba", "--inverse",
    )
    assert code == 2
    assert "inverse" in err


def test_bijection_needs_word_or_all(capsys):
    code, _, _ = run(
        capsys, "bijection", "theorem1", "--p", "1", "--q", "1", "--m", "1", "--n", "1"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--word", "ab", "--all",
    )
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind, extra", [
    ("theorem1", ()), ("theorem1", ("--inverse",)), ("factorize", ()),
], ids=["theorem1", "theorem1-inverse", "factorize"])
@pytest.mark.parametrize("p, q, m, n", [(1, 0, 1, 1), (0, 1, 1, 3), (1, 2, 2, 1), (0, 0, 0, 0)])
def test_bijection_all_outside_domain_exit_2(capsys, kind, extra, fmt, p, q, m, n):
    # --all takes the domain of --word: p >= m*n and q >= 1, with the same message
    params = ("--p", str(p), "--q", str(q), "--m", str(m), "--n", str(n), "--format", fmt)
    code, out, err = run(capsys, "bijection", kind, *params, *extra, "--all")
    word_code, word_out, word_err = run(capsys, "bijection", kind, *params, *extra,
                                        "--word", "b" * n)
    assert (code, out) == (2, "")
    assert (word_code, word_out) == (2, "")
    assert err == word_err and err.startswith("error: need ")


def test_bijection_detects_broken_map(capsys, monkeypatch):
    monkeypatch.setattr(bijections, "theorem1_forward", lambda w, p, q, g: w)
    code, out, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "2", "--q", "1", "--m", "1", "--n", "2", "--all",
    )
    assert code == 1
    assert "BIJECTION FAILED" in out

    # a constant map repeats its image, so the round trip fails on the second
    # word; the listing still covers every word
    monkeypatch.setattr(bijections, "theorem1_forward", lambda w, p, q, g: "bab")
    code, out, _ = run(
        capsys, "bijection", "theorem1",
        "--p", "2", "--q", "1", "--m", "1", "--n", "2", "--all", "--format", "json",
    )
    assert code == 1
    assert json_lines(out)[-1] == {
        "status": "failed", "count": 2, "reason": "round trip failed for bba",
    }

    # a broken compose fails the round trip of factorize
    monkeypatch.setattr(bijections, "compose", lambda d, p, q, g: "")
    factorize = ("bijection", "factorize", "--p", "1", "--q", "1", "--m", "1", "--n", "1",
                 "--all")
    code, out, _ = run(capsys, *factorize)
    assert code == 1
    assert out.splitlines()[-1] == "BIJECTION FAILED: round trip failed for ab"
    code, out, _ = run(capsys, *factorize, "--format", "json")
    assert code == 1
    assert json_lines(out)[-1] == {
        "status": "failed", "count": 2, "reason": "round trip failed for ab",
    }


def test_bijection_all_cap_breach_exits_2_before_any_word(capsys, monkeypatch):
    # C(12, 6) = 924 words of length 12 price at 924 * 12 + 1 = 11,089 units
    monkeypatch.setenv(cli.CAP_ENV_VAR, "1000")
    walks = []
    words_of = words._words
    monkeypatch.setattr(words, "_words", lambda *args: walks.append(args) or words_of(*args))
    argv = ("bijection", "theorem1", "--p", "6", "--q", "6", "--m", "0", "--n", "6")
    code, out, err = run(capsys, *argv, "--all")
    assert (code, out, walks) == (2, "", [])
    assert err == ("error: estimated work of 11089 exceeds the cap 1000; "
                   "narrow the class or raise --cap / $ROTHE_LAB_CAP\n")
    # the flag wins over the environment, and the price is the bound
    code, out, _ = run(capsys, *argv, "--all", "--cap", "11088")
    assert (code, out, walks) == (2, "", [])
    code, out, _ = run(capsys, *argv, "--all", "--cap", "11089")
    assert (code, out.splitlines()[-1], len(walks)) == (0, "BIJECTION OK (924 words)", 1)
    # a single word is not priced
    code, out, _ = run(capsys, *argv, "--word", "bbbbbbaaaaaa", "--cap", "1")
    assert (code, out) == (0, "bbbbbbaaaaaa → bbbbbbaaaaaa\n")


def test_factorize_all_scans_no_prefix_outside_the_map(capsys, monkeypatch):
    # factorize maps every word, since every word has the empty prefix of
    # weight 0: its walk counts the C(9, 3) = 84 words of the class without
    # a scan, where theorem1 scans each word for its source and target
    scans = []
    prefix_length = words._prefix_length
    monkeypatch.setattr(cli.words, "_prefix_length",
                        lambda *args: scans.append(args) or prefix_length(*args))
    params = ("--p", "6", "--q", "3", "--m", "2", "--n", "3", "--all")
    code, out, _ = run(capsys, "bijection", "factorize", *params)
    assert (code, out.splitlines()[-1], scans) == (0, "BIJECTION OK (84 words)", [])
    code, out, _ = run(capsys, "bijection", "factorize", *params, "--format", "json")
    assert (code, json_lines(out)[-1], scans) == (0, {"status": "ok", "count": 84}, [])
    code, _, _ = run(capsys, "bijection", "theorem1", *params)
    assert code == 0 and len(scans) == 2 * 84


def test_enumerate_cap_breach_exits_2_before_any_word(capsys, monkeypatch):
    # a refused run spells no word: the walk raises if it is started
    def no_walk(*args):
        raise AssertionError(f"walked the class {args}")

    words_of = words._words
    monkeypatch.setattr(words, "_words", no_walk)
    code, out, err = run(capsys, "enumerate", "--p", "26", "--k", "13", "--m", "0",
                         "--cap", "1000000")
    assert (code, out) == (2, "")
    assert err == ("error: estimated work of 270415601 exceeds the cap 1000000; "
                   "narrow the class or raise --cap / $ROTHE_LAB_CAP\n")
    # the default cap refuses C(26, 13) words too, and the environment sets it;
    # C(12, 6) = 924 words of length 12 price at 924 * 12 + 1 = 11,089 units
    code, out, _ = run(capsys, "enumerate", "--p", "26", "--k", "13", "--m", "0")
    assert (code, out) == (2, "")
    monkeypatch.setenv(cli.CAP_ENV_VAR, "1000")
    argv = ("enumerate", "--p", "12", "--k", "6", "--m", "0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "estimated work of 11089 exceeds the cap 1000;" in err
    # the flag wins over the environment, and the price is the bound
    code, out, _ = run(capsys, *argv, "--cap", "11088")
    assert (code, out) == (2, "")
    monkeypatch.setattr(words, "_words", words_of)
    code, out, _ = run(capsys, *argv, "--cap", "11089")
    assert (code, out.splitlines()[-1]) == (0, "count 924, predicted C(12,6) = 924")
    # the grading and length refusals keep their messages, ahead of the price
    code, _, err = run(capsys, "enumerate", "--p", "3", "--k", "1", "--m=-1", "--cap", "1")
    assert (code, err) == (2, "error: grading parameter m must be >= 0, got -1\n")
    code, _, err = run(capsys, "enumerate", "--p", "27", "--k", "0", "--m", "0", "--cap", "1")
    assert (code, err) == (2, "error: enumerating words of length 27 exceeds the cap of 26\n")


# a whole-class run at class size C(2n, n); m = 0, so every word of the class
# has a prefix of every weight and theorem1 maps the whole class
WHOLE_CLASS_RUNS = {
    "theorem1": "bijection theorem1 --p {n} --q {n} --m 0 --n {n} --all",
    "theorem1-inverse": "bijection theorem1 --p {n} --q {n} --m 0 --n {n} --all --inverse",
    "factorize": "bijection factorize --p {n} --q {n} --m 0 --n {n} --all",
    "enumerate": "enumerate --p {twice} --k {n} --m 0",
}


@pytest.mark.parametrize("case", sorted(WHOLE_CLASS_RUNS))
def test_whole_class_run_memory_does_not_grow_with_the_class(case):
    # traced Python allocations, not RSS: the peak of a run over C(16, 8) =
    # 12,870 words stays within 0.25 MiB of its peak over C(10, 5) = 252
    import tracemalloc

    def peak(n):
        argv = shlex.split(WHOLE_CLASS_RUNS[case].format(n=n, twice=2 * n))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.reset_peak()
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak(5)  # loads what the run imports
        small, large = peak(5), peak(8)
    finally:
        tracemalloc.stop()
    assert large - small <= 0.25 * 2**20, (small, large)


# a broken map whose image the inverse refuses with a ValueError: a theorem1
# image that is no string, no word or has no prefix of weight p + 1 = 3, and
# a decomposition that compose refuses (an InvariantViolationError)
OUTSIDE_THE_TARGET_CLASS = {
    "non-string": ("theorem1_forward", None, "theorem1 --p 2 --q 1 --m 1 --n 2",
                   ["bab → ε", "bba → ε"], "bab maps to None"),
    "non-word": ("theorem1_forward", "xyz", "theorem1 --p 2 --q 1 --m 1 --n 2",
                 ["bab → xyz", "bba → xyz"], "bab maps to xyz"),
    "no-target-prefix": ("theorem1_forward", "bba", "theorem1 --p 2 --q 1 --m 1 --n 2",
                         ["bab → bba", "bba → bba"], "bab maps to bba"),
    "refused-decomposition": ("decompose", bijections.BranchA("ba"),
                              "factorize --p 1 --q 1 --m 1 --n 1",
                              ["ab: BranchA w=ba", "ba: BranchA w=ba"],
                              "ab maps to BranchA(w='ba')"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(OUTSIDE_THE_TARGET_CLASS))
def test_bijection_image_outside_the_target_class_exits_1(capsys, monkeypatch, case, fmt):
    # a failed check, not a bad argument: exit 1 after listing every word
    attr, image, argv, listing, fault = OUTSIDE_THE_TARGET_CLASS[case]
    monkeypatch.setattr(bijections, attr, lambda w, p, q, g: image)
    code, out, err = run(capsys, "bijection", *argv.split(), "--all", "--format", fmt)
    assert (code, err) == (1, "")
    reason = f"{fault}, outside the target class"
    if fmt == "json":
        assert json_lines(out)[-1] == {"status": "failed", "count": 2, "reason": reason}
    else:
        assert out.splitlines() == [*listing, f"BIJECTION FAILED: {reason}"]


def test_verify_rothe2_single(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "rothe2",
        "--x", "2", "--y", "2", "--z", "1", "--n", "2",
    )
    assert code == 0
    assert out.splitlines() == [
        "rothe2 x=2 y=2 z=1 n=2: PASS 6",
        "1 checked, 0 failed",
    ]


def test_verify_accepts_fractions(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "rothe2",
        "--x", "1/2", "--y", "3", "--z", "2", "--n", "2",
    )
    assert code == 0
    assert "x=1/2" in out


def test_verify_qchu_polynomial_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "qchu",
        "--x", "2..2", "--y", "1..1", "--m", "1", "--n", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "qchu x=2 y=1 m=1 n=1: PASS 1+q+q^2"


def passing_params(out, fmt):
    """The parameters of each passing report line of a ``verify`` run."""
    if fmt == "json":
        return [r["params"] for r in json_lines(out)[:-1] if r["status"] == "pass"]
    heads = [line.split(": PASS ")[0] for line in out.splitlines() if ": PASS " in line]
    return [{k: int(v) for k, v in (kv.split("=") for kv in head.split()[1:])}
            for head in heads]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, closed_form", [
    ("--identity qchu --x=3..8 --y=1..4 --m=0..2 --n=0..4", lambda x, y, m, n: (x + y, n)),
    ("--identity invw --p=0..12 --k=0..4 --m=0..2", lambda p, k, m: (p - k * m, k)),
    ("--identity qword --p=0..5 --q=1..4 --m=0..1 --n=0..3", lambda p, q, m, n: (p + q, n)),
], ids=["qchu", "invw", "qword"])
def test_verify_formats_each_closed_form_once(capsys, monkeypatch, argv, closed_form, fmt):
    # a pass line prints the right side, which is the cached gaussian_binomial
    # object of the closed form, and a polynomial keeps its text
    from rothe_lab.qseries import LaurentPolynomial

    formatted = []
    format_once = LaurentPolynomial._format

    def counted(poly):
        formatted.append(poly)
        return format_once(poly)

    monkeypatch.setattr(LaurentPolynomial, "_format", counted)
    code, out, _ = run(capsys, "verify", *shlex.split(argv), "--format", fmt)
    assert code == 0
    passes = passing_params(out, fmt)
    closed_forms = {closed_form(**params) for params in passes}
    assert len(passes) > 2 * len(closed_forms)
    assert len({id(poly) for poly in formatted}) == len(formatted) <= len(closed_forms)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_failing_q_report_prints_both_sides(capsys, monkeypatch, fmt):
    from rothe_lab import qseries

    # every summand one power of q lower, so the double sum is too
    summands = qseries._qchu_summands
    monkeypatch.setattr(qseries, "_qchu_summands",
                        lambda *args: [(s - 1, a, b) for s, a, b in summands(*args)])
    code, out, _ = run(capsys, "verify", "--identity", "qchu", "--x", "2", "--y", "1",
                       "--m", "1", "--n", "1", "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[0] == "qchu x=2 y=1 m=1 n=1: FAIL lhs=q^-1+1+q rhs=1+q+q^2"
    else:
        record = json_lines(out)[0]
        assert (record["status"], record["lhs"], record["rhs"]) == ("fail", "q^-1+1+q", "1+q+q^2")


def test_verify_cardinality_sweep(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "cardinality",
        "--p", "0..10", "--k", "0..4", "--m", "0..2",
    )
    assert code == 0
    assert out.splitlines()[-1] == "165 checked, 0 failed"


def test_verify_skips_precondition_violations(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "kmx",
        "--p", "0..2", "--q", "1", "--m", "1", "--n", "2",
    )
    assert code == 0
    assert out.splitlines()[-1] == "1 checked, 0 failed, 2 skipped"


def test_verify_json_matches_text_verdicts(capsys):
    args = ["verify", "--identity", "pqkm", "--p", "0..3", "--q", "0..2", "--m", "1", "--n", "2"]
    code_text, out_text, _ = run(capsys, *args)
    code_json, out_json, _ = run(capsys, *args, "--format", "json")
    assert code_text == code_json == 0
    records = json_lines(out_json)
    summary = records[-1]
    assert summary == {"checked": 12, "failed": 0, "skipped": 0}
    assert len(out_text.splitlines()) == len(records)
    assert all(r["status"] == "pass" for r in records[:-1])


def test_verify_gould_eps_defaults_to_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "gould",
        "--x", "2", "--y", "2", "--z", "1", "--n", "2",
    )
    assert code == 0
    # eps sweeps 0..n when unspecified
    assert out.splitlines()[-1] == "3 checked, 0 failed"


def test_verify_kmpink_j_defaults_to_full_interval(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "kmpink",
        "--p", "4", "--q", "2", "--m", "2", "--n", "2",
    )
    assert code == 0
    assert out.splitlines()[-1] == "2 checked, 0 failed"


def test_verify_gould_explicit_eps(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "gould",
        "--x", "2", "--y", "2", "--z", "1", "--n", "2", "--eps", "1/3",
    )
    assert code == 0
    assert out.splitlines()[-1] == "1 checked, 0 failed"


def test_verify_qword(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "qword",
        "--p", "2", "--q", "1", "--m", "1", "--n", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "qword p=2 q=1 m=1 n=2: PASS 1+q+q^2"


def test_verify_unknown_identity_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "fermat", "--n", "2")
    assert code == 2
    assert "unknown identity" in err


def test_verify_missing_parameter_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "rothe2", "--x", "2")
    assert code == 2
    assert "required" in err


def test_verify_rejects_fraction_for_integer_identity(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "pqkm",
        "--p", "1/2", "--q", "1", "--m", "1", "--n", "1",
    )
    assert code == 2
    assert "integer" in err


def test_verify_cap_breach_exit_2_before_work(capsys):
    code, out, err = run(
        capsys, "verify", "--identity", "cardinality",
        "--p", "0..10", "--k", "0..4", "--m", "0..2", "--cap", "1",
    )
    assert code == 2
    assert out == ""  # nothing ran
    assert "exceeds the cap" in err


def test_verify_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "1")
    code, _, err = run(
        capsys, "verify", "--identity", "cardinality", "--p", "0..5", "--k", "1", "--m", "0"
    )
    assert code == 2
    assert "exceeds the cap" in err
    # an explicit flag wins over the environment
    monkeypatch.setenv(cli.CAP_ENV_VAR, "1")
    code, out, _ = run(
        capsys, "verify", "--identity", "cardinality",
        "--p", "0..5", "--k", "1", "--m", "0", "--cap", "100000",
    )
    assert code == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("value, message", [
    ("abc", "$ROTHE_LAB_CAP must be an integer, got 'abc'"),
    ("0", "$ROTHE_LAB_CAP must be positive, got 0"),
])
def test_verify_bad_cap_env_exit_2(capsys, monkeypatch, value, message, fmt):
    monkeypatch.setenv(cli.CAP_ENV_VAR, value)
    code, out, err = run(
        capsys, "verify", "--identity", "kmx", "--p", "1", "--q", "1", "--m", "1", "--n", "1",
        "--format", fmt,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_length_cap_breach_exit_2(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "cardinality", "--p", "30", "--k", "0", "--m", "0"
    )
    assert code == 2
    assert "length" in err


def test_verify_reports_failure_exit_1(capsys, monkeypatch):
    def broken(x, y, z, n):
        return VerificationReport.from_sides(
            "rothe2", {"x": x, "y": y, "z": z, "n": n}, Fraction(1), Fraction(2)
        )

    patch_check(monkeypatch, "rothe2", broken)
    code, out, _ = run(
        capsys, "verify", "--identity", "rothe2",
        "--x", "0..2", "--y", "2", "--z", "1", "--n", "2",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "rothe2 x=0 y=2 z=1 n=2: FAIL lhs=1 rhs=2"
    assert lines[-1] == "3 checked, 3 failed"

    code, out, _ = run(
        capsys, "verify", "--identity", "rothe2",
        "--x", "0..2", "--y", "2", "--z", "1", "--n", "2", "--fail-fast",
    )
    assert code == 1
    assert out.splitlines()[-1] == "1 checked, 1 failed"


def test_verify_failure_json_has_counterexample(capsys, monkeypatch):
    def broken(x, y, z, n):
        return VerificationReport.from_sides(
            "rothe2", {"x": x, "y": y, "z": z, "n": n}, Fraction(1), Fraction(2)
        )

    patch_check(monkeypatch, "rothe2", broken)
    code, out, _ = run(
        capsys, "verify", "--identity", "rothe2",
        "--x", "2", "--y", "2", "--z", "1", "--n", "2", "--format", "json",
    )
    assert code == 1
    records = json_lines(out)
    assert records[0]["status"] == "fail"
    # the stub passes the parsed ints straight through
    assert records[0]["counterexample"] == {"x": 2, "y": 2, "z": 1, "n": 2}


def test_grid_prove_text(capsys):
    code, out, _ = run(capsys, "grid-prove", "--identity", "rothe1", "--n", "3")
    assert code == 0
    assert out == "CERTIFIED as polynomial identity for n=3 (64 grid points)\n"


def test_grid_prove_gould(capsys):
    code, out, _ = run(capsys, "grid-prove", "--identity", "gould", "--n", "2")
    assert code == 0
    assert "81 grid points" in out


def test_grid_prove_n0(capsys):
    code, out, _ = run(capsys, "grid-prove", "--identity", "rothe2", "--n", "0")
    assert code == 0
    assert "(1 grid points)" in out


def test_grid_prove_json(capsys):
    code, out, _ = run(
        capsys, "grid-prove", "--identity", "rothe2", "--n", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["identity"] == "rothe2"
    assert record["status"] == "pass"
    assert record["params"]["grid_points"] == 27


def test_grid_prove_offsets(capsys):
    code, out, _ = run(
        capsys, "grid-prove", "--identity", "rothe2", "--n", "1", "--offsets=-2,3,5"
    )
    assert code == 0
    code, _, err = run(
        capsys, "grid-prove", "--identity", "rothe2", "--n", "1", "--offsets", "1,2"
    )
    assert code == 2


def test_grid_prove_bad_identity_exit_2(capsys):
    code, _, _ = run(capsys, "grid-prove", "--identity", "nope", "--n", "2")
    assert code == 2
    # only the identities whose free variables may all be rational
    code, _, err = run(capsys, "grid-prove", "--identity", "kmx", "--n", "1")
    assert code == 2
    assert "{rothe1,rothe2,gould}" in err


def test_grid_prove_failure_exit_1(capsys, monkeypatch):
    # grid_prove compares the integer sides and never calls the checker
    entry = identities.IDENTITIES["rothe1"]._replace(
        sides=lambda xs, ys, zs, n, d: (itertools.repeat(0), itertools.repeat(1))
    )
    monkeypatch.setitem(identities.IDENTITIES, "rothe1", entry)
    code, out, _ = run(capsys, "grid-prove", "--identity", "rothe1", "--n", "1")
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE rothe1 at x=0 y=0 z=0")


def test_cli_deterministic_output(capsys):
    args = ("verify", "--identity", "invw", "--p", "0..8", "--k", "0..3", "--m", "0..2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bench_selftest_catches_every_wrong_answer():
    # the benchmark's checkers must fail each deliberately wrong answer;
    # a change that blinds one of them fails here
    proc = python(str(Path(__file__).parents[1] / "bench" / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    caught = re.search(r"^selftest: (\d+) of (\d+) wrong answers caught$", proc.stdout, re.M)
    assert caught and caught[1] == caught[2] != "0", proc.stdout


def assert_traced_run_correct(workload):
    """A one-second traced benchmark run of ``workload`` reports every
    operation correct, and none failed."""
    proc = python(str(Path(__file__).parents[1] / "bench" / "run.py"),
                  "--workload", workload, "--seconds", "1", "--trace", "1", timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
    assert result["attempted"] > 0


def test_traced_qchu_sweep_runs_correct():
    # the tracer wraps the q-checkers, the bracket recursion and the
    # polynomial class; a change that breaks a wrapped call fails the traced
    # q-checks, and the run reports it here. This sweep builds no polynomial
    # through __init__: test_construction_survives_a_wrapped_init guards that
    assert_traced_run_correct("qchu-sweep")


def test_traced_word_bijections_runs_correct():
    # the tracer wraps the four word maps and the b_count they validate
    # their words with, which bijections reaches through its own name
    assert_traced_run_correct("word-bijections")


def test_console_entry_point():
    proc = python("-m", "rothe_lab.cli", "verify", "--identity", "pqkm",
                  "--p", "2", "--q", "2", "--m", "1", "--n", "2")
    assert proc.returncode == 0
    assert "pqkm p=2 q=2 m=1 n=2: PASS 4" in proc.stdout


SUBMODULES = ("bijections", "cli", "errors", "identities", "qseries", "words")

# how a run enters the package (an import statement, or the argv of one CLI
# run) and the submodules that it must not load
IMPORT_GRAPH = {
    "package": ("import rothe_lab", SUBMODULES),
    "cli": ("import rothe_lab.cli", ("bijections", "qseries")),
    "bijections-and-cli": ("from rothe_lab import bijections, cli", ("qseries",)),
    "grid-prove": (["grid-prove", "--identity", "rothe1", "--n", "2"], ("bijections", "qseries")),
    "verify-rothe1": (["verify", "--identity", "rothe1", "--x", "1", "--y", "1", "--z", "1",
                       "--n", "0..2"], ("bijections", "qseries")),
    "enumerate": (["enumerate", "--p", "3", "--k", "1", "--m", "1"], ("bijections", "qseries")),
    "verify-qchu": (["verify", "--identity", "qchu", "--x", "2", "--y", "1", "--m", "1",
                     "--n", "1"], ("bijections",)),
    "bijection": (["bijection", "factorize", "--p", "1", "--q", "1", "--m", "1", "--n", "1",
                   "--all"], ("qseries",)),
}


@pytest.mark.parametrize("case", sorted(IMPORT_GRAPH))
def test_import_graph(case):
    # every rothe-lab run pays for its imports: it loads only the submodules
    # it uses, and never dataclasses, inspect or typing (-S keeps site from
    # importing typing)
    import ast

    how, unused = IMPORT_GRAPH[case]
    if not isinstance(how, str):
        how = f"import rothe_lab.cli\nassert rothe_lab.cli.main({how!r}) == 0"
    forbidden = {"dataclasses", "inspect", "typing", *(f"rothe_lab.{m}" for m in unused)}
    proc = python("-S", "-c", f"{how}\nimport sys\nprint(sorted(sys.modules))")
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert "rothe_lab" in loaded
    assert loaded & forbidden == set()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_prints_values_past_the_int_digit_limit(capsys, fmt):
    # each side has about 6,000 digits, past Python's default limit of 4,300
    # on int-to-str conversion; the check passes, so the run exits 0
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(
        capsys, "verify", "--identity", "rothe1", "--x", str(10**40),
        "--y", "1", "--z", "1", "--n", "150", "--format", fmt,
    )
    assert (code, err) == (0, "")
    first, summary = out.splitlines()
    if fmt == "json":
        report = json.loads(first)
        assert report["status"] == "pass"
        assert report["lhs"] == report["rhs"]
        value = report["lhs"]
        assert json.loads(summary) == {"checked": 1, "failed": 0, "skipped": 0}
    else:
        head, value = first.split(": PASS ")
        assert head == f"rothe1 x={10**40} y=1 z=1 n=150"
        assert summary == "1 checked, 0 failed"
    assert value.isdigit() and len(value) > 4300
    # the in-process caller gets its own limit back
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_verify_qchu_tall_x_exits_0_without_traceback():
    # x = 1100 once raised a RecursionError inside gaussian_binomial (exit 1)
    proc = python("-m", "rothe_lab.cli", "verify", "--identity", "qchu",
                  "--x", "1100", "--y", "1", "--m", "0", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "1 checked, 0 failed"
    assert "Traceback" not in proc.stderr


HUGE = str(10**30)
# argv and estimated work of q-Chu runs refused by the size of the closed form
# [x + y, n]; priced at ten units, the first once ended in an OverflowError
# traceback with exit 1, and the sweep took a minute to pass
CLOSED_FORM_REFUSALS = {
    "qchu-huge-x": ("verify --identity qchu --x {} --y 1 --m 0 --n 2", 2 * 10**30 + 8),
    "qchu-huge-y": ("verify --identity qchu --x 1 --y {} --m 0 --n 2", 2 * 10**30 + 8),
    "qchu-m1-huge-x": ("verify --identity qchu-m1 --x {} --y 1 --n 2", 2 * 10**30 + 17),
    "qchu-tall-sweep": ("verify --identity qchu --x 0..1200 --y 1..30 --m 0 --n 3", 10_001_220),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CLOSED_FORM_REFUSALS))
def test_verify_prices_the_qchu_closed_form_by_its_size(capsys, name, fmt):
    line, work = CLOSED_FORM_REFUSALS[name]
    code, out, err = run(capsys, *shlex.split(line.format(HUGE)), "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: estimated work of at least {work} exceeds the cap 10000000;")


def test_verify_huge_qchu_argument_exits_2_without_traceback():
    line, work = CLOSED_FORM_REFUSALS["qchu-huge-x"]
    proc = python("-m", "rothe_lab.cli", *shlex.split(line.format(HUGE)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: estimated work of at least {work} exceeds the cap")
    assert "Traceback" not in proc.stderr


def test_verify_huge_sweep_refused_without_full_walk(capsys):
    # 10^8 tuples: the estimate stops once its running total passes the cap,
    # so the refusal does not walk every tuple first
    code, out, err = run(
        capsys, "verify", "--identity", "qchu",
        "--x", "0..9999", "--y", "1..10000", "--m", "0", "--n", "100",
    )
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_verify_range_is_walked_lazily():
    # 10^12 + 1 degrees, refused from the tuple count alone: the range is
    # never held in memory
    proc = python("-m", "rothe_lab.cli", "verify", "--identity", "rothe1",
                  "--x", "0", "--y", "0", "--z", "0", "--n", "0..1000000000000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "exceeds the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_skipped_tuples_count_toward_the_cap(capsys):
    # q = 0 puts 11 tuples out of kmx's domain, one unit each; the 11 tuples
    # at q = 1 cost (n + 1)^2 each, 506 units in all
    argv = ["verify", "--identity", "kmx", "--p", "0", "--q", "0..1", "--m", "0",
            "--n", "0..10"]
    code, out, err = run(capsys, *argv, "--cap", "516")
    assert (code, out) == (2, "")
    assert err.startswith("error: estimated work of at least 517 exceeds the cap 516;")
    code, out, _ = run(capsys, *argv, "--cap", "517")
    assert code == 0 and out.endswith("11 checked, 0 failed, 11 skipped\n")


def test_verify_refuses_more_tuples_than_the_cap_unwalked(capsys):
    # every tuple costs at least one unit, so 10^12 + 1 tuples breach the cap
    # whether in the domain or not; the count is quoted without a walk. So
    # does every level: kmpink's j defaults to 1..m, empty at m = 0, yet each
    # of the 10^12 + 1 levels costs a unit
    for identity, q in [("kmx", "0"), ("kmx", "1"), ("kmpink", "0")]:
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--identity", identity, "--p", "0", "--q", q,
                             "--m", "0", "--n", "0..1000000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: estimated work of at least 1000000000001 exceeds the cap 10000000;"
        )
    # these 10 given values make 10 empty levels and no tuple
    argv = ["verify", "--identity", "kmpink", "--p", "0..9", "--q", "1", "--m", "0", "--n", "0"]
    code, out, err = run(capsys, *argv, "--cap", "9")
    assert (code, out) == (2, "")
    assert err.startswith("error: estimated work of at least 10 exceeds the cap 9;")
    code, out, _ = run(capsys, *argv, "--cap", "10")
    assert (code, out) == (0, "0 checked, 0 failed\n")


def test_verify_empty_levels_count_toward_the_cap(capsys):
    # 10 levels, fewer than the cap, so the sweep is walked: the 5 at m = 0
    # are empty and cost a unit each, the 5 at m = 1 hold j = 1 at
    # 2 (n + 1)^2 units, 110 in all; without the empty levels 114 would run
    argv = ["verify", "--identity", "kmpink", "--p", "0", "--q", "0", "--m", "0..1",
            "--n", "0..4"]
    code, out, err = run(capsys, *argv, "--cap", "114")
    assert (code, out) == (2, "")
    assert err.startswith("error: estimated work of at least 115 exceeds the cap 114;")
    code, out, _ = run(capsys, *argv, "--cap", "115")
    assert code == 0 and out.endswith("5 checked, 0 failed\n")


def test_verify_prices_each_tuple_once_per_pass(capsys, monkeypatch):
    # 12 tuples, 9 outside kmx's precondition: the estimate prices each once,
    # and the check loop once more, to skip it or to check it
    record = identities.IDENTITIES["kmx"]
    priced, checked = Counter(), []

    def price(*point):
        priced[point] += 1
        return record.price(*point)

    def check(**kwargs):
        checked.append(kwargs)
        return record.check(**kwargs)

    monkeypatch.setitem(identities.IDENTITIES, "kmx", record._replace(price=price, check=check))
    argv = ["verify", "--identity", "kmx", "--p", "0..2", "--q", "0..1", "--m", "1",
            "--n", "1..2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("3 checked, 0 failed, 9 skipped\n")
    assert len(priced) == 12 and set(priced.values()) == {2} and len(checked) == 3
    # a cap refusal prices up to the breach, the 11th tuple, and checks nothing
    priced.clear()
    code, out, err = run(capsys, *argv, "--cap", "20")
    assert (code, out) == (2, "")
    assert err.startswith("error: estimated work of at least 25 exceeds the cap 20;")
    assert len(priced) == 11 and set(priced.values()) == {1} and len(checked) == 3


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("flags", [
    ["--identity", "kmx", "--p", "0", "--q", "1", "--m=-1"],
    ["--identity", "kmx", "--p", "0", "--q", "1", "--m=-2"],
    ["--identity", "qchu", "--x", "0", "--y", "1", "--m=-2"],
    ["--identity", "qword", "--p", "0", "--q", "1", "--m=-2"],
], ids=["kmx-m1", "kmx-m2", "qchu-m2", "qword-m2"])
def test_verify_negative_grading_sweep_is_refused(flags, fmt):
    # more tuples than the cap: the sweep is refused from their count alone,
    # before any tuple is looked at
    proc = python("-m", "rothe_lab.cli", "verify", *flags, "--n", "0..1000000000000",
                  "--format", fmt, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "exceeds the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


# one small sweep per registry entry: (flags, checked, skipped); every entry
# with a precondition skips at least one tuple, counted by hand from it
REGISTRY_SWEEPS = {
    "rothe1": (["--x=0..1", "--y=1", "--z=1/2", "--n=0..2"], 6, 0),
    "rothe2": (["--x=-1..1", "--y=2", "--z=1", "--n=2"], 3, 0),
    "gould": (["--x=1", "--y=2", "--z=1", "--n=0..2"], 6, 0),
    "pqkm": (["--p=0..2", "--q=1", "--m=1", "--n=-1..2"], 12, 0),
    "kmx": (["--p=0..2", "--q=0..1", "--m=1", "--n=1..2"], 3, 9),
    "kmpink": (["--p=3", "--q=1", "--m=0..2", "--n=2", "--j=0..2"], 3, 6),
    "cardinality": (["--p=0..4", "--k=0..2", "--m=1"], 15, 0),
    "invw": (["--p=0..3", "--k=0..2", "--m=1"], 9, 3),
    "qchu": (["--x=0..2", "--y=0..1", "--m=1", "--n=1"], 2, 4),
    "qchu-m1": (["--x=0..2", "--y=1", "--n=0..2"], 6, 3),
    "qword": (["--p=0..2", "--q=1", "--m=1", "--n=0..1"], 5, 1),
}


def test_registry_sweeps_cover_every_identity():
    assert set(REGISTRY_SWEEPS) == set(identities.IDENTITIES)
    for name, (_, _, skipped) in REGISTRY_SWEEPS.items():
        # 0 everywhere but m = n = k = 1 is outside every precondition:
        # p < m*n, q < 1, p < k*m, j < 1
        record = identities.IDENTITIES[name]
        probe = [int(variable in ("m", "n", "k")) for variable in record.order]
        assert (skipped > 0) == (record.price(*probe) is None), name


@pytest.mark.parametrize("identity", sorted(REGISTRY_SWEEPS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_every_registry_identity(capsys, identity, fmt):
    flags, checked, skipped = REGISTRY_SWEEPS[identity]
    code, out, _ = run(capsys, "verify", "--identity", identity, "--format", fmt, *flags)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == checked + 1
    if fmt == "json":
        *records, summary = json_lines(out)
        assert summary == {"checked": checked, "failed": 0, "skipped": skipped}
        assert all(r["identity"] == identity and r["status"] == "pass" for r in records)
    else:
        tail = f", {skipped} skipped" if skipped else ""
        assert lines[-1] == f"{checked} checked, 0 failed{tail}"
        for line in lines[:-1]:
            assert line.startswith(f"{identity} ") and ": PASS " in line


STRAY_FLAGS = sorted(
    (identity, name)
    for identity, record in identities.IDENTITIES.items()
    for name in cli.VARIABLES
    if name not in record.order
)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("identity, stray", STRAY_FLAGS)
def test_verify_refuses_a_flag_the_identity_does_not_take(capsys, identity, stray, fmt):
    # an ignored flag would check another tuple: qchu-m1 with --m 2 checks m = 1 and passes
    flags, _, _ = REGISTRY_SWEEPS[identity]
    code, out, err = run(
        capsys, "verify", "--identity", identity, "--format", fmt, *flags, f"--{stray}=1"
    )
    assert (code, out) == (2, "")
    takes = ", ".join(f"--{name}" for name in identities.IDENTITIES[identity].order)
    assert err == f"error: identity '{identity}' takes no --{stray}; it takes {takes}\n"


def test_verify_exit_code_edges(capsys):
    # a negative n or m is an argument error, not an out-of-domain tuple
    code, out, err = run(capsys, "verify", "--identity", "kmx",
                         "--p", "3", "--q", "1", "--m", "1", "--n", "-1")
    assert (code, out) == (2, "")
    assert "n must be >= 0" in err
    code, out, err = run(capsys, "verify", "--identity", "qchu",
                         "--x", "3", "--y", "1", "--m", "-1", "--n", "1")
    assert (code, out) == (2, "")
    assert "m must be >= 0" in err
    # kmx makes no claim at m < 0, although p >= m*n and q >= 1 hold there
    code, out, err = run(capsys, "verify", "--identity", "kmx",
                         "--p", "3", "--q", "1", "--m", "-1", "--n", "1")
    assert (code, out) == (2, "")
    assert "m must be >= 0, got -1" in err
    # pqkm has no precondition: at negative n both sums are empty
    code, out, _ = run(capsys, "verify", "--identity", "pqkm",
                       "--p", "2", "--q", "1", "--m", "1", "--n", "-2")
    assert code == 0
    assert out.splitlines() == ["pqkm p=2 q=1 m=1 n=-2: PASS 0", "1 checked, 0 failed"]
    # j defaults to 1..m, which is empty at m = 0
    code, out, _ = run(capsys, "verify", "--identity", "kmpink",
                       "--p", "2", "--q", "1", "--m", "0", "--n", "1")
    assert code == 0
    assert out == "0 checked, 0 failed\n"
    # eps defaults to 0..n; at n < 0 the checker still sees the bad degree
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--identity", "gould", "--format", fmt,
                             "--x", "1", "--y", "1", "--z", "1", "--n=-1")
        assert (code, out) == (2, "")
        assert err == "error: n must be >= 0, got -1\n"
    # the m = -1 tuples with p < 2 are out of domain, yet the grading refuses
    # m = -1 before any report is printed
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--identity", "invw", "--format", fmt,
                             "--p", "0..3", "--k=-2", "--m=-1..0")
        assert (code, out) == (2, "")
        assert err == "error: grading parameter m must be >= 0, got -1\n"


# one tuple per word-class identity whose words are one letter too long
LENGTH_CAP_BREACHES = {
    "cardinality": ["--p=27", "--k=1", "--m=0"],
    "invw": ["--p=28", "--k=1", "--m=1"],
    "qword": ["--p=25", "--q=2", "--m=1", "--n=1"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("identity", sorted(LENGTH_CAP_BREACHES))
def test_verify_length_cap_refusal(capsys, identity, fmt):
    code, out, err = run(capsys, "verify", "--identity", identity, "--format", fmt,
                         *LENGTH_CAP_BREACHES[identity])
    assert (code, out) == (2, "")
    assert err == "error: enumerating words of length 27 exceeds the cap of 26\n"


# one tuple per word-class identity whose words would be too long, were m >= 0
NEGATIVE_GRADINGS = {
    "cardinality": ["--p=30", "--k=1", "--m=-1"],
    "invw": ["--p=30", "--k=1", "--m=-1"],
    "qword": ["--p=30", "--q=1", "--m=-1", "--n=1"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("identity", sorted(NEGATIVE_GRADINGS))
def test_verify_negative_grading_refused_before_length_cap(capsys, identity, fmt):
    code, out, err = run(capsys, "verify", "--identity", identity, "--format", fmt,
                         *NEGATIVE_GRADINGS[identity])
    assert (code, out) == (2, "")
    assert err == "error: grading parameter m must be >= 0, got -1\n"


# a negative m or n on a tuple outside the domain; the domain refuses the
# argument before the sweep could skip the tuple
NEGATIVE_ARGUMENTS_OUTSIDE_DOMAIN = {
    "qchu-m": ["--identity", "qchu", "--x=-5", "--y", "1", "--m=-1", "--n", "1"],
    "kmx-m": ["--identity", "kmx", "--p=-5", "--q", "1", "--m=-1", "--n", "1"],
    "invw-m": ["--identity", "invw", "--p=-5", "--k", "1", "--m=-1"],
    "qword-m": ["--identity", "qword", "--p=-5", "--q", "1", "--m=-1", "--n", "1"],
    "kmx-n": ["--identity", "kmx", "--p=-9", "--q", "1", "--m", "1", "--n=-1"],
    "qchu-m1-n": ["--identity", "qchu-m1", "--x=-5", "--y", "1", "--n=-1"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(NEGATIVE_ARGUMENTS_OUTSIDE_DOMAIN))
def test_verify_negative_argument_refused_outside_domain(capsys, case, fmt):
    code, out, err = run(capsys, "verify", "--format", fmt,
                         *NEGATIVE_ARGUMENTS_OUTSIDE_DOMAIN[case])
    message = ("n must be >= 0, got -1" if case.endswith("-n")
               else "grading parameter m must be >= 0, got -1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("identity", ["cardinality", "invw"])
def test_verify_empty_class_is_no_length_cap_breach(capsys, identity):
    # at k < 0 the class is empty, so it has no word length to refuse
    code, out, err = run(capsys, "verify", "--identity", identity, "--p", "20", "--k=-1",
                         "--m", "10")
    assert (code, err) == (0, "")
    assert out == f"{identity} p=20 k=-1 m=10: PASS 0\n1 checked, 0 failed\n"


# each unreachable branch of a bijection, reached by replacing the check that
# excludes it with the stand-in's source: the shift finds no balancing prefix,
# the factorization overshoots on an 'a'
BROKEN_INVARIANTS = {
    "shift": ("_require_shift_domain", "lambda p, q, m, n: None",
              ["theorem1", "--p", "1", "--q", "0", "--m", "0", "--n", "0", "--word", "a"],
              "no prefix y of '' and suffix x of 'a' with weight(y) = weight(x) + 1 (m=0)"),
    "decompose": ("_prefix_at_least", "lambda w, r, m: (1, r + 1)",
                  ["factorize", "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--word", "ab"],
                  "word 'ab' overshoots weight 1 on an 'a' at index 0"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INVARIANTS))
def test_broken_bijection_invariant_exits_3(capsys, monkeypatch, case):
    attr, stand_in, argv, message = BROKEN_INVARIANTS[case]
    monkeypatch.setattr(bijections, attr, eval(stand_in))
    code, out, err = run(capsys, "bijection", *argv)
    assert (code, out, err) == (3, "", f"internal error: {message}\n")


def test_broken_bijection_invariant_exits_3_under_optimize():
    # python -O strips assert statements; the raise must survive it
    for attr, stand_in, argv, message in BROKEN_INVARIANTS.values():
        script = (f"import sys; from rothe_lab import bijections, cli; "
                  f"bijections.{attr} = {stand_in}; sys.exit(cli.main(sys.argv[1:]))")
        proc = python("-O", "-c", script, "bijection", *argv)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"internal error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("target", ["--word", "--all"])
def test_internal_error_exits_3_without_traceback(capsys, monkeypatch, target, fmt):
    # a NoMatchError is no ValueError: it signals a broken invariant, not a
    # bad argument and not a counterexample
    def broken(w, p, q, g):
        raise NoMatchError(f"no equal-weight prefixes in {w!r}")

    monkeypatch.setattr(bijections, "decompose", broken)
    argv = ["bijection", "factorize", "--p", "1", "--q", "1", "--m", "1", "--n", "1",
            "--format", fmt, *(["--word", "ba"] if target == "--word" else ["--all"])]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    word = "ba" if target == "--word" else "ab"
    assert err == f"internal error: no equal-weight prefixes in {word!r}\n"


def test_verify_help_lists_exactly_the_registry(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    text = " ".join(out.split())
    listed = text.split("one of: ", 1)[1].split(" --", 1)[0]
    assert listed.split(", ") == sorted(identities.IDENTITIES)
    # the variable flags, derived from the registry, in a fixed order
    options = re.findall(r"^  (?:-h, )?(--[\w-]+)", out, re.MULTILINE)
    variables = ["--x", "--y", "--z", "--n", "--eps", "--p", "--q", "--m", "--j", "--k"]
    assert options == ["--help", "--identity", *variables, "--fail-fast", "--cap", "--format"]


def readme_cli_examples():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("rothe-lab ")]


def test_readme_has_cli_examples():
    # an empty parametrization would pass the test below silently
    assert readme_cli_examples()


@pytest.mark.parametrize("line", readme_cli_examples())
def test_readme_cli_example_exits_0(capsys, line):
    code, out, err = run(capsys, *shlex.split(line)[1:])
    assert (code, err) == (0, "")
    assert out


def test_readme_library_example_gives_its_commented_values():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        text = repr(value) if isinstance(value, (list, str)) else str(value)
        assert comment.strip().endswith(text), line
        shown.append(text)
    assert shown == ["['abb', 'bab', 'bba']", "'abb'", "1+q+q^2"]


def test_readme_lists_exactly_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = " ".join(readme.split("Identity names for `verify`:", 1)[1].split())
    names = re.findall(r"`([^`]+)`", paragraph.split(". ", 1)[0])
    assert names == list(identities.IDENTITIES)


# ---------------------------------------------------------------------------
# stdout: written in blocks, closed early, cut short by an error


class Stdout:
    """A stand-in for ``sys.stdout`` that keeps each write apart and raises
    ``BrokenPipeError`` on write number ``broken``, as a closed pipe does."""

    def __init__(self, broken=None):
        self.writes = []
        self.broken = broken

    def write(self, text):
        if len(self.writes) + 1 == self.broken:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def run_to(stdout, *argv):
    """Exit code and stderr of ``rothe-lab`` on ``argv``, its stdout going to ``stdout``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


# the q-Chu sweep of the cli-mixed benchmark: 1,757 reports and a summary
QCHU_SWEEP = "verify --identity qchu --x=3..17 --y=1..7 --m=0..2 --n=0..5"
QCHU_SWEEP_BYTES = 337_786
QCHU_SWEEP_SHA256 = "9e609963729a0d01d4d6ff82177be80d9391c4176aad2f638df577ea4d400a7a"


def qchu_sweep_text():
    """The text output of ``QCHU_SWEEP``, checked against its recorded digest."""
    stdout = Stdout()
    assert run_to(stdout, *shlex.split(QCHU_SWEEP)) == (0, "")
    text = "".join(stdout.writes)
    assert len(text.encode()) == QCHU_SWEEP_BYTES
    assert hashlib.sha256(text.encode()).hexdigest() == QCHU_SWEEP_SHA256
    return text


def test_output_is_written_in_blocks_of_8_kib(monkeypatch):
    # the clock held still: a block is written once it holds 8 KiB, and the
    # rest when the sweep ends
    monkeypatch.setattr(cli, "perf_counter_ns", lambda: 0)
    stdout = Stdout()
    assert run_to(stdout, *shlex.split(QCHU_SWEEP)) == (0, "")
    assert "".join(stdout.writes) == qchu_sweep_text()
    assert len(stdout.writes) <= math.ceil(QCHU_SWEEP_BYTES / 8192) + 1
    assert all(len(text) >= 8192 for text in stdout.writes[:-1])
    assert all(text.endswith("\n") for text in stdout.writes)


def test_a_line_100_ms_after_its_block_began_writes_the_block(monkeypatch):
    # a clock that moves 100 ms per reading: every line is its own write
    monkeypatch.setattr(cli, "perf_counter_ns", itertools.count(0, 100_000_000).__next__)
    stdout = Stdout()
    assert run_to(stdout, *shlex.split(QCHU_SWEEP)) == (0, "")
    assert stdout.writes == qchu_sweep_text().splitlines(keepends=True)
    assert len(stdout.writes) == 1758


CLOSED_STDOUT_RUNS = {
    "verify": "verify --identity qchu --x=3..8 --y=1..4 --m=0..2 --n=0..4",
    "enumerate": "enumerate --p 14 --k 7 --m 0",
    "bijection-all": "bijection theorem1 --p 10 --q 4 --m 1 --n 5 --all",
}


@pytest.mark.parametrize("broken", [1, 2])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CLOSED_STDOUT_RUNS))
def test_closed_stdout_exits_2_without_a_message(case, fmt, broken):
    argv = [*shlex.split(CLOSED_STDOUT_RUNS[case]), "--format", fmt]
    whole = Stdout()
    assert run_to(whole, *argv) == (0, "")
    assert len(whole.writes) > 2
    stdout = Stdout(broken)
    assert run_to(stdout, *argv) == (2, "")
    assert stdout.writes == whole.writes[:broken - 1]


def test_no_stdout_at_all_runs_silently():
    # a process started with its descriptor 1 closed has no sys.stdout
    assert run_to(None, *shlex.split(CLOSED_STDOUT_RUNS["enumerate"])) == (0, "")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv, first_line", [
    ("enumerate --p 20 --k 10 --m 0", b"aaaaaaaaaabbbbbbbbbb  weight=20 inv=0\n"),
    (QCHU_SWEEP, b"qchu x=3 y=1 m=0 n=0: PASS 1\n"),
], ids=["enumerate", "qchu-sweep"])
def test_reader_gone_after_one_line_exits_2_without_a_message(argv, first_line, unbuffered):
    # the reader keeps one line of output far larger than a pipe holds and
    # closes its end: no traceback, no "Exception ignored" at shutdown and no
    # exit 120, whether stdout is buffered or not
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", cli.CAP_ENV_VAR)}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "rothe_lab.cli", *shlex.split(argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (first, code, err) == (first_line, 2, b"")


def nth_call_breaks(monkeypatch, module, name, n, broken):
    """Make the ``n``-th call of ``module.name`` return ``broken(original,
    *args, **kwargs)`` instead, where ``original`` is the function it replaces."""
    original = getattr(module, name)
    calls = itertools.count(1)

    def patched(*args, **kwargs):
        if next(calls) == n:
            return broken(original, *args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


def no_split(original, *args, **kwargs):
    raise NoMatchError("no split")


def test_lines_before_an_internal_error_reach_stdout(monkeypatch):
    from rothe_lab import qseries

    before = qchu_sweep_text().splitlines(keepends=True)[:399]
    assert len("".join(before)) > 8192
    nth_call_breaks(monkeypatch, qseries, "check_qchu", 400, no_split)
    stdout = Stdout()
    assert run_to(stdout, *shlex.split(QCHU_SWEEP)) == (3, "internal error: no split\n")
    assert "".join(stdout.writes) == "".join(before)


def test_lines_before_a_fail_fast_stop_reach_stdout(monkeypatch):
    from rothe_lab import qseries

    def failing(original, **kwargs):
        report = original(**kwargs)
        return report._replace(status="fail", counterexample=dict(report.params))

    before = qchu_sweep_text().splitlines(keepends=True)[:399]
    nth_call_breaks(monkeypatch, qseries, "check_qchu", 400, failing)
    stdout = Stdout()
    assert run_to(stdout, *shlex.split(QCHU_SWEEP), "--fail-fast") == (1, "")
    *head, fail, summary = "".join(stdout.writes).splitlines(keepends=True)
    assert head == before
    assert re.fullmatch(r"qchu x=\d+ y=\d+ m=\d+ n=\d+: FAIL lhs=\S+ rhs=\S+\n", fail)
    assert summary == "400 checked, 1 failed, 105 skipped\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lines_before_a_broken_bijection_reach_stdout(monkeypatch, fmt):
    argv = [*shlex.split(CLOSED_STDOUT_RUNS["bijection-all"]), "--format", fmt]
    whole = Stdout()
    assert run_to(whole, *argv) == (0, "")
    # theorem1_forward runs once per word of the source class, one line each
    before = "".join(whole.writes).splitlines(keepends=True)[:399]
    assert len("".join(before)) > 8192
    nth_call_breaks(monkeypatch, bijections, "theorem1_forward", 400, no_split)
    stdout = Stdout()
    assert run_to(stdout, *argv) == (3, "internal error: no split\n")
    assert "".join(stdout.writes) == "".join(before)


# a fresh interpreter that makes every check_qchu raise an internal error
BROKEN_QCHU = (
    "import sys; from rothe_lab import NoMatchError, cli, qseries\n"
    "def broken(*args, **kwargs): raise NoMatchError('no split')\n"
    "qseries.check_qchu = broken\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


# run in the child before it starts: no descriptor 2 at all (so no
# sys.stderr), or one on which every write fails with ENOSPC
LOSE_STDERR = {
    "closed": lambda: os.close(2),
    "full": lambda: os.dup2(os.open("/dev/full", os.O_WRONLY), 2),
}


@pytest.mark.parametrize("lost", sorted(LOSE_STDERR))
@pytest.mark.parametrize("argv, code, message", [
    (["-m", "rothe_lab.cli", "verify", "--identity", "nope", "--x", "1"], 2,
     "error: unknown identity 'nope'"),
    (["-m", "rothe_lab.cli", "verify", "--identity", "rothe1", "--x", "0..3", "--y", "1",
      "--z", "1", "--n", "2", "--cap", "1"], 2, "error: estimated work of at least 4"),
    (["-c", BROKEN_QCHU, "verify", "--identity", "qchu", "--x", "3", "--y", "1", "--m", "0",
      "--n", "1"], 3, "internal error: no split"),
    (["-m", "rothe_lab.cli", "verify", "--bogus"], 2, "usage: rothe-lab verify"),
], ids=["usage", "cap", "internal", "argparse"])
def test_a_lost_stderr_message_keeps_the_exit_code(argv, code, message, lost):
    # the message goes to stderr alone; a lost stderr loses the message, not
    # the exit code
    src = str(Path(__file__).parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != cli.CAP_ENV_VAR}
    env["PYTHONPATH"] = src
    shown = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                           timeout=60, env=env)
    assert (shown.returncode, shown.stdout) == (code, "")
    assert shown.stderr.startswith(message)
    if lost == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full to fail every write")
    run = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, text=True,
                         timeout=60, env=env, preexec_fn=LOSE_STDERR[lost])
    assert (run.returncode, run.stdout) == (code, "")
