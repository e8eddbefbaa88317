"""The exit-code contract of the command line under drawn argv.

``cli.main`` runs in-process on argv drawn for all four subcommands: small
values near the domain edges, ranges, rationals in integer slots, missing,
stray and unknown flags, and, for every variable, integers of thousands of
digits. Every drawn ``verify`` run passes a small ``--cap``, so an accepted
run is cheap, and half the ``enumerate`` runs pass one, positive or not;
three explicit q-Chu runs with a huge argument keep the default cap. Each
argv runs in text and in json. The contract: exit 0 or 2, never an exception
or a traceback, every json line parses, both formats agree on the exit code
and on the summary counts, and a flag of another identity exits 2.
"""

import contextlib
import io
import json
import re

from hypothesis import example, given, settings, strategies as st

from rothe_lab import cli, identities

REGISTRY = identities.IDENTITIES
GRID_IDENTITIES = tuple(name for name, record in REGISTRY.items() if record.grid_variables)
HUGE = str(10**30)
SUMMARY = re.compile(r"(\d+) checked, (\d+) failed(?:, (\d+) skipped)?")

small = st.integers(min_value=-14, max_value=14)
near_zero = st.integers(min_value=-1, max_value=4)


def invoke(argv):
    """Exit code, stdout and stderr of ``rothe-lab`` on ``argv``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def huge_text(draw):
    """An integer of one to five thousand digits, written without converting one."""
    sign = draw(st.sampled_from(("", "-")))
    head = draw(st.integers(min_value=1, max_value=9))
    return f"{sign}{head}{'0' * draw(st.integers(min_value=999, max_value=4999))}"


@st.composite
def verify_argv(draw):
    """``(argv, stray)``: a verify run with ``--cap`` at most 10^4 and at most one
    mistake: a missing, stray or unknown flag, or a rational in an integer slot."""
    identity = draw(st.sampled_from(sorted(REGISTRY)))
    record = REGISTRY[identity]
    rational = record.grid_variables or ()
    ints = {name: draw(small if name in ("p", "q", "x", "y") else near_zero)
            for name in cli.VARIABLES}
    if draw(st.booleans()):
        # the first variable at the edge m*n - 1, m*n or m*n + 1 of the shift domain
        ints[record.order[0]] = ints["m"] * ints["n"] + draw(st.integers(-1, 1))
    mistake = draw(st.sampled_from((None,) * 6 + ("missing", "stray", "unknown", "rational")))
    spoiled = draw(st.sampled_from(record.order))
    cap = draw(st.sampled_from((10**4, 10**4, 10**3, 30)))
    argv = ["verify", "--identity", identity, f"--cap={cap}"]
    for name in record.order:
        if name == record.order[-1] and record.default is not None and draw(st.booleans()):
            continue
        if name == spoiled and mistake in ("missing", "rational"):
            if mistake == "rational":
                argv.append(f"--{name}={ints[name]}/{draw(st.integers(2, 4))}")
            continue
        text = draw(st.sampled_from((str(ints[name]), f"{ints[name]}..{ints[name] + 2}")))
        if draw(st.integers(0, 2)) == 0:
            text = draw(huge_text())
        elif name in rational and draw(st.integers(0, 2)) == 0:
            text = f"{ints[name]}/{draw(st.integers(2, 4))}"
        argv.append(f"--{name}={text}")
    others = [name for name in cli.VARIABLES if name not in record.order]
    stray = draw(st.sampled_from(others)) if mistake == "stray" and others else None
    if stray:
        argv.append(f"--{stray}={ints[stray]}")
    if mistake == "unknown":
        argv.append("--bogus=1")
    return argv, stray


@st.composite
def other_argv(draw):
    """An enumerate, bijection or grid-prove run, at sizes that stay cheap."""
    command = draw(st.sampled_from(("enumerate", "bijection", "grid-prove")))
    if command == "enumerate":
        argv = ["enumerate", f"--p={draw(st.integers(-2, 10))}", f"--k={draw(near_zero)}",
                f"--m={draw(st.integers(-1, 3))}"]
        if draw(st.booleans()):
            argv.append(f"--prefix-weight={draw(st.integers(-1, 6))}")
        if draw(st.booleans()):
            # at most 10 letters: a class of up to 252 words, 2,521 units
            argv.append(f"--cap={draw(st.sampled_from((1, 30, 500, 10**4, 0, -3)))}")
    elif command == "bijection":
        m, n, q = draw(near_zero.filter(lambda v: v < 3)), draw(near_zero), draw(near_zero)
        p = m * n + draw(st.integers(-1, 2))
        argv = ["bijection", draw(st.sampled_from(("theorem1", "factorize"))),
                f"--p={p}", f"--q={q}", f"--m={m}", f"--n={n}"]
        if draw(st.booleans()):
            argv.append("--all")
        else:
            # a word of the class has n letters b and p + q - n letters a
            a_count = max(p + q - n + draw(st.sampled_from((0, 0, 0, 1))), 0)
            letters = draw(st.permutations("a" * a_count + "b" * max(n, 0)))
            argv.append(f"--word={''.join(letters)}")
        if draw(st.integers(0, 3)) == 0:
            argv.append("--inverse")
    else:
        identity = draw(st.sampled_from(GRID_IDENTITIES + ("kmx", "qchu")))
        argv = ["grid-prove", f"--identity={identity}", f"--n={draw(st.integers(-1, 3))}"]
        if draw(st.booleans()):
            count = draw(st.sampled_from((3, 4, 4, 0, 2)))
            argv.append(f"--offsets={','.join(str(draw(small)) for _ in range(count))}")
    return argv, None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(verify_argv(), other_argv()))
# closed forms [x + y, 2] far too large to build, which the drawn argv miss
@example((["verify", "--identity=qchu", f"--x={HUGE}", "--y=1", "--m=0", "--n=2"], None))
@example((["verify", "--identity=qchu", "--x=1", f"--y={HUGE}", "--m=0", "--n=2"], None))
@example((["verify", "--identity=qchu-m1", f"--x={HUGE}", "--y=1", "--n=2"], None))
def test_cli_keeps_its_exit_code_contract(case):
    argv, stray = case
    runs = {fmt: invoke([*argv, f"--format={fmt}"]) for fmt in ("text", "json")}
    for code, out, err in runs.values():
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
    assert runs["text"][0] == runs["json"][0], argv
    lines = [json.loads(line) for line in runs["json"][1].splitlines()]
    if stray:
        assert runs["text"][:2] == (2, ""), argv
    if argv[0] == "verify" and runs["json"][0] == 0:
        checked, failed, skipped = SUMMARY.fullmatch(runs["text"][1].splitlines()[-1]).groups()
        summary = {"checked": int(checked), "failed": int(failed), "skipped": int(skipped or 0)}
        assert lines[-1] == summary, argv
