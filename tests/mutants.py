"""A standing mutation check: small faults that named tests must catch.

Each mutant gives a file, an exact old text that occurs once in it, the new
text that replaces it, the ids of the tests that must fail on the mutated
tree, and the claim it guards. ::

    python tests/mutants.py               # every mutant
    python tests/mutants.py --only NAME   # one mutant (repeatable)
    python tests/mutants.py --list

The runner copies the files the tests read into a temporary directory and
first runs every named test there unmutated: each must pass. Then it applies
one mutant at a time and runs its tests with ``python -m pytest -q -p
no:cacheprovider``. A mutant is killed when every named test fails (an id
without parameters fails when any of its cases does). Each mutant is printed
as killed or survived, with its time; the exit status is 1 when a mutant
survived or an unmutated test failed, and 2 on an unknown name. Standard
library only. pytest does not collect this file, as its name does not start
with ``test_``.

A change that adds a fast path adds its mutant here. A change that removes
the code a mutant edits updates or retires the mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# everything a named test reads, relative to the checkout
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")

Mutant = namedtuple("Mutant", "name path old new kills guards")

QSERIES = "src/rothe_lab/qseries.py"
TEST_QSERIES = "tests/test_qseries.py"

MUTANTS = (
    Mutant(
        "pack-sum-byte-order", QSERIES,
        'product = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")',
        'product = int.from_bytes(bytes(a), "big") * int.from_bytes(bytes(b), "big")',
        (f"{TEST_QSERIES}::test_pack_sum_matches_schoolbook_at_one_and_two_byte_slots",
         f"{TEST_QSERIES}::test_lp_arithmetic_and_canonical_form"),
        "the kernel packs one-byte runs lowest coefficient first; the q-Chu "
        "brackets are palindromes, so the checks alone cannot tell",
    ),
    Mutant(
        "pack-byte-order", QSERIES,
        'return int.from_bytes(bytes(coeffs), "little")',
        'return int.from_bytes(bytes(coeffs), "big")',
        (f"{TEST_QSERIES}::test_pack_matches_the_slot_sum",
         f"{TEST_QSERIES}::test_packed_comparison_matches_unpacked_equality"),
        "_pack reads a one-byte run lowest coefficient first",
    ),
    Mutant(
        "slot-size-off-by-one", QSERIES,
        "    elif size < 9:\n",
        "    elif size < 10:\n",
        (f"{TEST_QSERIES}::test_slot_size_is_the_smallest_native_size_that_holds_the_width",
         f"{TEST_QSERIES}::test_sum_of_products_at_the_width_bound"),
        "a width of 65 to 72 bits takes nine-byte slots, not eight",
    ),
    Mutant(
        "packed-equals-without-bound", QSERIES,
        "if height > bound or (negative and not signed)",
        "if (negative and not signed)",
        (f"{TEST_QSERIES}::test_packed_comparison_matches_unpacked_equality",),
        "the packed comparison is exact only for coefficients within the bound",
    ),
    Mutant(
        "right-factor-sign-dropped", QSERIES,
        "if negative_a or negative_b:",
        "if negative_a:",
        (f"{TEST_QSERIES}::test_sum_of_products_at_the_width_bound",
         f"{TEST_QSERIES}::test_pack_sum_matches_schoolbook_at_one_and_two_byte_slots"),
        "a negative coefficient in either factor costs the slots a sign bit",
    ),
    Mutant(
        "height-not-kept", QSERIES,
        '        object.__setattr__(poly, "_height", height)\n',
        "",
        (f"{TEST_QSERIES}::test_lp_keeps_its_height",
         f"{TEST_QSERIES}::test_a_recurring_factor_is_scanned_once"),
        "a recurring factor's coefficients are scanned once",
    ),
    Mutant(
        "mismatch-reports-closed-form", QSERIES,
        "return closed if _packed_equals(packed, closed) else _unpack_sum(packed)",
        "return closed",
        (f"{TEST_QSERIES}::test_a_mismatch_reports_the_unpacked_sum",
         f"{TEST_QSERIES}::test_flipped_qchu_exponent_is_caught",
         "tests/test_cli.py::test_verify_failing_q_report_prints_both_sides"),
        "a failing q-Chu check reports its own double sum, not the closed form",
    ),
    Mutant(
        "m0-split-scans", "src/rothe_lab/bijections.py",
        "    if m == 0:\n",
        "    if m < 0:\n",
        ("tests/test_bijections.py::test_no_prefix_scan_at_m0",),
        "at m = 0 the word maps split a word without reading a letter",
    ),
    Mutant(
        "factorize-all-scans", "src/rothe_lab/cli.py",
        'scan = args.kind == "theorem1"',
        "scan = True",
        ("tests/test_cli.py::test_factorize_all_scans_no_prefix_outside_the_map",),
        "bijection factorize --all counts its class without a prefix scan",
    ),
    Mutant(
        "enumerate-unpriced", "src/rothe_lab/cli.py",
        "    _refuse_class_over_cap(args, args.p, args.k, g.m)\n",
        "",
        ("tests/test_cli.py::test_enumerate_cap_breach_exits_2_before_any_word",),
        "enumerate refuses a class over the work cap before its first word",
    ),
    Mutant(
        "pass-compares-terms", "src/rothe_lab/identities.py",
        "        if lhs is rhs or lhs == rhs:\n",
        "        if lhs == rhs:\n",
        (f"{TEST_QSERIES}::test_a_passing_check_compares_no_terms",),
        "a passing q-check hands in one object as both sides, and it is "
        "not compared term by term",
    ),
    Mutant(
        "zero-bracket-by-truth", QSERIES,
        "            if left is _ZERO:\n",
        "            if not left:\n",
        (f"{TEST_QSERIES}::test_a_passing_check_compares_no_terms",),
        "every zero bracket is the shared _ZERO, found by identity rather than "
        "by a call to __bool__",
    ),
)


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant applied; its old text must occur exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def run_tests(tree: Path, ids) -> tuple[int, set[str], str]:
    """Run the tests ``ids`` in ``tree``: pytest's exit status, the ids of
    the cases that failed, and the output."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE))
    return done.returncode, failed, done.stdout + done.stderr


def missed(ids, failed: set[str]) -> list[str]:
    """The ids none of whose cases is among ``failed``."""
    return [i for i in ids if not any(f == i or f.startswith(i + "[") for f in failed)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this mutant (repeatable)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.guards}")
        return 0
    unknown = [name for name in args.only or () if name not in by_name]
    if unknown:
        print(f"unknown mutant {unknown[0]!r}; see --list", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in args.only] if args.only else list(MUTANTS)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.egg-info", ".bench_out", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        ids = list(dict.fromkeys(i for m in chosen for i in m.kills))
        code, failed, output = run_tests(tree, ids)
        if code != 0:
            print(output)
            print(f"unmutated: {len(failed)} named test(s) failed; no mutant was run")
            return 1
        survived = 0
        for m in chosen:
            path = tree / m.path
            original = path.read_text()
            path.write_text(mutated(m, original))
            start = time.perf_counter()
            try:
                code, failed, output = run_tests(tree, m.kills)
            finally:
                path.write_text(original)
            alive = missed(m.kills, failed) if code == 1 else list(m.kills)
            seconds = time.perf_counter() - start
            if alive:
                survived += 1
                print(f"SURVIVED {m.name} ({seconds:.1f} s): not caught by {', '.join(alive)}")
                if code != 1:
                    print(output)
            else:
                print(f"killed   {m.name} ({seconds:.1f} s)")
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
