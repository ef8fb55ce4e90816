#!/usr/bin/env python3
"""Run the register of planted faults and report which ones the tests catch.

Each mutant is one string replacement in one file under `src/`: an anchor
that must occur exactly once in that file, the text that replaces it, the
pytest selection expected to catch the fault, and a time limit.  For each
mutant the script copies `src/`, `tests/`, `scripts/` and `README.md`
(the tests load helpers from `scripts/` and read the README's budget
table) to a temporary directory, applies the replacement there, and runs
`python -m pytest -x -q <selection>` under the limit.  It prints one line
per mutant: its name, caught or survived, and the seconds taken.  A mutant is caught only when pytest reports failing tests (exit
status 1); passing tests, a timeout or any other exit status counts as
survived.  The exit status is 1 if any mutant survives or any anchor is
missing or occurs more than once, and 0 otherwise.  The working tree is
never modified.

    python3 scripts/mutants.py

A refactor that moves an anchor updates its entry here in the same change;
a tier-1 test checks that every anchor occurs exactly once in `src/`.
The idea is mutation testing (DeMillo, Lipton and Sayward, IEEE Computer
11(4), 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    anchor: str
    replacement: str
    selection: tuple[str, ...]
    limit_s: float


WORD_REFERENCE = ("tests/test_fibering.py::test_text_words_match_the_signed_code_reference",)
PARSE_REFERENCE = ("tests/test_cli_fuzz.py::test_cli_parse_matches_the_argparse_reference",)
EXACT_INVERSES = ("tests/test_intalg.py::test_tracked_inverses_are_the_exact_inverses",)
RECORD_TWINS = ("tests/test_package.py::test_records_behave_as_their_dataclass_twins",)
NORM_PRODUCTS = ("tests/test_groupring.py::test_product_with_the_norm_matches_dense_reference",)
DISTINCT_RHO = ("tests/test_groupring.py::test_coefficients_complex_runs_rho_once_per_distinct_boundary",)
ELEMENT_BASICS = ("tests/test_groupring.py::test_element_basics",)
PUSH_FORWARD = ("tests/test_postnikov.py::test_push_forward_matches_the_per_term_definition",)
RECORD_BINDER = ("tests/test_package.py::test_records_bind_arguments_as_their_old_signatures",)
# without its defaults no `leq` type can be built, so the package tests stop
# at collection (exit 2, not a catch); the first D2Map left without a cokernel fails
D2_DEFAULTS = ("tests/test_james.py::test_d2_40_cyclic_nonorientable",)
SOLVE_ORACLES = ("tests/test_intalg.py::test_factorization_matches_independent_oracles",)
SMITH_ORACLES = (
    "tests/test_intalg.py::test_smith_diag_2_3_equals_1_6_oracle_first",
    "tests/test_intalg.py::test_smith_matches_minors_oracle",
)

MUTANTS = (
    Mutant(
        "fibering: parse_word skips the reduction",
        "immorder/fibering.py",
        "return w if w.is_freely_reduced() else FreeWord(free_reduce(s))",
        "return w",
        WORD_REFERENCE,
        120,
    ),
    Mutant(
        "fibering: the inverse-pair regex loses Bb",
        "immorder/fibering.py",
        '_INVERSE_PAIR = re.compile("aA|Aa|bB|Bb")',
        '_INVERSE_PAIR = re.compile("aA|Aa|bB")',
        WORD_REFERENCE,
        120,
    ),
    Mutant(
        "fibering: inverse drops swapcase",
        "immorder/fibering.py",
        "FreeWord(self.text[::-1].swapcase())",
        "FreeWord(self.text[::-1])",
        WORD_REFERENCE,
        120,
    ),
    Mutant(
        "fibering: exponents swaps a and A",
        "immorder/fibering.py",
        'count("a") - count("A")',
        'count("A") - count("a")',
        WORD_REFERENCE,
        120,
    ),
    Mutant(
        "cli: the choices check is skipped",
        "immorder/cli.py",
        "if option.choices and out not in option.choices:",
        "if False:",
        PARSE_REFERENCE,
        120,
    ),
    Mutant(
        "cli: the first value of a repeated option wins",
        "immorder/cli.py",
        "given[option] = _read_value(option, flag, value)",
        "given.setdefault(option, _read_value(option, flag, value))",
        PARSE_REFERENCE,
        120,
    ),
    Mutant(
        "cli: an ambiguous prefix takes its first match",
        "immorder/cli.py",
        "if len(matches) > 1:",
        "if False:",
        PARSE_REFERENCE,
        120,
    ),
    Mutant(
        "cli: the required check is skipped",
        "immorder/cli.py",
        "missing = [o.flag for o in options if o.required and o not in given]",
        "missing = []",
        PARSE_REFERENCE,
        120,
    ),
    Mutant(
        "intalg: a tail pivot row is read as a row of A",
        "immorder/intalg.py",
        "s = list(rows[r]) if r < n else [int(i == r - n) for i in range(len(hv))]",
        "s = list(rows[r % n])",
        EXACT_INVERSES,
        120,
    ),
    Mutant(
        "intalg: the pivot division is skipped",
        "immorder/intalg.py",
        "vi[piv[r]] = [x // d for x in s] if d != 1 else s",
        "vi[piv[r]] = s",
        EXACT_INVERSES,
        120,
    ),
    Mutant(
        "intalg: record equality drops the same-class check",
        "immorder/intalg.py",
        "if other.__class__ is self.__class__:",
        "if True:",
        RECORD_TWINS,
        120,
    ),
    Mutant(
        "intalg: a record's hash skips its first field",
        "immorder/intalg.py",
        "return hash(self._values(self))",
        "return hash(self._values(self)[1:])",
        RECORD_TWINS,
        120,
    ),
    Mutant(
        "intalg: assigning a record field no longer raises",
        "immorder/intalg.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "set_field(self, name, value)",
        RECORD_TWINS,
        120,
    ),
    Mutant(
        "intalg: the record binder accepts leftover keywords",
        "immorder/intalg.py",
        "        if kwargs:\n",
        "        if False:\n",
        RECORD_BINDER,
        120,
    ),
    Mutant(
        "intalg: the record binder ignores the declared defaults",
        "immorder/intalg.py",
        "elif name in defaults:",
        "elif False:",
        D2_DEFAULTS,
        120,
    ),
    Mutant(
        "intalg: solve ignores a remainder at rows from 12 on",
        "immorder/intalg.py",
        "                    if r:\n",
        "                    if r and i < 12:\n",
        SOLVE_ORACLES,
        120,
    ),
    Mutant(
        "intalg: solve ignores a remainder at rows from 40 on",
        "immorder/intalg.py",
        "                    if r:\n",
        "                    if r and i < 40:\n",
        SOLVE_ORACLES,
        120,
    ),
    Mutant(
        "intalg: the Euclid loop skips its divisibility fix-up",
        "immorder/intalg.py",
        "offender = None if p == 1 else next((i for i in range(t + 1, n) if any(x % p for x in w[i][t + 1 :])), None)",
        "offender = None",
        SMITH_ORACLES,
        120,
    ),
    Mutant(
        "groupring: the norm guard skips its count of ones",
        "immorder/groupring.py",
        "if y[-1] == 1 and y.count(1) == n:",
        "if y[-1] == 1:",
        NORM_PRODUCTS,
        120,
    ),
    Mutant(
        "groupring: degrees of the same parity share rho past the resolutions",
        "immorder/groupring.py",
        "down = tuple(rhos[id(d)] for d in cx.boundaries)",
        "down = tuple(rhos[id(cx.boundaries[k % 2])] for k, d in enumerate(cx.boundaries))",
        DISTINCT_RHO,
        120,
    ),
    Mutant(
        "groupring: is_zero accepts one nonzero term",
        "immorder/groupring.py",
        "return self.coeffs.count(0) == self.n",
        "return self.coeffs.count(0) >= self.n - 1",
        ELEMENT_BASICS,
        120,
    ),
    Mutant(
        "postnikov: push_forward drops the zero padding",
        "immorder/postnikov.py",
        "c = x.coeffs + (0,) * (-phi.l1 % l2)",
        "c = x.coeffs",
        PUSH_FORWARD,
        120,
    ),
    Mutant(
        "postnikov: the strided fold of push_forward skips the first block",
        "immorder/postnikov.py",
        "folded = [sum(c[r::l2]) for r in range(l2)]",
        "folded = [sum(c[r + l2 :: l2]) for r in range(l2)]",
        PUSH_FORWARD,
        120,
    ),
)


def anchor_problems(src: Path) -> list[str]:
    """One message per mutant whose anchor does not occur exactly once."""
    problems = []
    for m in MUTANTS:
        count = (src / m.path).read_text().count(m.anchor)
        if count != 1:
            problems.append(f"{m.name}: anchor occurs {count} times in src/{m.path}")
    return problems


def run_mutant(m: Mutant) -> tuple[bool, float]:
    """(caught, seconds) for one mutant, run on a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", tmp)
        target = Path(tmp) / "src" / m.path
        target.write_text(target.read_text().replace(m.anchor, m.replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.selection]
        start = time.perf_counter()
        try:
            status = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=m.limit_s).returncode
        except subprocess.TimeoutExpired:
            status = None
        return status == 1, time.perf_counter() - start


def main() -> int:
    problems = anchor_problems(ROOT / "src")
    for line in problems:
        print(line)
    if problems:
        return 1
    survived = 0
    for m in MUTANTS:
        caught, seconds = run_mutant(m)
        survived += not caught
        print(f"{m.name}: {'caught' if caught else 'survived'} in {seconds:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
