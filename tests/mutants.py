"""Mutation check: faults that the test suite must catch.

Run from the repository root:

    python tests/mutants.py

Each mutant names a file of src/phasekit, a snippet that must occur
there exactly once, its replacement, and the test selection that must
fail once the snippet is replaced.  The script copies src/ to a
temporary directory and runs every selection there, with the copy first
on PYTHONPATH: each selection unmutated (it must pass), then each
mutant's (it must fail).  It prints the kills, the survivors and the
time taken, and exits 1 when a mutant survives, a snippet does not
match exactly once or a clean selection fails, so the list keeps up
with refactors.

The file has no test_ prefix, so the test suite does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Mutant:
    """A fault: snippet replaced by replacement in src/phasekit/path,
    which the pytest node ids of selection must then fail."""

    def __init__(self, name, path, snippet, replacement, *selection):
        self.name = name
        self.path = path
        self.snippet = snippet
        self.replacement = replacement
        self.selection = selection


MUTANTS = [
    Mutant("one-column guard dropped", "textio.py",
           "if len(columns.split()) == 1:", "if True:",
           "tests/test_textio.py::"
           "test_lone_numbers_of_a_two_column_body_are_refused"),
    Mutant("first row not read", "textio.py",
           'rows = array("d", [float(line)])', 'rows = array("d")',
           "tests/test_simulator.py::test_record_file_round_trip"),
    Mutant("streamed rows numbered one line late", "textio.py",
           "start = len(header) + 1", "start = len(header) + 2",
           "tests/test_simulator.py::test_load_rejects_non_finite_sample"),
    Mutant("n_max written as a real", "states.py",
           '(_check_n_max, "%d".__mod__)', '(_check_n_max, "%.1f".__mod__)',
           "tests/test_cli.py::"
           "test_state_round_trips_through_config_and_records"),
    Mutant("complex state values not checked finite", "states.py",
           '    if not cmath.isfinite(value):\n'
           '        raise ValueError("%r is not finite" % text)\n', "",
           "tests/test_states.py::"
           "test_complex_state_field_names_its_non_finite_text"),
    Mutant("empty count list accepted", "simulator.py",
           "    if not values:\n"
           '        raise ValueError("no counts")\n', "",
           "tests/test_cli.py::test_parse_config_rejects_counts_below_one"),
    Mutant("record count list not matched to n_phases", "simulator.py",
           "        if len(values) != n_phases:", "        if False:",
           "tests/test_textio.py::"
           "test_records_list_one_event_count_per_phase"),
    Mutant("sample count not checked", "simulator.py",
           "        if x.shape != (starts[-1],):", "        if False:",
           "tests/test_simulator.py::"
           "test_measurement_set_requires_matching_counts",
           "tests/test_simulator.py::test_load_rejects_count_mismatch"),
]


def _passes(src, selection):
    """Whether pytest passes selection with src first on PYTHONPATH."""
    # no bytecode: a mutant and its undoing can share a size and an
    # mtime second, and a cached module would outlive either
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p",
         "no:cacheprovider", *selection],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        package = src / "phasekit"
        failures = 0
        for m in MUTANTS:
            count = (package / m.path).read_text().count(m.snippet)
            if count != 1:
                print("STALE    %s: snippet occurs %d times in %s"
                      % (m.name, count, m.path))
                failures += 1
        if failures:
            return 1
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            if not _passes(src, selection):
                print("UNCLEAN  %s fails unmutated" % " ".join(selection))
                failures += 1
        if failures:
            return 1
        killed = 0
        for m in MUTANTS:
            path = package / m.path
            text = path.read_text()
            path.write_text(text.replace(m.snippet, m.replacement))
            try:
                survived = _passes(src, m.selection)
            finally:
                path.write_text(text)
            killed += not survived
            print("%s %s" % ("SURVIVED" if survived else "killed  ", m.name))
    print("%d of %d mutants killed, %d survived, in %.0f s"
          % (killed, len(MUTANTS), len(MUTANTS) - killed,
             time.perf_counter() - start))
    return int(killed < len(MUTANTS))


if __name__ == "__main__":
    sys.exit(main())
