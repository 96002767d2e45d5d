"""The shared artifact codec: fuzzed corruption, bit-exact and byte-exact
round trips, the 'columns' check, and the record loader against its
per-row reference."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _oracles import per_row_load_records
from phasekit import textio
from phasekit.estimator import MomentEstimate, load_moments, save_moments
from phasekit.reconstruct import (
    METHODS,
    PhaseDistribution,
    fourier_reconstruct,
    load_distribution,
    save_distribution,
)
from phasekit.simulator import (
    ExperimentPlan,
    MeasurementSet,
    load_records,
    run_experiment,
    save_records,
)
from phasekit.states import STATE_KINDS, StateSpec
from phasekit.textio import parse

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _not_a_float(token):
    try:
        float(token)
    except ValueError:
        return True
    return False


# Tokens that float() rejects and that cannot split a line, open a
# header or change a row's column count.
junk = st.text(
    st.characters(codec="ascii", categories=("L", "N", "P", "S"),
                  exclude_characters="#,"),
    min_size=1, max_size=6,
).filter(_not_a_float)


def _fresh(path):
    """path with its old file removed: truncating and rewriting a file
    can force a flush to disk on every example (ext4 auto_da_alloc)."""
    path.unlink(missing_ok=True)
    return path


def _records_text(tmp_path):
    plan = ExperimentPlan.uniform(StateSpec(kind="coherent", alpha=0.7,
                                            n_max=8), 3, 4, eta=0.9, seed=2)
    path = _fresh(tmp_path / "records.txt")
    save_records(run_experiment(plan), path, header_lines=("config: c",))
    return path.read_text()


def _moments_text(tmp_path):
    batch = [MomentEstimate(k=k, value=complex(0.1 * k, -0.2), var_re=1e-4,
                            var_im=4e-4, n_phases=12, compensated=k % 2 == 1,
                            eta_assumed=0.9 if k % 2 else 1.0)
             for k in range(1, 5)]
    path = _fresh(tmp_path / "moments.txt")
    save_moments(batch, path)
    return path.read_text()


def _distribution_text(tmp_path):
    moments = [MomentEstimate(k=k, value=0.3 / k, var_re=1e-4, var_im=1e-4,
                              n_phases=12, compensated=False,
                              eta_assumed=1.0) for k in (1, 2)]
    path = _fresh(tmp_path / "distribution.txt")
    save_distribution(fourier_reconstruct(moments, 2, 16), path)
    return path.read_text()


def _load_text(loader):
    def load(text, tmp_path):
        path = _fresh(tmp_path / "artifact.txt")
        path.write_text(text)
        return loader(path)
    return load


# format name -> (valid text builder, loader of text)
FORMATS = {
    "records": (_records_text, _load_text(load_records)),
    "moments": (_moments_text, _load_text(load_moments)),
    "distribution": (_distribution_text, _load_text(load_distribution)),
}

# Header fields whose value a junk token must make unreadable.
NUMERIC_FIELDS = ("state", "n_phases", "events_per_phase", "eta", "seed",
                  "K", "M", "reg_lambda")


def _corrupt(lines, data):
    """Corrupt one row or numeric header field of lines in place and
    return the line's 1-based number.  A row of one cell is not emptied,
    since a blank line is no row to name."""
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    heads = [i for i, ln in enumerate(lines)
             if re.match(r"# (%s) *[:=]" % "|".join(NUMERIC_FIELDS), ln)]
    i = data.draw(st.sampled_from(rows + heads))
    if i in heads:
        key, sep_char = re.match(r"# ([^:=]*)([:=])", lines[i]).groups()
        lines[i] = "# %s%s %s" % (key, sep_char, data.draw(junk))
        return i + 1
    cells = lines[i].split()
    op = data.draw(st.sampled_from(["replace", "drop", "add"]
                                   if len(cells) > 1 else ["replace", "add"]))
    if op == "replace":
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(junk)
    elif op == "drop":
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    else:
        cells.insert(data.draw(st.integers(0, len(cells))),
                     data.draw(junk | st.just("1.5")))
    lines[i] = " ".join(cells)
    return i + 1


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_valid_artifacts_load(name, tmp_path):
    make, load = FORMATS[name]
    load(make(tmp_path), tmp_path)


@pytest.mark.parametrize("name", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_corrupted_line_is_named(name, tmp_path, data):
    make, load = FORMATS[name]
    lines = make(tmp_path).splitlines()
    line = _corrupt(lines, data)
    with pytest.raises(ValueError) as info:
        load("\n".join(lines) + "\n", tmp_path)
    assert str(info.value).startswith("line %d: " % line), str(info.value)


@pytest.mark.parametrize("name, key, value", [
    ("distribution", "reg_lambda", "nan"),
    ("distribution", "reg_lambda", "-1"),
    ("distribution", "reg_lambda", "inf"),
    ("distribution", "K", "-3"),
    ("distribution", "M", "0"),
    ("distribution", "method", "bogus"),
    ("records", "eta", "nan"),
    ("records", "eta", "0"),
    ("records", "eta", "1.5"),
    ("records", "seed", "-7"),
    ("records", "state",
     "kind=coherent alpha=nan+0j squeeze=0+0j fock_n=0 n_max=8"),
    ("records", "state",
     "kind=squeezed_vacuum alpha=0+0j squeeze=inf fock_n=0 n_max=8"),
])
def test_out_of_range_header_value_is_named(name, key, value, tmp_path):
    make, load = FORMATS[name]
    lines = make(tmp_path).splitlines()
    i = next(i for i, ln in enumerate(lines)
             if re.match(r"# %s:" % re.escape(key), ln))
    lines[i] = "# %s: %s" % (key, value)
    with pytest.raises(ValueError,
                       match=r"^line %d: bad %s value '%s': "
                             % (i + 1, key, re.escape(value))):
        load("\n".join(lines) + "\n", tmp_path)


STATE = "kind=coherent alpha=0.69999999999999996+0j squeeze=0+0j fock_n=0"


@pytest.mark.parametrize("name, key, value, reason", [
    ("records", "n_phases", "2.0", "n_phases must be an integer >= 1"),
    ("records", "n_phases", "0", "n_phases must be an integer >= 1"),
    ("records", "events_per_phase", "4 1e1 4",
     "events_per_phase must be an integer >= 1, not '1e1'"),
    ("records", "events_per_phase", "4 0 4",
     "events_per_phase must be an integer >= 1, not '0'"),
    ("records", "state", STATE + " n_max=8.0",
     "n_max must be an integer >= 0, not '8.0'"),
    ("records", "state", STATE.replace("fock_n=0", "fock_n=-1") + " n_max=8",
     "fock_n must be an integer >= 0, not '-1'"),
    ("moments", "n_phases", "0", "n_phases must be an integer >= 1"),
    ("moments", "n_phases", "1e1", "n_phases must be an integer >= 1"),
])
def test_integer_header_value_gets_its_range_at_its_line(
        name, key, value, reason, tmp_path):
    # the integer fields go through the config keys' validators
    make, load = FORMATS[name]
    lines = make(tmp_path).splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("# %s:" % key))
    lines[i] = "# %s: %s" % (key, value)
    with pytest.raises(ValueError) as info:
        load("\n".join(lines) + "\n", tmp_path)
    assert str(info.value).startswith(
        "line %d: bad %s value '%s': %s" % (i + 1, key, value, reason))


@pytest.mark.parametrize("counts", ["4 4", "4 4 4 4"])
def test_records_list_one_event_count_per_phase(counts, tmp_path):
    make, load = FORMATS["records"]
    lines = make(tmp_path).splitlines()
    i = next(i for i, ln in enumerate(lines)
             if ln.startswith("# events_per_phase:"))
    lines[i] = "# events_per_phase: " + counts
    with pytest.raises(ValueError, match="^line %d: bad events_per_phase "
                       "value '%s': %d event counts for 3 phases$"
                       % (i + 1, counts, len(counts.split()))):
        load("\n".join(lines) + "\n", tmp_path)


def test_moments_file_without_rows_is_refused(tmp_path):
    # save_moments writes no such file
    lines = _moments_text(tmp_path).splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    with pytest.raises(ValueError, match="^file holds no moments$"):
        FORMATS["moments"][1]("\n".join(header) + "\n", tmp_path)


def test_header_fields_split_at_first_separator():
    art = parse(["# title line", "# a = b: c", "# d: e = f", "#g=h",
                 "1 2", "# a: last", "", "3 4"], "x y")
    assert art.fields == {"a": (6, "last"), "d": (3, "e = f"),
                          "g": (4, "h")}
    assert art.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert art.line_numbers.tolist() == [5, 8]
    assert art.field("a:") == "last"
    with pytest.raises(ValueError, match="header lacks '# b: ...'"):
        art.field("b:")
    with pytest.raises(ValueError, match="line 3: bad d value"):
        art.field("d:", float)


# Every finite double: repr, the format of every sample, moment and
# P(phi) value, reads back as the same double.
finite = st.floats(allow_nan=False, allow_infinity=False)
# Doubles whose text most often loses bits: signed zeros, subnormals,
# the smallest normal double and the largest double.
exact = finite | st.floats(-2.3e-308, 2.3e-308) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
     -2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308])
# sigmas whose square neither overflows nor underflows, or inf: files
# store sigma, moments carry its square, and sqrt(s * s) == s there
sigmas = st.sampled_from([0.0, math.inf]) | st.floats(1e-100, 1e100)
etas = st.floats(0.0, 1.0, exclude_min=True)


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def _exact_records(counts, data):
    """A vacuum-plan MeasurementSet of counts[l] samples drawn from
    exact at phase l."""
    return MeasurementSet(
        plan=ExperimentPlan(state=StateSpec(kind="vacuum"),
                            events_per_phase=tuple(counts)),
        samples=np.concatenate([np.array(data.draw(st.lists(
            exact, min_size=n, max_size=n))) for n in counts]))


@FUZZ
@given(counts=st.lists(st.integers(1, 20), min_size=1, max_size=5),
       data=st.data())
def test_records_load_to_the_saved_doubles(tmp_path, counts, data):
    ms = _exact_records(counts, data)
    path = _fresh(tmp_path / "records.txt")
    save_records(ms, path)
    loaded = load_records(path)
    assert loaded.plan == ms.plan
    assert ([r.tobytes() for r in loaded.records]
            == [r.tobytes() for r in ms.records])


@FUZZ
@given(counts=st.lists(st.integers(1, 20), min_size=1, max_size=5),
       blank=st.integers(0, 100), data=st.data())
def test_records_are_the_samples_in_phase_order(tmp_path, counts, blank,
                                                data):
    ms = _exact_records(counts, data)
    path = _fresh(tmp_path / "records.txt")
    save_records(ms, path)
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("# ")]
    assert head[-1] == "# columns: x"
    assert lines[len(head):] == [repr(x) for r in ms.records
                                 for x in r.tolist()]
    # a blank line sends the file through the per-line reader, which
    # reads the same doubles
    lines.insert(len(head) + blank % (len(lines) - len(head)), "")
    path.write_text("\n".join(lines) + "\n")
    assert ([r.tobytes() for r in load_records(path).records]
            == [r.tobytes() for r in ms.records])


def _moment_bits(est):
    return (est.k, est.n_phases, est.compensated,
            _bits(est.value.real, est.value.imag, est.sigma_re,
                  est.sigma_im, est.eta_assumed))


@FUZZ
@given(ks=st.sets(st.integers(1, 40), min_size=1, max_size=6),
       values=st.lists(st.tuples(exact, exact, sigmas, sigmas,
                                 st.booleans(), etas),
                       min_size=6, max_size=6),
       n_phases=st.integers(1, 10 ** 6))
def test_moments_load_to_the_saved_doubles(tmp_path, ks, values, n_phases):
    batch = [MomentEstimate(k=k, value=complex(re, im), var_re=s_re ** 2,
                            var_im=s_im ** 2, n_phases=n_phases,
                            compensated=comp, eta_assumed=eta)
             for k, (re, im, s_re, s_im, comp, eta) in zip(sorted(ks),
                                                           values)]
    path = _fresh(tmp_path / "moments.txt")
    save_moments(batch, path)
    assert ([_moment_bits(est) for est in load_moments(path)]
            == [_moment_bits(est) for est in batch])


def test_numpy_scalar_moments_are_written_as_plain_numbers(tmp_path):
    # repr of a numpy scalar is 'np.float64(...)', which is no number
    est = MomentEstimate(k=1, value=np.complex128(0.1 - 0.2j),
                         var_re=np.float64(1e-4), var_im=np.float64(4e-4),
                         n_phases=12, compensated=True,
                         eta_assumed=np.float64(0.9))
    path = _fresh(tmp_path / "moments.txt")
    save_moments([est], path)
    assert path.read_text().splitlines()[-1] == "1 0.1 -0.2 0.01 0.02 1 0.9"
    assert _moment_bits(load_moments(path)[0]) == _moment_bits(est)


def test_numpy_scalar_reg_lambda_is_written_as_a_plain_number(tmp_path):
    dist = PhaseDistribution(grid=np.zeros(1), values=np.ones(1),
                             method="least_squares", K_used=1,
                             reg_lambda=np.float64(1e-3))
    path = _fresh(tmp_path / "distribution.txt")
    save_distribution(dist, path)
    assert "# reg_lambda: 0.001\n" in path.read_text()
    assert load_distribution(path).reg_lambda == 1e-3


@FUZZ
@given(values=st.lists(exact, min_size=1, max_size=20),
       method=st.sampled_from(METHODS), K=st.integers(0, 99),
       reg_lambda=st.floats(0.0, 1.7976931348623157e308))
def test_distributions_load_to_the_saved_doubles(tmp_path, values, method,
                                                 K, reg_lambda):
    grid = 2.0 * np.pi * np.arange(len(values)) / len(values)
    dist = PhaseDistribution(grid=grid, values=values, method=method,
                             K_used=K, reg_lambda=reg_lambda)
    path = _fresh(tmp_path / "distribution.txt")
    save_distribution(dist, path)
    loaded = load_distribution(path)
    assert (loaded.method, loaded.K_used) == (method, K)
    assert (_bits(*loaded.grid, *loaded.values, loaded.reg_lambda)
            == _bits(*grid, *values, reg_lambda))


@FUZZ
@given(kind=st.sampled_from(STATE_KINDS), alpha=finite,
       n_max=st.integers(0, 9),
       counts=st.lists(st.integers(1, 3), min_size=1, max_size=5),
       eta=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 40),
       data=st.data())
def test_records_save_load_save_is_byte_identical(
        tmp_path, kind, alpha, n_max, counts, eta, seed, data):
    plan = ExperimentPlan(
        state=StateSpec(kind=kind, alpha=complex(alpha, -alpha),
                        n_max=n_max),
        events_per_phase=tuple(counts), eta=eta, seed=seed)
    ms = MeasurementSet(plan, np.concatenate([
        np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        for n in counts]))
    first, second = _fresh(tmp_path / "a.txt"), _fresh(tmp_path / "b.txt")
    save_records(ms, first, header_lines=("config: x",))
    loaded = load_records(first)
    assert loaded.plan == plan
    save_records(loaded, second, header_lines=("config: x",))
    assert first.read_bytes() == second.read_bytes()


@FUZZ
@given(ks=st.sets(st.integers(1, 40), min_size=1, max_size=6),
       values=st.lists(st.tuples(finite, finite, sigmas, sigmas,
                                 st.booleans(), st.floats(0.5, 1.0)),
                       min_size=6, max_size=6),
       n_phases=st.integers(1, 10 ** 6))
def test_moments_save_load_save_is_byte_identical(
        tmp_path, ks, values, n_phases):
    batch = [MomentEstimate(k=k, value=complex(re, im), var_re=s_re ** 2,
                            var_im=s_im ** 2, n_phases=n_phases,
                            compensated=comp, eta_assumed=eta)
             for k, (re, im, s_re, s_im, comp, eta) in zip(sorted(ks),
                                                           values)]
    first, second = _fresh(tmp_path / "a.txt"), _fresh(tmp_path / "b.txt")
    save_moments(batch, first)
    save_moments(load_moments(first), second)
    assert first.read_bytes() == second.read_bytes()


@FUZZ
@given(values=st.lists(finite, min_size=1, max_size=20),
       method=st.sampled_from(METHODS), K=st.integers(0, 99),
       reg_lambda=st.floats(0.0, 1e6))
def test_distribution_save_load_save_is_byte_identical(
        tmp_path, values, method, K, reg_lambda):
    grid = 2.0 * np.pi * np.arange(len(values)) / len(values)
    dist = PhaseDistribution(grid=grid, values=values, method=method,
                             K_used=K, reg_lambda=reg_lambda)
    first, second = _fresh(tmp_path / "a.txt"), _fresh(tmp_path / "b.txt")
    save_distribution(dist, first, header_lines=("config: x",))
    save_distribution(load_distribution(first), second,
                      header_lines=("config: x",))
    assert first.read_bytes() == second.read_bytes()


def _outcome(loader, path):
    """('ok', records, plan), ('line', N) for an error naming line N,
    or ('error', message) for any other ValueError."""
    try:
        ms = loader(path)
    except ValueError as exc:
        match = re.match(r"line (\d+): ", str(exc))
        return ("line", int(match[1])) if match else ("error", str(exc))
    return "ok", [r.tolist() for r in ms.records], ms.plan


@FUZZ
@given(data=st.data())
def test_record_loader_agrees_with_per_row_reference(tmp_path, data):
    lines = _records_text(tmp_path).splitlines()
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    i = data.draw(st.sampled_from(rows))
    cells = lines[i].split()
    op = data.draw(st.sampled_from(
        ["none", "replace", "drop", "add", "move to end", "delete"]))
    if op == "replace":
        cells[0] = data.draw(st.floats().map(repr) | junk)
    elif op == "drop":
        del cells[0]
    elif op == "add":
        cells.append(data.draw(junk | st.just("0")))
    lines[i] = " ".join(cells)
    if op == "move to end":
        lines.append(lines.pop(i))
    elif op == "delete":
        del lines[i]
    path = _fresh(tmp_path / "corrupt.txt")
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(load_records, path) == _outcome(per_row_load_records,
                                                    path)


def _digit_underscore(line, data):
    """line with '_' put between two adjacent digits, if it has any,
    which float() and int() read as if it were not there."""
    spots = [m.start() + 1 for m in re.finditer(r"(?=\d\d)", line)]
    if not spots:
        return line
    at = data.draw(st.sampled_from(spots))
    return line[:at] + "_" + line[at:]


def _spaced(line, data):
    """line with spaces drawn around its sample."""
    pad = st.text(" \t", max_size=3)
    return data.draw(pad) + line.strip() + data.draw(pad)


def _non_finite_cell(line, data):
    """A sample that the C reader reads and load_records refuses."""
    return data.draw(st.sampled_from(["nan", "inf", "-inf"]))


# Edits of a records body that the C reader must not read differently
# from parse.  It reads spaces around cells; underscores, '#' lines and
# an empty body make it refuse the rows; a blank line, which it skips,
# would shift the line numbers of the rows after it.  A damaging edit
# gives one row an error to name: a row that does not parse or a
# non-finite sample.  Up to three land in one file, since both readers
# name the first unreadable row, and only then the first non-finite one.
STRUCTURAL_EDITS = ("blank line", "comment line", "spaces", "underscore",
                    "empty body")
DAMAGING_EDITS = ("trailing comment", "non-finite cell")


@FUZZ
@given(edits=st.lists(st.sampled_from(STRUCTURAL_EDITS), max_size=3),
       damages=st.lists(st.sampled_from(DAMAGING_EDITS), max_size=3),
       data=st.data())
def test_record_loader_agrees_with_per_row_reference_on_structural_edits(
        tmp_path, edits, damages, data):
    for damage in damages:
        edits.insert(data.draw(st.integers(0, len(edits))), damage)
    if not edits:
        edits.append("blank line")
    lines = _records_text(tmp_path).splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    for edit in edits:
        rows = [i for i in range(head, len(lines))
                if lines[i].strip() and not lines[i].startswith("#")]
        if edit == "empty body":
            lines = [ln for i, ln in enumerate(lines) if i not in rows]
        elif edit in ("blank line", "comment line"):
            text = data.draw(st.sampled_from(
                ["", "  ", "\t"] if edit == "blank line"
                else ["#", "# note", "# remark: x = 1", "# seed: 3"]))
            lines.insert(data.draw(st.integers(head, len(lines))), text)
        elif rows:
            i = data.draw(st.sampled_from(rows))
            lines[i] = {
                "trailing comment": lambda ln, _: ln + " # x",
                "spaces": _spaced,
                "underscore": _digit_underscore,
                "non-finite cell": _non_finite_cell,
            }[edit](lines[i], data)
    path = _fresh(tmp_path / "edited.txt")
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(load_records, path) == _outcome(per_row_load_records,
                                                        path)


def test_unreadable_row_is_named_before_an_earlier_non_finite_one(
        tmp_path):
    lines = _records_text(tmp_path).splitlines()
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    lines[rows[1]] = "nan"
    lines[rows[5]] += " # x"
    path = _fresh(tmp_path / "records.txt")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match="^line %d: expected 'x'" % (rows[5] + 1)):
        load_records(path)
    assert (_outcome(per_row_load_records, path)
            == _outcome(load_records, path) == ("line", rows[5] + 1))


def _rows_parsed_per_line(monkeypatch, path):
    """Rows that load_records(path) takes through textio.parse."""
    parsed = []
    parse_lines = textio.parse

    def counting(lines, columns):
        art = parse_lines(lines, columns)
        parsed.append(len(art.rows))
        return art

    monkeypatch.setattr(textio, "parse", counting)
    load_records(path)
    monkeypatch.undo()
    return sum(parsed)


def test_clean_records_go_through_the_c_reader(tmp_path, monkeypatch):
    lines = _records_text(tmp_path).splitlines()
    path = _fresh(tmp_path / "records.txt")
    path.write_text("\n".join(lines) + "\n")
    assert _rows_parsed_per_line(monkeypatch, path) == 0
    # a blank line is not a number, so the streamed pass stops there
    # and parse reads all 12 rows instead
    lines.insert(-1, "")
    path = _fresh(path)
    path.write_text("\n".join(lines) + "\n")
    assert _rows_parsed_per_line(monkeypatch, path) == 12


def test_lone_numbers_of_a_two_column_body_are_refused(tmp_path):
    # only a one-column body is streamed through float
    path = tmp_path / "distribution.txt"
    path.write_text("# columns: phi P\n0.5\n0.25\n")
    with pytest.raises(ValueError,
                       match="^line 2: expected 'phi P', got '0.5'$"):
        textio.load(path, "phi P")


def _with_first_row_cell(text, column, token):
    """text with one cell of its first row replaced, and that line's
    number."""
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[i].split()
    cells[column] = token
    lines[i] = " ".join(cells)
    return "\n".join(lines) + "\n", i + 1


@pytest.mark.parametrize("column, token, message", [
    (0, "1.5", "moment order 1.5"),
    (0, "inf", "moment order inf"),
    (5, "0.5", "compensated flag 0.5"),
    (5, "2", "compensated flag 2.0"),
])
def test_moment_loader_rejects_non_integral_order_and_flag(
        tmp_path, column, token, message):
    text, line = _with_first_row_cell(_moments_text(tmp_path), column, token)
    path = _fresh(tmp_path / "bad.txt")
    path.write_text(text)
    with pytest.raises(ValueError, match="line %d: %s" % (line, message)):
        load_moments(path)


def _with_columns(text, columns):
    """text with its '# columns:' line replaced, and that line's number."""
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("# columns:"))
    lines[i] = "# columns: " + columns
    return lines, i + 1


def test_v1_records_are_refused_at_their_columns_line(tmp_path):
    # the layout before one-column records: 'l, theta_l, x' per event
    lines, line = _with_columns(_records_text(tmp_path), "l, theta_l, x")
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    for n, i in enumerate(rows):
        l = n // 4
        lines[i] = "%d, %.15e, %.15e" % (l, 2.0 * math.pi * l / 3,
                                         float(lines[i]))
    path = _fresh(tmp_path / "v1.txt")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line %d: columns 'l, theta_l, x', "
                                         "expected 'x'$" % line):
        load_records(path)


# format name -> (a 'columns' value of another layout, the reader's)
OTHER_COLUMNS = {
    "records": ("l x", "x"),
    "moments": ("k re im sigma_re sigma_im",
                "k re im sigma_re sigma_im compensated eta"),
    "distribution": ("phi P sigma", "phi P"),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_another_columns_line_is_refused(name, tmp_path):
    make, load = FORMATS[name]
    found, expected = OTHER_COLUMNS[name]
    lines, line = _with_columns(make(tmp_path), found)
    with pytest.raises(ValueError) as info:
        load("\n".join(lines) + "\n", tmp_path)
    assert str(info.value) == ("line %d: columns '%s', expected '%s'"
                               % (line, found, expected))


def test_columns_line_among_the_rows_is_refused(tmp_path):
    # not a leading header line, so the per-line reader finds it
    lines = _records_text(tmp_path).splitlines()
    lines.insert(-2, "# columns: l, theta_l, x")
    path = _fresh(tmp_path / "records.txt")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line %d: columns 'l, theta_l, x'"
                                         % (len(lines) - 2)):
        load_records(path)


def test_columns_field_is_compared_word_by_word():
    art = parse(["# columns:  phi   P ", "0 1"], "phi P")
    assert art.fields["columns"] == (1, "phi   P")
    with pytest.raises(ValueError, match="^line 2: columns 'P phi'"):
        parse(["# title", "# columns: P phi"], "phi P")
