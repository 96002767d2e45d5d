"""The shared artifact codec: fuzzed corruption, byte-exact round trips,
the record loader against its per-row reference and the record writer
against its per-event one."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _oracles import per_event_record_lines, per_row_load_records
from phasekit import textio
from phasekit.estimator import MomentEstimate, load_moments, save_moments
from phasekit.kernels import KernelSpec, KernelTable, build_kernel_table
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
from phasekit.textio import check_finite_text

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


def _table_text(tmp_path):
    return build_kernel_table(KernelSpec(k=1), grid_step=0.25).to_text()


def _load_text(loader):
    def load(text, tmp_path):
        path = _fresh(tmp_path / "artifact.txt")
        path.write_text(text)
        return loader(path)
    return load


# format name -> (valid text builder, loader of text, row separator)
FORMATS = {
    "records": (_records_text, _load_text(load_records), ","),
    "moments": (_moments_text, _load_text(load_moments), None),
    "distribution": (_distribution_text, _load_text(load_distribution),
                     None),
    "kernel table": (_table_text,
                     lambda text, tmp_path: KernelTable.from_text(text),
                     None),
}

# Header fields whose value a junk token must make unreadable.
NUMERIC_FIELDS = ("state", "n_phases", "events_per_phase", "eta", "seed",
                  "K", "M", "reg_lambda", "k", "l0", "x0", "f_truncation",
                  "tail", "offset removed from series part")


def _corrupt(lines, sep, data):
    """Corrupt one row or numeric header field of lines in place and
    return the line's 1-based number."""
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    heads = [i for i, ln in enumerate(lines)
             if re.match(r"# (%s) *[:=]" % "|".join(NUMERIC_FIELDS), ln)]
    i = data.draw(st.sampled_from(rows + heads))
    if i in heads:
        key, sep_char = re.match(r"# ([^:=]*)([:=])", lines[i]).groups()
        lines[i] = "# %s%s %s" % (key, sep_char, data.draw(junk))
        return i + 1
    joiner = ", " if sep == "," else " "
    cells = [c.strip() for c in lines[i].split(sep)]
    op = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if op == "replace":
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(junk)
    elif op == "drop":
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    else:
        cells.insert(data.draw(st.integers(0, len(cells))),
                     data.draw(junk | st.just("1.5")))
    lines[i] = joiner.join(cells)
    return i + 1


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_valid_artifacts_load(name, tmp_path):
    make, load, _ = FORMATS[name]
    load(make(tmp_path), tmp_path)


@pytest.mark.parametrize("name", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_corrupted_line_is_named(name, tmp_path, data):
    make, load, sep = FORMATS[name]
    lines = make(tmp_path).splitlines()
    line = _corrupt(lines, sep, data)
    with pytest.raises(ValueError) as info:
        load("\n".join(lines) + "\n", tmp_path)
    assert str(info.value).startswith("line %d: " % line), str(info.value)


@pytest.mark.parametrize("name, key, value", [
    ("distribution", "reg_lambda", "nan"),
    ("distribution", "reg_lambda", "-1"),
    ("distribution", "reg_lambda", "inf"),
    ("distribution", "K", "-3"),
    ("distribution", "method", "bogus"),
    ("records", "eta", "nan"),
    ("records", "eta", "0"),
    ("records", "eta", "1.5"),
])
def test_out_of_range_header_value_is_named(name, key, value, tmp_path):
    make, load, _ = FORMATS[name]
    lines = make(tmp_path).splitlines()
    i = next(i for i, ln in enumerate(lines)
             if ln.startswith("# %s:" % key))
    lines[i] = "# %s: %s" % (key, value)
    with pytest.raises(ValueError,
                       match=r"^line %d: bad %s value '%s': "
                             % (i + 1, key, value)):
        load("\n".join(lines) + "\n", tmp_path)


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


# '%.15e' rounds values within an ulp of the largest double up past it,
# so round trips draw from a range clear of that edge
finite = st.floats(-1e300, 1e300)
# sigmas whose square neither overflows nor underflows: files store
# sigma, moments carry its square
sigmas = st.just(0.0) | st.floats(1e-100, 1e100)


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
    ms = MeasurementSet(plan=plan, records=tuple(
        np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        for n in counts))
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


def _record_cell(column, data):
    """A replacement cell both record loaders read the same way: an
    integer phase index, a non-NaN theta, any sample, or junk."""
    thetas = ["%.15e" % (2.0 * math.pi * l / 3) for l in range(3)]
    number = {
        0: st.integers(-3, 5).map(str),
        1: st.floats(allow_nan=False).map(repr) | st.sampled_from(thetas),
        2: st.floats().map(repr),
    }[column]
    return data.draw(number | junk)


@FUZZ
@given(data=st.data())
def test_record_loader_agrees_with_per_row_reference(tmp_path, data):
    lines = _records_text(tmp_path).splitlines()
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    i = data.draw(st.sampled_from(rows))
    cells = [c.strip() for c in lines[i].split(",")]
    op = data.draw(st.sampled_from(
        ["none", "replace", "drop", "add", "move to end", "delete"]))
    if op == "replace":
        column = data.draw(st.integers(0, 2))
        cells[column] = _record_cell(column, data)
    elif op == "drop":
        del cells[data.draw(st.integers(0, 2))]
    elif op == "add":
        cells.append(data.draw(junk | st.just("0")))
    lines[i] = ", ".join(cells)
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
    """line with spaces drawn around each of its cells."""
    pad = st.text(" \t", max_size=3)
    return ",".join(data.draw(pad) + c.strip() + data.draw(pad)
                    for c in line.split(","))


def _off_plan_cell(line, data):
    """line with one cell a number that the C reader reads and the plan
    refuses, or counts against another phase."""
    cells = line.split(",")
    column = data.draw(st.integers(0, 2))
    cells[column] = data.draw(st.sampled_from(
        [["-1", "7", "1"], ["0.5", "1e300"], ["nan", "inf", "-inf"]][column]))
    return ", ".join(cells)


# Edits of a records body that the C reader must not read differently
# from parse.  It reads spaces around cells; underscores, '#' lines and
# an empty body make it refuse the rows; a blank line, which it skips,
# would shift the line numbers of the rows after it.  A damaging edit
# gives one row an error to name: a row that does not parse or that the
# plan refuses.  Up to three land in one file, since both readers name
# the first bad row of either kind: load_records checks the rows before
# an unreadable one before it names that one.
STRUCTURAL_EDITS = ("blank line", "comment line", "spaces", "underscore",
                    "empty body")
DAMAGING_EDITS = ("trailing comment", "off-plan cell")


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
                "off-plan cell": _off_plan_cell,
            }[edit](lines[i], data)
    path = _fresh(tmp_path / "edited.txt")
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(load_records, path) == _outcome(per_row_load_records,
                                                        path)


@pytest.mark.parametrize("damage", [" # x", ", 0"])
def test_record_loader_names_a_bad_row_before_an_unreadable_one(tmp_path,
                                                               damage):
    lines = _records_text(tmp_path).splitlines()
    i = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[i] = "7, " + lines[i].split(",", 1)[1].strip()
    lines[i + 1] += damage
    path = _fresh(tmp_path / "corrupt.txt")
    path.write_text("\n".join(lines) + "\n")
    assert (_outcome(load_records, path)
            == _outcome(per_row_load_records, path) == ("line", i + 1))


def test_record_loader_names_the_unreadable_row_before_the_header_ends(
        tmp_path):
    # the seed line comes after the rows, so the lines before the
    # unreadable row do not give the plan to check the rows against
    lines = _records_text(tmp_path).splitlines()
    seed = next(i for i, ln in enumerate(lines) if ln.startswith("# seed"))
    lines.append(lines.pop(seed))
    i = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[i] = "7, " + lines[i].split(",", 1)[1].strip()
    lines[i + 1] += " # x"
    path = _fresh(tmp_path / "corrupt.txt")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match="line %d: unparsable row" % (i + 2)):
        load_records(path)


def _rows_parsed_per_line(monkeypatch, path):
    """Rows that load_records(path) takes through textio.parse."""
    parsed = []
    parse_lines = textio.parse

    def counting(lines, columns, sep=None):
        art = parse_lines(lines, columns, sep)
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
    # a blank line would shift the C reader's line numbers of the rows
    # after it, so parse reads all 12 rows instead
    lines.insert(-1, "")
    path = _fresh(path)
    path.write_text("\n".join(lines) + "\n")
    assert _rows_parsed_per_line(monkeypatch, path) == 12


# Samples the writer must format as the per-event writer did: signed
# zeros, subnormals and the ends of the round-trip range among them.
samples = finite | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-309, 1e300, -1e300])


@FUZZ
@given(counts=st.lists(st.integers(1, 50), min_size=1, max_size=5),
       data=st.data())
def test_records_file_matches_the_per_event_writer(tmp_path, counts, data):
    ms = MeasurementSet(
        plan=ExperimentPlan(state=StateSpec(kind="vacuum"),
                            events_per_phase=tuple(counts)),
        records=tuple(np.array(data.draw(st.lists(samples, min_size=n,
                                                  max_size=n)))
                      for n in counts))
    path = _fresh(tmp_path / "records.txt")
    save_records(ms, path, header_lines=("config: x",))
    text = path.read_bytes().decode()
    head = "".join(ln for ln in text.splitlines(keepends=True)
                   if ln.startswith("# "))
    assert text == head + "\n".join(per_event_record_lines(ms)) + "\n"


def _with_first_row_cell(text, sep, column, token):
    """text with one cell of its first row replaced, and that line's
    number."""
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = [c.strip() for c in lines[i].split(sep)]
    cells[column] = token
    lines[i] = (", " if sep == "," else " ").join(cells)
    return "\n".join(lines) + "\n", i + 1


@pytest.mark.parametrize("column, token, message", [
    (0, "0.5", "phase index 0.5"),
    (0, "nan", "phase index nan"),
    (1, "nan", "theta nan"),
])
def test_record_loader_rejects_off_plan_phase_cells(tmp_path, column, token,
                                                    message):
    text, line = _with_first_row_cell(_records_text(tmp_path), ",", column,
                                      token)
    path = _fresh(tmp_path / "bad.txt")
    path.write_text(text)
    with pytest.raises(ValueError, match="line %d: %s" % (line, message)):
        load_records(path)


@pytest.mark.parametrize("column, token, message", [
    (0, "1.5", "moment order 1.5"),
    (0, "inf", "moment order inf"),
    (5, "0.5", "compensated flag 0.5"),
    (5, "2", "compensated flag 2.0"),
])
def test_moment_loader_rejects_non_integral_order_and_flag(
        tmp_path, column, token, message):
    text, line = _with_first_row_cell(_moments_text(tmp_path), None, column,
                                      token)
    path = _fresh(tmp_path / "bad.txt")
    path.write_text(text)
    with pytest.raises(ValueError, match="line %d: %s" % (line, message)):
        load_moments(path)


# '%.15e' writes this finite double as 1.797693134862316e+308, past the
# largest double, so it would read back as inf.
NEAR_MAX = 1.7976931348623155e308


def test_finite_text_check_finds_the_largest_doubles():
    largest_safe = np.nextafter(NEAR_MAX, 0.0)
    assert math.isfinite(float("%.15e" % largest_safe))
    check_finite_text("%.15e", [largest_safe, -largest_safe, math.inf,
                               -math.inf, math.nan, 0.0])
    for bad in (NEAR_MAX, -NEAR_MAX, np.finfo(float).max):
        with pytest.raises(ValueError, match="reads back as -?inf"):
            check_finite_text("%.15e", [1.0, bad])
    # 15 significant digits already overflow one double lower
    with pytest.raises(ValueError, match="1.79769313486232e\\+308"):
        check_finite_text("%.15g", largest_safe)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_records_with_near_max_sample_are_not_written(tmp_path, sign):
    plan = ExperimentPlan.uniform(StateSpec(kind="vacuum"), 2, 3)
    ms = MeasurementSet(plan=plan, records=(
        np.zeros(3), np.array([0.5, sign * NEAR_MAX, 0.1])))
    path = tmp_path / "records.txt"
    with pytest.raises(ValueError, match=re.escape(repr(sign * NEAR_MAX))):
        save_records(ms, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [complex(NEAR_MAX, 0.0),
                                   complex(0.5, -NEAR_MAX)])
def test_moments_with_near_max_value_are_not_written(tmp_path, value):
    batch = [MomentEstimate(k=1, value=value, var_re=1e-4, var_im=1e-4,
                            n_phases=4, compensated=False,
                            eta_assumed=1.0)]
    path = tmp_path / "moments.txt"
    with pytest.raises(ValueError, match="reads back as -?inf"):
        save_moments(batch, path)
    assert not path.exists()


@pytest.mark.parametrize("field", ["values", "grid", "reg_lambda"])
def test_distribution_with_near_max_value_is_not_written(tmp_path, field):
    kwargs = dict(grid=np.array([0.0, 1.0, 2.0]),
                  values=np.array([0.1, 0.2, 0.3]), reg_lambda=0.0)
    if field == "reg_lambda":
        kwargs[field] = np.nextafter(NEAR_MAX, 0.0)
    else:
        kwargs[field] = np.array([0.1, NEAR_MAX, 0.3])
    dist = PhaseDistribution(method="fourier", K_used=1, **kwargs)
    path = tmp_path / "distribution.txt"
    with pytest.raises(ValueError, match="reads back as inf"):
        save_distribution(dist, path)
    assert not path.exists()
