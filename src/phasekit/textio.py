"""Plain-text layout shared by every phasekit artifact.

Kernel tables, records, moments and phase distributions are '# '-prefixed
header lines, then one row of whitespace-separated numbers per line.  A
header body 'key: value' or 'key = value', split at the first ':' or
'=', is a field; any other header line is a title.  A 'columns' field
must spell the reader's row layout, so a file of another layout is
refused at that line.  Rows are read into one float matrix with the
source line of each row, so loaders check whole columns at once and
still name the offending line.  integer_at_least is the one integer
rule that header fields, config values and in-memory specs share.

parse reads one line at a time and is the reader that defines the
format.  load, the file reader, parses only the leading header lines
that way and streams the rows after them through numpy's C reader
(np.loadtxt).  Whenever the C reader does not take the rows cleanly,
load parses the whole file line by line instead: when it raises or
warns (a non-number, a '#' line among the rows, an empty body) and when
it does not return one row of the expected width per line (a wrong
column count, or a blank line it skipped, which would shift the line
numbers of the rows after it).  So every value, message and line number
is parse's own.
"""

import itertools
import operator
import re
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

_FIELD = re.compile(r"([^:=]*)[:=](.*)")


def integer_at_least(name, low):
    """Validator of an integer parameter given as a number or its text:
    returns it as an int, or raises ValueError stating the range for
    any other value, inf and NaN included, and for text that is not an
    integer literal ('2.0', '1e1', '0x10')."""
    def check(value):
        if isinstance(value, str):
            try:
                ok = low <= int(value)
            except ValueError:
                ok = False
        else:
            ok = low <= float(value) and float(value).is_integer()
        if not ok:
            raise ValueError("%s must be an integer >= %d, not %r"
                             % (name, low, value))
        return int(value)
    return check


def save(path, header, lines):
    """Write the '# '-prefixed header bodies, then each item of lines
    and a newline.  An item may be one row or a newline-joined block of
    rows, so a large file need not be held as one string or as one
    string per row."""
    with open(path, "w") as fh:
        fh.write("".join("# %s\n" % h for h in header))
        for block in lines:
            fh.write(block)
            fh.write("\n")


@dataclass(frozen=True)
class Artifact:
    """fields: key -> (line, value text), the last occurrence kept;
    rows: (n_rows, n_columns) floats; line_numbers: line of each row."""

    fields: dict
    rows: np.ndarray
    line_numbers: np.ndarray

    def field(self, key, parse=str):
        """Header value spelled with its separator ('n_phases:', 'k ='),
        converted by parse.  It comes from the last line whose key
        equals the words of key.  A missing key or a value parse rejects
        raises ValueError naming the key or line.
        """
        name = key[:-1].strip()
        if name not in self.fields:
            raise ValueError("header lacks '# %s ...'" % key)
        line, text = self.fields[name]
        try:
            return parse(text)
        except (ValueError, IndexError) as exc:
            raise ValueError("line %d: bad %s value %r: %s"
                             % (line, name, text, exc)) from None

    def error(self, row, message):
        """ValueError naming the line of rows[row]."""
        return ValueError("line %d: %s" % (self.line_numbers[row], message))


def parse(lines, columns):
    """Artifact of the given lines.  columns spells the row layout as
    the '# columns:' header does ('phi P', 'x'); a 'columns' field of
    other words, or a row that does not split into as many floats,
    raises ValueError naming its line."""
    width = len(columns.split())
    fields = {}
    values = array("d")
    numbers = array("q")
    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            match = _FIELD.match(line, 1)
            if match:
                key, value = match[1].strip(), match[2].strip()
                if key == "columns" and value.split() != columns.split():
                    raise ValueError("line %d: columns '%s', expected '%s'"
                                     % (n, value, columns))
                fields[key] = (n, value)
        elif line:
            cells = line.split()
            if len(cells) != width:
                raise ValueError("line %d: expected '%s', got %r"
                                 % (n, columns, line))
            try:
                values.extend(map(float, cells))
            except ValueError:
                raise ValueError("line %d: unparsable row %r"
                                 % (n, line)) from None
            numbers.append(n)
    return Artifact(fields, np.frombuffer(values).reshape(-1, width),
                    np.frombuffer(numbers, dtype=np.int64))


def load(path, columns):
    """parse of the file at path, its rows read by numpy's C reader
    when it takes them cleanly (see the module docstring)."""
    with open(path) as fh:
        header = []
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            header.append(line)
        fields = parse(header, columns).fields
        fh.seek(0)
        rows = _c_rows(fh, len(header), len(columns.split()))
        if rows is not None:
            start = len(header) + 1
            return Artifact(fields, rows, np.arange(start, start + len(rows)))
        fh.seek(0)
        return parse(fh, columns)


def _c_rows(lines, skip, width):
    """np.loadtxt matrix of lines after the first skip, or None unless
    it read every one of them as a row of width floats without a
    warning."""
    # zip draws a count after each line, so the next count is the
    # number of lines np.loadtxt took, skipped and blank ones included
    counter = itertools.count()
    counted = map(operator.itemgetter(0), zip(lines, counter))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(counted, comments=None, ndmin=2,
                              skiprows=skip)
    except (ValueError, Warning):
        return None
    if rows.shape != (next(counter) - skip, width):
        return None
    return rows
