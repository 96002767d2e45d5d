"""Plain-text layout shared by every phasekit artifact.

Kernel tables, records, moments and phase distributions are '# '-prefixed
header lines, then one row of numbers per line.  A header body 'key:
value' or 'key = value', split at the first ':' or '=', is a field; any
other header line is a title.  Rows are read into one float matrix with
the source line of each row, so loaders check whole columns at once and
still name the offending line.  Savers check their numbers with
check_finite_text first, so no finite value is written as a text that
reads back as an infinity.  integer_at_least is the one integer rule
that header fields, config values and in-memory specs share.

parse reads one line at a time and is the reader that defines the
format.  load, the file reader, parses only the leading header lines
that way and streams the rows after them through numpy's C reader
(np.loadtxt).  It reads the 240k-row records file of the CLI chain to
the same bits in 0.07 s against parse's 0.17 s (2-vCPU x86-64 VM).
Whenever the C reader does not take the rows cleanly, load parses the
whole file line by line instead: when it raises or warns (a non-number,
a '#' line among the rows, an empty body) and when it does not return
one row of the expected width per line (a wrong column count, or a
blank line it skipped, which would shift the line numbers of the rows
after it).  So every value, message and line number is parse's own.
"""

import itertools
import math
import operator
import re
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

_FIELD = re.compile(r"([^:=]*)[:=](.*)")

# At the 15 or 16 significant digits the savers write, only a value
# this close to the largest double can round to a text past it, which
# reads back as inf: '%.15e' writes 1.7976931348623155e308 as
# 1.797693134862316e+308.
_NEAR_MAX = 1.797e308


def check_finite_text(fmt, values):
    """Raise ValueError naming the first finite value whose fmt text
    reads back as an infinity; inf and NaN are written as themselves."""
    values = np.asarray(values, dtype=float).ravel()
    for v in values[np.abs(values) > _NEAR_MAX].tolist():
        text = fmt % v
        if math.isfinite(v) and not math.isfinite(float(text)):
            raise ValueError("value %r would be written as %r, which "
                             "reads back as %s" % (v, text, float(text)))


def integer_at_least(name, low):
    """Validator of an integer parameter given as a number or its text:
    returns it as an int, or raises ValueError stating the range for
    any other value, inf and NaN included."""
    def check(value):
        if not low <= float(value) < math.inf or int(value) != float(value):
            raise ValueError("%s must be an integer >= %d, not %r"
                             % (name, low, value))
        return int(value)
    return check


def render(header, lines):
    """'# '-prefixed header bodies, then the preformatted row lines."""
    out = ["# %s" % h for h in header]
    out.extend(lines)
    return "\n".join(out) + "\n"


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
        equals the words of key or begins with them ('offset removed:'
        finds 'offset removed from series part').  A missing key or a
        value parse rejects raises ValueError naming the key or line.
        """
        name = key[:-1].strip()
        found = [where for k, where in self.fields.items()
                 if k == name or k.startswith(name + " ")]
        if not found:
            raise ValueError("header lacks '# %s ...'" % key)
        line, text = max(found)
        try:
            return parse(text)
        except (ValueError, IndexError) as exc:
            raise ValueError("line %d: bad %s value %r: %s"
                             % (line, name, text, exc)) from None

    def error(self, row, message):
        """ValueError naming the line of rows[row]."""
        return ValueError("line %d: %s" % (self.line_numbers[row], message))


class RowError(ValueError):
    """A row parse cannot read.  partial is the Artifact of the lines
    before it, so that a loader can first name an earlier row that its
    own checks refuse, as a reader checking each row in turn would."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def parse(lines, columns, sep=None):
    """Artifact of the given lines.  columns spells the row layout as
    the '# columns:' header does ('phi P', 'l, theta_l, x'); each row
    must split on sep into as many floats, else RowError names it."""
    width = len(columns.split(sep))
    fields = {}
    values = array("d")
    numbers = array("q")

    def artifact():
        return Artifact(fields, np.frombuffer(values).reshape(-1, width),
                        np.frombuffer(numbers, dtype=np.int64))

    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            match = _FIELD.match(line, 1)
            if match:
                fields[match[1].strip()] = (n, match[2].strip())
        elif line:
            cells = line.split(sep)
            if len(cells) != width:
                raise RowError("line %d: expected '%s', got %r"
                               % (n, columns, line), artifact())
            try:
                values.extend(map(float, cells))
            except ValueError:
                del values[len(numbers) * width:]
                raise RowError("line %d: unparsable row %r" % (n, line),
                               artifact()) from None
            numbers.append(n)
    return artifact()


def load(path, columns, sep=None):
    """parse of the file at path, its rows read by numpy's C reader
    when it takes them cleanly (see the module docstring)."""
    with open(path) as fh:
        header = []
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            header.append(line)
        fh.seek(0)
        rows = _c_rows(fh, len(header), len(columns.split(sep)), sep)
        if rows is not None:
            start = len(header) + 1
            return Artifact(parse(header, columns, sep).fields, rows,
                            np.arange(start, start + len(rows)))
        fh.seek(0)
        return parse(fh, columns, sep)


def _c_rows(lines, skip, width, sep):
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
            rows = np.loadtxt(counted, delimiter=sep, comments=None,
                              ndmin=2, skiprows=skip)
    except (ValueError, Warning):
        return None
    if rows.shape != (next(counter) - skip, width):
        return None
    return rows
