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
format.  load, the file reader, parses the leading header lines that
way.  A one-column body, such as the records', then streams through
float, one line a row, so the rows' line numbers are consecutive after
the header.  Whenever a line is not one number (a blank line, a '#' line
among the rows, a second cell, an empty body), load parses the whole
file line by line instead, so every value, message and line number is
parse's own.  Rows of more columns always go through parse.
"""

import re
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
    """parse of the file at path, a one-column body streamed through
    float when each of its lines is one number (module docstring)."""
    with open(path) as fh:
        header = []
        line = ""
        for line in fh:
            if line.strip() and not line.lstrip().startswith("#"):
                break
            header.append(line)
        fields = parse(header, columns).fields
        if len(columns.split()) == 1:
            try:
                rows = array("d", [float(line)])
                rows.extend(map(float, fh))
            except ValueError:
                pass
            else:
                start = len(header) + 1
                return Artifact(fields, np.frombuffer(rows).reshape(-1, 1),
                                np.arange(start, start + len(rows)))
        fh.seek(0)
        return parse(fh, columns)
