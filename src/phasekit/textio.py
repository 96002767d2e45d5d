"""Plain-text layout shared by every phasekit artifact.

Kernel tables, records, moments and phase distributions are '# '-prefixed
header lines, then one row of numbers per line.  A header body 'key:
value' or 'key = value', split at the first ':' or '=', is a field; any
other header line is a title.  Rows are read into one float matrix with
the source line of each row, so loaders check whole columns at once and
still name the offending line.  Savers check their numbers with
check_finite_text first, so no finite value is written as a text that
reads back as an infinity.
"""

import math
import re
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


def render(header, lines):
    """'# '-prefixed header bodies, then the preformatted row lines."""
    out = ["# %s" % h for h in header]
    out.extend(lines)
    return "\n".join(out) + "\n"


def save(path, header, lines):
    with open(path, "w") as fh:
        fh.write(render(header, lines))


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


def parse(lines, columns, sep=None):
    """Artifact of the given lines.  columns spells the row layout as
    the '# columns:' header does ('phi P', 'l, theta_l, x'); each row
    must split on sep into as many floats, else ValueError names it."""
    width = len(columns.split(sep))
    fields = {}
    values = array("d")
    numbers = array("q")
    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            match = _FIELD.match(line, 1)
            if match:
                fields[match[1].strip()] = (n, match[2].strip())
        elif line:
            cells = line.split(sep)
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


def load(path, columns, sep=None):
    with open(path) as fh:
        return parse(fh, columns, sep)
