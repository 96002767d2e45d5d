"""Run one phasekit CLI stage with its layer spans recorded.

    python3 perfbench/stage.py SPANS_JSON STAGE [CLI ARGS...]

Times `import phasekit.cli`, wraps the names phasekit.cli imported (and
the simulator's inner calls) in traced stand-ins, calls
phasekit.cli.main with the remaining arguments, writes the spans to
SPANS_JSON and exits with main's return code.  PYTHONPATH must hold the
repository's src directory.
"""

import json
import sys

from spans import Tracer, patched


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("import.phasekit"):
        import phasekit.cli as cli
    import layers

    instrument = layers.Instrument(tracer)
    with patched(instrument.cli_targets(cli)), instrument.patched():
        rc = cli.main(cli_args)
    instrument.flush()
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
