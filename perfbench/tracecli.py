"""The diffmod command line, traced from outside.

    python3 perfbench/tracecli.py SPANS_FILE SUBCOMMAND MANIFEST [flags]

Times `import diffmod.cli` as the span cli.import, wraps the layers,
runs the command as `python -m diffmod.cli` would, and writes the spans
to SPANS_FILE.  The exit code is the command's.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    idx = tr.open("cli.import")
    import diffmod.cli
    tr.close(idx)
    tracer.install(tr)
    try:
        code = diffmod.cli.run(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="ascii") as fh:
            json.dump(tr.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
