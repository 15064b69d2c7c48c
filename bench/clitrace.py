"""Traced run of one capa subcommand: ``clitrace.py SPANS_FILE ARGS...``.

Times the import of capa.cli, installs the tracer, runs ``capa.cli.main``
on ARGS inside a ``cli.main`` span and writes the import time, the exit code
and the spans to SPANS_FILE.  Exits with main's code, as ``capa`` would.
"""
from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import capa.cli
    import_s = time.perf_counter() - t0

    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    span = tracer.open("cli.main")
    code = 1
    try:
        code = capa.cli.main(argv)
    finally:
        tracer.close(span)
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "code": code,
                       "span": tracing.to_json(span)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
