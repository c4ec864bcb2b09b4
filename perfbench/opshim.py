"""One benchmark op in a fresh interpreter: import the CLI, run it, report.

    python3 perfbench/opshim.py RESULT.json [SPANS.jsonl] -- CLI ARGS...
    python3 perfbench/opshim.py --probe

Writes RESULT.json with the monotonic time at which ``braidhom.cli`` finished
importing, the times around ``cli.main``, its exit code and its stdout. With
SPANS.jsonl the package is traced (see tracer.py) and the spans are written
there. ``--probe`` only imports the CLI and prints the import time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import braidhom.cli  # noqa: E402

IMPORTED = time.monotonic()


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        print(repr(IMPORTED))
        return 0
    import contextlib
    import io
    import json
    import traceback

    split = sys.argv.index("--")
    result_path, *spans_path = sys.argv[1:split]
    argv = sys.argv[split + 1:]
    tracer = None
    if spans_path:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = braidhom.cli.main(argv)
    except Exception:
        code, error = None, traceback.format_exc()
    end = time.monotonic()
    if tracer is not None:
        tracer.dump(spans_path[0])
    Path(result_path).write_text(json.dumps({
        "imported": IMPORTED, "main_start": start, "main_end": end,
        "code": code, "stdout": out.getvalue(), "error": error}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
