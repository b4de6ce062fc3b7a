"""Time one cold start in a fresh interpreter and print it as JSON.

Usage: python3 setup_child.py <src dir> kb <knowledge db file> [<requests file>]
       python3 setup_child.py <src dir> model <model file> [<requests file>]

A cold start is what a user's process pays before its first request: the
mixprec import (NumPy included), the first database or model load, and the
cold 3^10 enumeration the search caches.

With a requests file (a JSON list of argv lists), the child then runs those
requests through ``mixprec.cli.run`` and also prints their exit codes and its
own peak resident set size, which no benchmark harness state inflates.
"""

import contextlib
import io
import json
import resource
import sys
import time

start = time.perf_counter()
src, kind, path = sys.argv[1:4]
sys.path.insert(0, src)
import mixprec.cli  # noqa: E402

from mixprec.knowledge import load  # noqa: E402
from mixprec.model import load_model  # noqa: E402
from mixprec.search import enumerate_all  # noqa: E402

(load if kind == "kb" else load_model)(path)
enumerate_all()
result = {"seconds": time.perf_counter() - start}
if len(sys.argv) > 4:
    codes = []
    for argv in json.loads(open(sys.argv[4]).read()):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                codes.append(mixprec.cli.run(argv))
            except Exception as e:  # noqa: BLE001 - reported as a failed request
                codes.append(f"crash: {type(e).__name__}: {e}")
    result["codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(result))
