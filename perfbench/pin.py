"""Pin the answer digest of every workload variant: `python3 perfbench/pin.py`.

Run from the repository root at a commit whose answers are trusted; it
writes `perfbench/pinned.json`.  Every variant also passes the other
answer checks first, so a digest is never pinned for a wrong answer.
"""

import contextlib
import io
import json
import sys

from answers import Checker, digest
from run import HERE, WORK, Inputs, load_program
from workloads import WORKLOADS, Op


def main() -> int:
    cli = load_program()
    pinned = {}
    for name, build in WORKLOADS.items():
        w = build()
        inputs = Inputs(WORK / f"pin-{name}")
        table = pinned[name] = {}
        for k, v in enumerate(w.round):
            op = Op(k, v, "")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(inputs.argv(op))
            report = out.getvalue()
            table[v.key] = digest(v.kind, report)
            problems = Checker(table).check(op, code, report, err.getvalue())
            if problems:
                print(f"{name} {v.key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
        print(f"{name}: {len(table)} digests", file=sys.stderr)
    text = json.dumps(pinned, indent=1, sort_keys=True) + "\n"
    (HERE / "pinned.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
