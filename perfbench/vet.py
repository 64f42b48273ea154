"""Which one-trial fuzz seeds tdlab accepts.

    python perfbench/vet.py FIELD D_MAX SEED...

Prints a JSON list with one boolean per seed: whether `tdlab fuzz --d-max D_MAX --trials 1`
with that seed accepts its trial.  The fuzz workloads run this in a process
of its own, so nothing the vetting computes is left in the measured one.
"""

import contextlib
import io
import json
import sys

from tdlab import cli


def accepted(field: str, d_max: int, seed: int) -> bool:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.run(["fuzz", "--field", field, "--d-max", str(d_max), "--seed", str(seed), "--trials", "1"])
    return json.loads(buf.getvalue())["checks"][-1]["witness"]["accepted"] == 1


if __name__ == "__main__":
    field, d_max = sys.argv[1], int(sys.argv[2])
    print(json.dumps([accepted(field, d_max, int(s)) for s in sys.argv[3:]]))
