"""Run every golden case of ``cases.json`` in a fresh interpreter and
compare its stdout with the golden file byte for byte.

Each case is run as ``python -m hodgeideals <args> -`` with its task
document on stdin (a case without a task gets no ``-``), once per hash
seed given on the command line (default: random, 0 and 4242).  Exits 1
and names every case whose output differs or whose exit code is not 0.
Standard library only:

    python tests/golden/check.py [HASHSEED ...]
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SRC = GOLDEN.parents[1] / "src"


def run_case(case: dict, hash_seed: str) -> subprocess.CompletedProcess:
    task = case["task"]
    argv = case["args"] + (["-"] if task is not None else [])
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "hodgeideals", *argv], env=env,
                          input=b"" if task is None else json.dumps(task).encode(),
                          capture_output=True, check=False)


def main(hash_seeds: list[str]) -> int:
    cases = json.loads((GOLDEN / "cases.json").read_text())
    failures = 0
    for hash_seed in hash_seeds:
        for case in cases:
            done = run_case(case, hash_seed)
            same = done.returncode == 0 and done.stdout == (GOLDEN / case["golden"]).read_bytes()
            failures += not same
            print(f"{'ok' if same else 'DIFFERS'}: {case['golden']} "
                  f"(PYTHONHASHSEED={hash_seed}, exit {done.returncode})")
            if done.returncode:
                sys.stdout.write(done.stderr.decode())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["random", "0", "4242"]))
