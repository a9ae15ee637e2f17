"""Golden output of the CLI: a fixed list of cheap commands, every subcommand,
over Q and over GF(p), whose ``--json`` stdout must match
``golden/cli_json.txt`` byte for byte.

Record the file again (only when a report is meant to change) with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import os

from extremal_lie import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli_json.txt")

COMMANDS = [
    ["tables", "lr", "--max-r", "4"],
    ["tables", "rr", "--max-r", "3"],
    ["tables", "rr-lengths", "--r", "3"],
    ["mingen", "--type", "A2,B3,C2,G2"],
    ["mingen", "--type", "A3,B3,G2", "--char", "5"],
    ["radicals", "--type", "A2"],
    ["radicals", "--type", "G2", "--char", "3"],
    ["rootgroups", "--type", "A2", "--char", "5", "--seed", "7"],
    ["threegen", "--edges", "-2,-2,-2"],
    ["extremal-check", "--type", "B3"],
    ["tables", "rr-lengths", "--r", "4"],
    ["rootgroups", "--type", "A2", "--char", "0", "--seed", "7"],
    ["threegen", "--edges", "1/2,-3,5/4", "--central", "2"],
    ["radicals", "--type", "A2", "--char", "3"],
    ["radicals", "--type", "B3", "--char", "7"],
    ["radicals", "--type", "D4"],
    ["tables", "rr", "--max-r", "4"],
    ["tables", "lr", "--max-r", "5"],
    ["rootgroups", "--type", "B3", "--char", "7"],
    ["rootgroups", "--type", "G2", "--char", "0", "--seed", "5"],
    ["threegen", "--edges", "0,0,0"],
    ["threegen", "--edges", "-2,0,0", "--char", "3"],
    ["threegen", "--edges", "-2,-2,0", "--char", "5"],
    ["mingen", "--type", "A4,B4,C3,D4,D5", "--char", "53"],
    ["mingen", "--type", "C3,D4"],
    ["mingen", "--type", "E6,E7,E8", "--char", "53"],
    ["extremal-check", "--type", "F4", "--char", "5"],
    ["extremal-check", "--type", "G2", "--char", "3"],
    ["threegen", "--edges", "0,0,0", "--central", "1"],
    ["threegen", "--edges", "1,0,0", "--central", "5", "--char", "7"],
    ["rootgroups", "--type", "E7", "--char", "7"],
    ["rootgroups", "--type", "E8", "--char", "7"],
    ["mingen", "--type", "D10,C8", "--char", "53"],
    ["radicals", "--type", "E6", "--char", "3"],
    ["threegen", "--edges", "-2,-2,0", "--char", "3"],
    ["threegen", "--edges", "1,1,1", "--char", "7"],
    ["threegen", "--edges", "1,1,-1", "--char", "7"],
    ["radicals", "--type", "E6"],
    ["radicals", "--type", "E7", "--char", "13"],
]


def transcript():
    """One block per command: the command line, its exit code, its stdout."""
    blocks = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--json"] + argv)
        blocks.append("$ extremal-lie --json %s\n# exit %d\n%s" % (" ".join(argv), code, out.getvalue()))
    return blocks


def test_cli_json_matches_golden():
    with open(GOLDEN) as fh:
        want = fh.read()
    assert "".join(transcript()) == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write("".join(transcript()))
