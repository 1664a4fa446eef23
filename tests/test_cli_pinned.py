"""Pinned output hashes of the fixed-point-diagram commands at sizes the
goldens do not reach.

``tests/data/cli_golden.json`` holds whole outputs, so it keeps to small
groups.  Here each command runs at a larger n or degree bound in both
output formats, and the sha256 of its stdout is compared with a frozen
value.  A change to how diagrams are built or assembled must leave
these bytes alone.

Recompute a hash (only when an output change is intended) by running
the command with ``--format text`` or ``--format records`` and hashing
its stdout.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from ratstems import cli

PINNED = {
    ("bgs1", "--n", "6", "--maxdeg", "80"): {
        "text": "ad53462cf86dbb2d9bcdda4fb6cd786be33a5e0db031f97663c3eb701f1681bd",
        "records": "9d40f865ba421af6452cf9d904ae38c35ad923d9f5917b2860ca05b3f9388973",
    },
    ("bgsigma2", "--n", "6", "--maxdeg", "80"): {
        "text": "5f7588c6e7ec82a92c59e6402556565983494e97fcaa853d27e9b2ba1dc212a1",
        "records": "df6ceb32bed448c87ad35c140ccd25e19fbc438629e24de3699772823bbe7d94",
    },
    ("consistency", "bsigma2", "--n", "6", "--maxdeg", "80"): {
        "text": "8e4d0ead4b962f6bb4a1d008b3f8d43a25515c7a8ccfc4c67b9f1ddd59f62b96",
        "records": "c3b038dfa5884e37a0e657a5030bd88be1709a140b694dc8c2066609415ae172",
    },
    ("bgu", "--n", "4", "--m", "3"): {
        "text": "5e59900a8a47259cc9f0eadc80602567a1147298be1a0ffa969d545100c16f06",
        "records": "b1b7ed9178b19140826d6b9e2cfde4825486968ddca22bb890b0de33f1c85fce",
    },
    ("torus-check", "--lie", "um", "--n", "4", "--m", "3"): {
        "text": "6b7317478904f30f3fa3ad1ccbc7372d529ee7a7af6f5e1c416ddad9a5bf9abe",
        "records": "ca04645bcc115446135001110e195f5d727c164e7c0dfe30fb27bd4e0818560d",
    },
    ("torus-check", "--lie", "su2", "--n", "6", "--su2-torus-action", "trivial"): {
        "text": "498e7d433537b40ef1b1605782905ebfd2bb9a8e277c2f271996e6ea5e57fd00",
        "records": "a9689a647e6655f3a4bd1753a5ae83870bb0529522695377d165cd510d848686",
    },
    ("torus-check", "--lie", "su2", "--n", "6", "--su2-torus-action", "permutation"): {
        "text": "c97660f697d44a011c96b1b7ef8c4abce134a0350430a8779296b419dc4a8986",
        "records": "3a114a7cf3fd302e94f6531dfd3cade5fe2060e99235641aa47e07e9a43a6193",
    },
}


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_diagram_output_hash(argv, fmt):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        status = cli.run([*argv, "--format", fmt])
    assert status == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == PINNED[argv][fmt]
