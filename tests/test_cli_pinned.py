"""Pinned output hashes of the fixed-point-diagram commands, and of the
other rendered record kinds, at sizes the goldens do not reach.

``tests/data/cli_golden.json`` holds whole outputs, so it keeps to small
groups.  Here each command runs at a larger n or degree bound in both
output formats, and the sha256 of its stdout is compared with a frozen
value.  A change to how diagrams are built or assembled, or to how a
record is rendered, must leave these bytes alone.

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

# the record kinds the goldens reach only at n <= 3: point-presentation
# generators, Burnside elements and idempotents below the top level,
# sphere rows with level dimensions, a --degree stem and a scan summary
RENDERED = {
    ("point-presentation", "--n", "6"): {
        "text": "8e87b5aaa8ce637a510fdfd6bc5c8d56dd7be50df5799850bf49084240044a7d",
        "records": "8728dcf23cd61ce084ee3642c9f4cfe47c75db04528a4ddddea10f7d5db17332",
    },
    ("burnside", "--n", "6", "--level", "4"): {
        "text": "248c4fc6f0d7f19b1f31399f87870a4ed9e4578158f6bb51e45e04b839977381",
        "records": "ff533693adf37e1dff1d374974dc0a60b69afd3ecfc136db77b68b18cdd4546d",
    },
    ("sphere", "--n", "5", "--rep", "3*sigma - 2*l0 + l2"): {
        "text": "95652e56a2195ff94ac8d5ea291c65f601eb4da514f8f160a21fd4fc83d12e74",
        "records": "bf75c988b29f94385ae4cd937345eb31c9051be4db2bc3ebfce0c25e7a7650dc",
    },
    ("stems", "--n", "4", "--degree", "1 - sigma + l1"): {
        "text": "f5635e16e039464b34966b5ea08d051dbb4e3998764f48dcc91ec1d5a35597a0",
        "records": "d3407d200e58bf3f07252abdef840a51ee2b71639c41c11444749848a204bbe8",
    },
    ("stems", "--n", "3", "--scan", "2"): {
        "text": "b7b77e0420001c67251277e41adb4175f7ed99670b5fd7f24aa0368b67cddbcb",
        "records": "6f725edcdd0c31ab083d16fa2932864d8d63ab374490a291276b16ca0e735fc6",
    },
}


def _stdout_hash(argv, fmt):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        status = cli.run([*argv, "--format", fmt])
    assert status == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_diagram_output_hash(argv, fmt):
    assert _stdout_hash(argv, fmt) == PINNED[argv][fmt]


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("argv", sorted(RENDERED), ids=" ".join)
def test_rendered_output_hash(argv, fmt):
    assert _stdout_hash(argv, fmt) == RENDERED[argv][fmt]
