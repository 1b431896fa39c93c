"""Pinned CLI output of ``assemble`` on data that exercise the block sum.

Each case pins the first 16 hex digits of the sha256 of stdout.  The data
cover a nontrivial R-group (two D-type blocks of SOeven), a mix of O, S
and GL blocks with a rootless block (Sp n = 11), and a rank-24 datum
whose two blocks carry 12 coordinates each.
"""

import hashlib
import json

import pytest

from heckealg.cli import main

DATA = {
    "soeven-rgroup": {
        "group": {"family": "SOeven", "n": 4},
        "blocks": [{"side": "O", "dim": 1, "e": 2},
                   {"side": "O", "dim": 1, "e": 2}]},
    "sp11-mixed": {
        "group": {"family": "Sp", "n": 11},
        "blocks": [{"side": "O", "dim": 1, "e": 2, "ell": 1},
                   {"side": "S", "dim": 2, "e": 1, "ell": 2},
                   {"side": "GL", "dim": 1, "e": 3},
                   {"side": "GL", "dim": 2, "e": 1}]},
    "sp24-rank24": {
        "group": {"family": "Sp", "n": 24},
        "blocks": [{"side": "O", "dim": 1, "e": 12, "ell": 1},
                   {"side": "GL", "dim": 1, "e": 12}]},
}

PINS = [
    ("soeven-rgroup", ["describe"], "b8c8ecac28932e0e"),
    ("soeven-rgroup", ["count", "--order", "2"], "e8b0c5e04eaab2f1"),
    ("sp11-mixed", ["describe"], "60c34c1140d0431b"),
    ("sp11-mixed", ["count", "--order", "2"], "f29f2f10b1dd104f"),
    ("sp24-rank24", ["describe"], "27c1f53e6ee7b4fd"),
]


@pytest.mark.parametrize("name, command, digest", PINS,
                         ids=["%s-%s" % (n, c[0]) for n, c, _ in PINS])
def test_assembly_output_pinned(name, command, digest, tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(DATA[name]))
    code = main(command + ["--input", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
