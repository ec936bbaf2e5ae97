"""Every pinned CLI output: one table and one checker.

A row of PINS is (argv, sha256 of the stdout of `quadtower ARGV`, tier),
with argv split on spaces.  A `fast` row runs in under about 1 s in-process
and is checked by tier-1; the `slow` rows, the scan to 10^7 and `verify`,
are checked only with the rest, by

    PYTHONPATH=src python tests/test_pins.py

which prints argv, seconds and `ok` or what differs for every row, and exits
1 if any row differs.  To pin an output, add its row here.
"""

import contextlib
import hashlib
import io
import sys
import time

from quadtower.cli import main

PINS = [
    # The family scans, to 10^6 and 10^7, and the window just below 10^7.
    ("--format csv scan -60000 -1",
     "dfc62dd7e4a437068010398e98a87631befa4cf48b394dfc0472d49a560d0db3", "fast"),
    ("--format csv scan -1000000 -1",
     "aed819627b06df6982bafa86723d6d78ca317b0539aa753b9f749833bd87ae99", "fast"),
    ("--format csv scan -10000000 -9980000",
     "19a08108f7c3fc7896e54bd8946fef0ebee3b83b67a92c493f1df7673e37ef3b", "fast"),
    ("--format csv scan -10000000 -1",
     "f455b83c7b44e6fe77ab2926b500dd9978a52a20fa66f39ba3c280061b066471", "slow"),
    # The prediction for the Type4r field -2580, and the crosschecks of the
    # FIELD_TABLE fields and of -2580.
    ("--format json predict -2580",
     "6c815f6882354dedaa6345ad3eb0454067cc64ead34c93ac18393f9d13a27144", "fast"),
    ("--format json crosscheck -2244",
     "79612529e739586b999e96b9026b3645af737f729f844bb0fa0319957ec1438f", "fast"),
    ("--format json crosscheck -2580",
     "3be1d186fe92e8865975dd640098a7d8caf3e9b90c90bee2bdf7c41bd8a49a35", "fast"),
    ("--format json crosscheck -5412",
     "3ad2452c5e6512c3457e90053a9262551badab575169e79106b82c2877063d87", "fast"),
    ("--format json crosscheck -9348",
     "50e07d7f1843006b50e43324ea998f90792193a4ac8489a05d12c7c12a073881", "fast"),
    ("--format json crosscheck -21828",
     "76323e20e10b1c42282959da2584514e79dcae8a6172ba4c145d360efa1bbf23", "fast"),
    ("--format json crosscheck -25764",
     "6dfc16d4b489b026d5350c3bc3b8a3a13b3faa3b20f00dfaefbe1cc2aa52945a", "fast"),
    ("--format json crosscheck -37092",
     "a16a972bd1fc9867d3d207595f68e88c8ce5de8c419529abcf5367c82752367e", "fast"),
    ("--format json crosscheck -75108",
     "c58a78c3e34780aa2ae2a1672cbbc2a1dfc6dcfb6c398f43bd8107e3ba9156a6", "fast"),
    ("--format json crosscheck -78276",
     "5a66ac07b20d10e3bca04be09c2efe8ead764569c7dc705c33acb94d31a609e6", "fast"),
    ("--format json crosscheck -101796",
     "2eaed7acb63d3a00802f2e8bb46d1c8818e331e86bbb3cb99f221b493ed4a85f", "fast"),
    ("--format json crosscheck -106788",
     "5e74b39fc07f49ef4b1c83be9e95cd04e882cdec2b053aec8da3267aaafbb03e", "fast"),
    ("--format json crosscheck -132612",
     "b77dd7d983d06535bade5591c2974ca4ae41bdfafe73889d160a1992ba7acc31", "fast"),
    ("--format json crosscheck -169796",
     "f6162caef86fd4de751a621e297e938e37f931fb855738dc9552675d2ed7311b", "fast"),
    ("--format json crosscheck -255972",
     "881cf060be3c1c19dc6f0ba92d8111ff2ca08e97ae325f54520d2a64935a3248", "fast"),
    ("--format json crosscheck -329988",
     "c60f58824dbf81858fd5b48c874868643ab9b3703a3c0dfbfe25b2ee8f3a7a88", "fast"),
    ("--format json crosscheck -1886244",
     "021def05fd82da607b88a5d64ca84894c12e059f0d56c9f85a77f1deda762779", "fast"),
    # Group reports at order 2^11, and the verification matrix.
    ("--format json group 4 4 1 --report subgroups",
     "7f555147f1640b291070e19d263e0758b608be5960c69010a757b992be1a251b", "fast"),
    ("--format json group 4 4 1 --report transfers",
     "8b5f44686f63538331ed1eb97fc8b479baffdfe3614543e775377b7d8d420914", "fast"),
    ("--format json verify",
     "4b9c74c2e7b04392d85e41e443436c179062b64b0862f0e914d4b19c0caa04a2", "slow"),
]


def check(pins) -> list[str]:
    """Run each row's argv through quadtower.cli.main in this process and
    print one line per row: argv, elapsed seconds, and `ok` or the exit code
    and sha256 it got.  Returns the lines of the rows that did not exit 0
    with the pinned stdout."""
    failures = []
    for argv, digest, _ in pins:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
        seconds = time.perf_counter() - start
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        ok = code == 0 and got == digest
        line = f"{argv}: {seconds:.2f} s " + ("ok" if ok else f"FAIL exit {code} sha256 {got}")
        print(line, flush=True)
        if not ok:
            failures.append(line)
    return failures


def test_fast_pins():
    assert check([pin for pin in PINS if pin[2] == "fast"]) == []


if __name__ == "__main__":
    sys.exit(1 if check(PINS) else 0)
