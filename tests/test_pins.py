"""Every pinned CLI output: one table and one checker.

A row of PINS is (argv, sha256 of the stdout of `quadtower ARGV`, tier),
with argv split on spaces.  A `fast` row runs in under about 1 s in-process
and is checked by tier-1; the `slow` rows, the scan to 10^7 and `verify`,
are checked only with the rest, by

    PYTHONPATH=src python tests/test_pins.py

which prints argv, seconds and `ok` or what differs for every row, and exits
1 if any row differs.  A row that issues a warning fails too: on Python 3.12
and later, os.fork warns beside a running thread, which the fork runner of
scan and criterion 10 must never do.  `python -W error` would not turn that
warning into a failure, since os.fork clears the error it raises.  To pin an
output, add its row here.
"""

import contextlib
import hashlib
import io
import os
import sys
import time
import warnings

from quadtower import tower
from quadtower.cli import main

PINS = [
    # The family scans, to 10^6 (in one process and on the fork runner, with
    # the same digest) and 10^7, and the window just below 10^7.
    ("--format csv scan -60000 -1",
     "dfc62dd7e4a437068010398e98a87631befa4cf48b394dfc0472d49a560d0db3", "fast"),
    ("--format csv scan -1000000 -1",
     "aed819627b06df6982bafa86723d6d78ca317b0539aa753b9f749833bd87ae99", "fast"),
    ("--workers 2 --format csv scan -1000000 -1",
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
    # Group fingerprints: the 14 inputs of the fingerprint-groups benchmark
    # workload, and (4, 4, 1), of order 2^11.
    ("--format json group 1 3 0 --report fingerprint",
     "7406ecfa4d85d5bd2325a812c720db9b40d48f160cbd2545a81b9af9526a376a", "fast"),
    ("--format json group 1 3 1 --report fingerprint",
     "2cff42c314087d8c36263146cffb8f670c9d3c07ce4894da4f013fc98cae8909", "fast"),
    ("--format json group 2 2 0 --report fingerprint",
     "24523a2ad58883d120ee09076267a2213e8a279fd69caa6943471bac1fa61e1d", "fast"),
    ("--format json group 2 2 1 --report fingerprint",
     "bf4a6e661862e6ad6fac7d28db1228285cfeed78da9810753ea778da92ee46ee", "fast"),
    ("--format json group 3 1 0 --report fingerprint",
     "c25e113b4fd816d656a939cb82bd38f3dbb07f7c98a214c9d70bf6800994f13d", "fast"),
    ("--format json group 3 1 1 --report fingerprint",
     "8eca1226eb0bc5ba8d2e6fceeaeab0ab9ce5ac3fc8222ed5bffc33a10542dad4", "fast"),
    ("--format json group 1 4 0 --report fingerprint",
     "ce74e39be0826d4c4ce996f43ced78dcae48fc17e553e423a8519e8a691e2d49", "fast"),
    ("--format json group 1 4 1 --report fingerprint",
     "b325df0389250e552a05fb4eecf2f6660e46ebc02c0a370cab62d7d01e2e3527", "fast"),
    ("--format json group 2 3 0 --report fingerprint",
     "b1160399a1b2fddff44b60a82cb5041c11c57d7370e7c8db2df1bbb9ed1dd588", "fast"),
    ("--format json group 2 3 1 --report fingerprint",
     "8ac4bda0ca676d1bab0b3d716a8a1dc020659e7fdf1e2385243d5487b4a0c8dc", "fast"),
    ("--format json group 3 2 0 --report fingerprint",
     "3626d0119792846ef8dbce37b89b03332215c4e74c20e3c75c006e234292e837", "fast"),
    ("--format json group 3 2 1 --report fingerprint",
     "18d9084b0683884ab3eaf982b38392f37d1133da6b688013e9a3f19331a62bc1", "fast"),
    ("--format json group 4 1 0 --report fingerprint",
     "5e7b97db2faf484c7e35bc26d06232d56f0f88dcb137ea7265c0bd67bce85a54", "fast"),
    ("--format json group 4 1 1 --report fingerprint",
     "b59dadf6f804561645a20c9d70e16b41082734610e138663c1506b5268d77c6a", "fast"),
    ("--format json group 4 4 1 --report fingerprint",
     "a50726f6595c70e4e4a9616e9654bb6fa3acc331aab0bd3444c9a4347604faa2", "fast"),
    # Subgroups and transfers reports for n + m <= 5, and subgroups at
    # order 2^9.
    ("--format json group 1 1 0 --report subgroups",
     "723837b6537e0e1cecaa3e479600efe4ddd7f5fa12d87f9159745604dbfd9276", "fast"),
    ("--format json group 1 1 1 --report subgroups",
     "16dfe39d52e315096c7edc5c702a4157f3ebf09ad7a7ccf4b8abeeb036a86f78", "fast"),
    ("--format json group 1 2 0 --report subgroups",
     "3b5596c9734e423953d9c3e01e4de796156a6a6453a374b18f3a7a9071c8b36d", "fast"),
    ("--format json group 1 2 1 --report subgroups",
     "2099d9b890fff1f094ba2c9886351437b2e985809823d69bb2a81cc1f1546738", "fast"),
    ("--format json group 2 1 0 --report subgroups",
     "67f8c011bb185d72919e5dfb20fbf2050bf3e3c4ac1962fdc00ee3c7699c4b44", "fast"),
    ("--format json group 2 1 1 --report subgroups",
     "553dfeae14b74d72d153a51502fc02028ff487526c8151ca07668f719b4f150d", "fast"),
    ("--format json group 1 3 0 --report subgroups",
     "dc5b123078469b24de8063833918eadf6b7732ee806bcc26d34b5f844ba52d3a", "fast"),
    ("--format json group 1 3 1 --report subgroups",
     "3e5f71d3ae88ad420bd5e77a9f3a7f7ab32dae08633583e461f2b8413de15275", "fast"),
    ("--format json group 2 2 0 --report subgroups",
     "793da37c7349036937d43395fd74d870ee5bbe72caa33e6064edc0beb697e711", "fast"),
    ("--format json group 2 2 1 --report subgroups",
     "63205dcf56cbbc79092e2bbc287124f1288e7f504b5cd9b8414ddb47449ef2b2", "fast"),
    ("--format json group 3 1 0 --report subgroups",
     "6efc21ac7d73041a8f88181a847b3836242f05aec84647f7f01aea2c47370f9b", "fast"),
    ("--format json group 3 1 1 --report subgroups",
     "ca4cc954047060e05123a18bc35ee594c4411605448f1cdc5af5cc9a1fe5255e", "fast"),
    ("--format json group 1 4 0 --report subgroups",
     "3d4983bab2be0b45c2a081894d88b82f6688ba7ab019e49f6f5e311336e4297b", "fast"),
    ("--format json group 1 4 1 --report subgroups",
     "78b3b59293f5a2638122fb851ef76e24f98857bf2f41f94eb0060979470d5dd3", "fast"),
    ("--format json group 2 3 0 --report subgroups",
     "7ee85225c5f9d144bfe4dcd503b2d60565831782e454877c5b48984d4d40f867", "fast"),
    ("--format json group 2 3 1 --report subgroups",
     "f02c26be0cee3dc3b33d23fc4bff2bd753d180f9dbbfdb764c2d0a741986e6bb", "fast"),
    ("--format json group 3 2 0 --report subgroups",
     "c653b8dbb3fb713cf69a146256f65aeb9f20c60882f1dee8f242972755b6c2fa", "fast"),
    ("--format json group 3 2 1 --report subgroups",
     "9436e85bf90220c8938273d48d1eaf601c25f467687f5b7a98b8e0754a5589fb", "fast"),
    ("--format json group 4 1 0 --report subgroups",
     "1042473926309168ccf6779cefa83b0ecf9755772f32be9b8794e5943fb027cf", "fast"),
    ("--format json group 4 1 1 --report subgroups",
     "2d30017cbc95b93a1d60aab2ce9f8db831ea4358775b86b8aab250cf7d4d167e", "fast"),
    ("--format json group 1 1 0 --report transfers",
     "62e5ffb42532a4f82c91cc1488b1718a39a8b55c4b4368ca69eb2b16d8846667", "fast"),
    ("--format json group 1 1 1 --report transfers",
     "9fac6641df60149cf0203d04d5f1ef96696318c6ee22b72d6ed7385b4a5c54fa", "fast"),
    ("--format json group 1 2 0 --report transfers",
     "4921eed0b6a3a4d31ac7ff6103791f5f192996865b5bd7ac6d6e50af99777da0", "fast"),
    ("--format json group 1 2 1 --report transfers",
     "2bed8f04d2a98fee97488b29fd5e1ee142291a0e72115bc02c14e85cd1f1d6c2", "fast"),
    ("--format json group 2 1 0 --report transfers",
     "e9db3e6ef35ec19a3ac1d900cc2a6ff2f8ed40cd09c7c4e8054036df52c2dfcf", "fast"),
    ("--format json group 2 1 1 --report transfers",
     "63d4f4d417a2794ef2bc22ff27e7fa53b7dccc77cfee9d8fa387463080ab6444", "fast"),
    ("--format json group 1 3 0 --report transfers",
     "813405ff2efd496c3eaccc8df33297bcfb03108d8acf6fce14df8c4329d94dd0", "fast"),
    ("--format json group 1 3 1 --report transfers",
     "1ceb8939633dfae499488ee0a332a2588316d13adb90768e0e8ca77c984cf677", "fast"),
    ("--format json group 2 2 0 --report transfers",
     "cf19e6143553e23864de9eace16004d541507629765e20b03889d42deb59bca7", "fast"),
    ("--format json group 2 2 1 --report transfers",
     "bff5ce18fad4ccdaa3d18365ac9e758fdf501d607cf328c33854bae3a4ab2891", "fast"),
    ("--format json group 3 1 0 --report transfers",
     "bddb1776eace74fc4208ba765d1c14bd7f70de96f34616056c757459909fb2b9", "fast"),
    ("--format json group 3 1 1 --report transfers",
     "a9603803ddf5af96ac7e6d1b881240255e9fcc236e7690bdfb0608a652c1c836", "fast"),
    ("--format json group 1 4 0 --report transfers",
     "49e2b795c35b9e7391d86b8e34f8165e68f53f002b7da18381a6698527a80f86", "fast"),
    ("--format json group 1 4 1 --report transfers",
     "dffcde9026ae251b2fc80ca1038cd96421a5d59decfdc937d6e6deb860b4f8fd", "fast"),
    ("--format json group 2 3 0 --report transfers",
     "40270864232e343e57effce3db420bc02fc3b2c39847af02cad6085d65ab3b3b", "fast"),
    ("--format json group 2 3 1 --report transfers",
     "5547e48d708e3391f6b0088eff25c80b048b31aed3cf60d7d2f0a71fc48b8fda", "fast"),
    ("--format json group 3 2 0 --report transfers",
     "43aa5a8c1e677150bc41eb71e05a45828dc849ca163b6e978b450f08f8f6b40b", "fast"),
    ("--format json group 3 2 1 --report transfers",
     "11b229bd97a243e18561d47d7fe6c8aae2dae445e381a25265502f290917180c", "fast"),
    ("--format json group 4 1 0 --report transfers",
     "31205144e31458a11e06676a87f375d2829320ad958052795583166995be7ce1", "fast"),
    ("--format json group 4 1 1 --report transfers",
     "0debce7edd0bd49af89a41fb18a149a6d767ce01218426a8f7b0cbaf279903a5", "fast"),
    ("--format json group 3 3 0 --report subgroups",
     "0fe00720445d6bd89ef5dacad3163aa089d4b0c3c2a55a13d5dcac14eff6de2b", "fast"),
    # Group reports at order 2^11, and the verification matrix.
    ("--format json group 4 4 1 --report subgroups",
     "7f555147f1640b291070e19d263e0758b608be5960c69010a757b992be1a251b", "fast"),
    ("--format json group 4 4 1 --report transfers",
     "8b5f44686f63538331ed1eb97fc8b479baffdfe3614543e775377b7d8d420914", "fast"),
    ("--format json group 7 1 1 --report transfers",
     "ba20b2438565ea249c82dc5020e3802fde5cd454aed1e1fde591547240b174e7", "fast"),
    ("--format json group 3 5 1 --report transfers",
     "5a0197e22527152d1554bff6c885f1bf0d393bb881db2dd6ee5aa60dbca24560", "fast"),
    ("--format json group 1 7 0 --report transfers",
     "8e68252ca8339ba62966153d959114c87b9ed262d7b81ede955ad5640f10238e", "fast"),
    ("--format json verify",
     "4b9c74c2e7b04392d85e41e443436c179062b64b0862f0e914d4b19c0caa04a2", "slow"),
]


def check(pins) -> list[str]:
    """Run each row's argv through quadtower.cli.main in this process and
    print one line per row: argv, elapsed seconds, and `ok` or the exit code
    and sha256 it got.  Returns the lines of the rows that did not exit 0
    with the pinned stdout and no warning."""
    failures = []
    for argv, digest, _ in pins:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv.split())
        seconds = time.perf_counter() - start
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        ok = code == 0 and got == digest and not caught
        line = f"{argv}: {seconds:.2f} s " + ("ok" if ok else f"FAIL exit {code} sha256 {got}")
        line += "".join(f" warned {w.category.__name__}: {w.message}" for w in caught)
        print(line, flush=True)
        if not ok:
            failures.append(line)
    return failures


def test_fast_pins():
    assert check([pin for pin in PINS if pin[2] == "fast"]) == []


def test_a_row_that_warns_fails(monkeypatch):
    # The warning os.fork gives beside a running thread on 3.12 and later,
    # stood in for on any version: the rows are right, the row still fails.
    real_fork = os.fork

    def warning_fork():
        warnings.warn("use of fork() may lead to deadlocks", DeprecationWarning)
        return real_fork()

    monkeypatch.setattr(tower, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", warning_fork)
    digest = dict((argv, d) for argv, d, _ in PINS)["--format csv scan -60000 -1"]
    (line,) = check([("--workers 2 --format csv scan -60000 -1", digest, "fast")])
    assert f"exit 0 sha256 {digest} warned DeprecationWarning: use of fork()" in line


if __name__ == "__main__":
    sys.exit(1 if check(PINS) else 0)
