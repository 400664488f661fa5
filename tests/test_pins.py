"""Byte-identity pins: exit code and sha256 of stdout for fixed command lines.

Each row of PINS is one pin.  `runs` are circleperm command lines in shell
quoting, run in order; their stdout is joined and hashed, and every run must
exit with `rc`.  `$TMP` in a command names a fresh directory, so a row can
write a catalog and read it back.  A digest changes only with a change meant
to alter output bytes; such a change states the old and new digest.

Rows run in this process through `cli.main`, except two kinds that need a
process boundary: a row with `hashseeds` runs once per PYTHONHASHSEED value
and each run must give the pinned digest, and a row with `timeout` must exit
within that many seconds.

To add a pin, run the command, take `sha256sum` of its stdout and append a
row; `sha256=None` pins the exit code alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import circleperm
from circleperm.cli import main


class Pin(NamedTuple):
    id: str
    runs: tuple[str, ...]
    rc: int
    sha256: str | None
    hashseeds: tuple[str, ...] = ()
    timeout: float | None = None


def grid(sha256, args, hashseeds=()):
    return Pin(f"grid {args}", (f"construct --grid {args}",), 0, sha256, hashseeds)


def verify(sha256, rc, args):
    return Pin(f"verify {_head(args)} {sha256[:8] if sha256 else 'rc'}", (f"verify {args}",),
               rc, sha256)


def refused(rc, args):
    return Pin(f"refused {_head(args)}", (args,), rc, None, timeout=30)


def _head(args):
    """A command line up to its first quoted operand, for the test id."""
    return args.split(" '")[0]


P1_GRID = "--family P1 --p 2 --m 2"
# X over GF(2^8) off the class k = 200 (mod 51), which sends g^200 to g^41
# (test_verify.redirect with T = 51): X + sum(g^(196 + 20j) X^(5j), 0 < j <= 51)
REDIRECT_2_8 = json.dumps({"terms": [[1, {"pow": 0}]] + [
    [5 * j, {"pow": (196 + 20 * j) % 255}] for j in range(1, 52)]})
FIELD_INFO_PM = ["2 1", "3 1", "5 1", "2 3", "3 2", "5 3", "3 5", "2 9", "7 2", "13 1",
                 "2 11", "3 7"]

PINS = [
    # the sixteen families' catalogs; P1 and Q3 also run under two hash seeds
    grid("f5f7086910e0c23c54643d72cdfc7f1ee16cc783ea70ce74da118f989ceb1257", "--family Q1 --p 5 --m 1"),
    grid("ad1473bf732a428fb0abb9d0100759cb16c1dc5f5387ab1f26d02e9504cd9c54", "--family Q4c --p 3 --m 2 --max-count 500"),
    grid("311bfb167a25020f464221fbf018742e2a7d0a4538d5df65bcb56c9829d8e623", P1_GRID, ("0", "1")),
    grid("c1bac307b55f1bb44e86ceaa20e69fc777821469c8acef24630c229b3de79739", "--family P4 --p 2 --m 4 --max-count 500"),
    grid("6b3430ef461e80cf6e804246289d125bab66dfc742c2ec1f52934995188e3846", "--family B2 --p 2 --m 4 --max-count 500"),
    grid("b2a74a1fdb9de302b52680f47a35745a1c92b820d9a643b6af7489a623062223", "--family B1 --p 2 --m 2"),
    grid("6f0ce94430823fc47f1db403f38945e12bfbd5d6d94be04ee4cf451361005c83", "--family Q3 --p 3 --m 1", ("0", "1")),
    grid("6599036d387b3d5bc981036d13f693e70f1987ec2add5e033572905a3cf1bbfc", "--family Q2b --p 5 --m 1"),
    grid("1ff106d2985fc42134e06597757d9c6c795804b47caf8457721a18531e2e37f6", "--family P2 --p 2 --m 3 --max-count 500"),
    Pin("qm-classify P1 q=4",
        (f"construct --grid {P1_GRID} --out $TMP/p1.jsonl", "qm-classify --catalog $TMP/p1.jsonl"),
        0, "6489dfe3c70fcbdf6821de3ec238bdf796316d863f368c3d6802d5a0eb25cc59"),
    # repro exits 1 by design: one worked example is defective at its source
    Pin("repro", ("repro",), 1, "d9c566db77685baf37374d0808e8c901f23af0617b4aa86006fa6016c0695ac0"),
    # the modulus search and the generator choice; GF(2^22) and GF(3^14) are
    # above the table cap, and the two stated moduli have a root that is not
    # primitive
    Pin("field-info",
        tuple("field-info --p {} --m {}".format(*pm.split()) for pm in FIELD_INFO_PM)
        + ("field-info --p 3 --m 1 --modulus '[1,0,1]'",
           "field-info --p 2 --m 2 --modulus '[1,1,1,1,1]'"),
        0, "31e2225e0b6b4527acb0444c24f4088c2c075f0ca3f519fda5257b88454654e5"),
    # fields of at most 256 elements, checked in one pass: over GF(2^8) first
    # collisions at g^129 (with g^3) and at g^200 (with g^41, REDIRECT_2_8),
    # f(0) taken again at g^253, and a permutation; over GF(11^2) at g^66
    # (with g^9), f(0) again at g^114, and a permutation
    verify("4393abc15352ec60db072ebe7bd4a0ae56a874f68f53270d63d8cdee39d91d31", 1, """--p 2 --m 4 --poly '{"terms": [[157, {"pow": 210}], [106, {"pow": 165}], [0, {"pow": 145}]]}'"""),
    verify("35583354b5c398b464af5616d5ec7155716da03ddf912f047c8b57b9880cd67b", 1, f"--p 2 --m 4 --poly '{REDIRECT_2_8}'"),
    verify("ee115820f84dff10034be7b2a49ef543c90769ef5a98cc8d59fae615451428b6", 1, """--p 2 --m 4 --poly '{"terms": [[255, {"pow": 140}], [103, {"pow": 91}]]}'"""),
    verify("1d7268735196a0ba184c2fbdc8cf74577b7e0121717a230fc1061dff5bf0f6d3", 0, """--p 2 --m 4 --poly '{"terms": [[229, {"pow": 32}], [94, {"pow": 25}]]}'"""),
    verify("1ba3bbfa609ffc42fe4d7e24d7ad16981a277c451d39927e1f3eda635397d6f9", 1, """--p 11 --m 1 --poly '{"terms": [[17, {"pow": 15}], [47, {"pow": 22}], [67, {"pow": 69}]]}'"""),
    verify("7fef53782ad56d1e94793095e817bde9aa343c0d943ece497fdfdae29a4cdf14", 1, """--p 11 --m 1 --poly '{"terms": [[120, {"pow": 88}], [89, {"pow": 82}]]}'"""),
    verify("1d7268735196a0ba184c2fbdc8cf74577b7e0121717a230fc1061dff5bf0f6d3", 0, """--p 11 --m 1 --poly '{"terms": [[97, {"pow": 91}], [37, {"pow": 7}]]}'"""),
    # p = 2, q = 64 and q = 256: the four non-permutations first collide
    # after point 64 (one takes f(0) again at g^173, past the first chunk),
    # and X^256 + g X permutes
    verify("02e62d39f926c2ca8c6a8c0868b9de53ac67f7df88e17200e5d1b491fd5ede0d", 1, """--p 2 --m 6 --poly '{"terms": [[3, {"pow": 0}], [192, {"pow": 1}]]}'"""),
    verify("88d0096f199c2e7968ab4bcb0bad37b066713ef71a3a5f28e3b7a3d049058890", 1, """--p 2 --m 6 --poly '{"terms": [[1166, {"pow": 2935}], [1581, {"pow": 3633}], [2739, {"pow": 1421}]]}'"""),
    verify("861233fec2ee598499068dc4c9828dd56b72777f0c5071342e28ef7ccb5e7de3", 1, """--p 2 --m 6 --poly '{"terms": [[2003, {"pow": 938}], [4043, {"pow": 1723}], [1147, {"pow": 2879}]]}'"""),
    verify("5a88daa0fc23767a7cd6a298cee5716f157e8c9665bfb8b0d5a4f826f0a40db7", 1, """--p 2 --m 8 --poly '{"terms": [[21223, {"pow": 62119}], [9887, {"pow": 25875}], [42660, {"pow": 3164}]]}'"""),
    verify("1d7268735196a0ba184c2fbdc8cf74577b7e0121717a230fc1061dff5bf0f6d3", 0, """--p 2 --m 8 --poly '{"terms": [[256, {"pow": 0}], [1, {"pow": 1}]]}'"""),
    # q = 125 and q = 243: a Q1 and a Q3 tuple permute, and four trinomials
    # first collide after point 64 (g^108 and g^155, both in the chunk from
    # g^64; then at g^123, g^606 and g^183)
    verify("1d7268735196a0ba184c2fbdc8cf74577b7e0121717a230fc1061dff5bf0f6d3", 0, """--p 5 --m 3 --poly '{"terms": [[375, {"pow": 4844}], [251, {"pow": 1639}], [127, {"pow": 7758}], [3, {"pow": 543}]]}'"""),
    verify("5abac1f868f9445504237c4416516c47b36ff698fcfa109f1ccc8e8309ec1c60", 1, """--p 5 --m 3 --poly '{"terms": [[14306, {"pow": 9301}], [7362, {"pow": 11892}], [5502, {"pow": 15078}]]}'"""),
    verify("bdb5ee8550dbef0632b9f247f3e3f51999bfcc437fe05b7b77d942fe3dd4b187", 1, """--p 5 --m 3 --poly '{"terms": [[2802, {"pow": 2486}], [5800, {"pow": 11838}], [3148, {"pow": 6184}]]}'"""),
    verify("1d7268735196a0ba184c2fbdc8cf74577b7e0121717a230fc1061dff5bf0f6d3", 0, """--p 3 --m 5 --poly '{"terms": [[729, {"pow": 18020}], [3, {"pow": 55750}]]}'"""),
    verify("a8a0cb8277d628f823019a1b291f6dc26262dfd354ab8824c14939d1ebbdea0f", 1, """--p 3 --m 5 --poly '{"terms": [[11967, {"pow": 37667}], [37131, {"pow": 25612}], [41369, {"pow": 43481}]]}'"""),
    verify("81b5065554b4bc1139eab2d10907cefa871b2a8f235dd4e483fbf9543fcf8d3e", 1, """--p 3 --m 5 --poly '{"terms": [[18565, {"pow": 34051}], [11353, {"pow": 46931}], [50851, {"pow": 48767}]]}'"""),
    # the largest circles below the cap: at each q a grid tuple (Q3, P1)
    # permutes, and a trinomial with gcd(r, q-1) = 1 fails on the circle
    # (first collisions g^168 with g^469 and g^573 with g^628)
    verify("1d7268735196a0ba184c2fbdc8cf74577b7e0121717a230fc1061dff5bf0f6d3", 0, """--p 3 --m 6 --poly '{"terms": [[2187, {"pow": 225907}], [3, {"pow": 520871}]]}'"""),
    verify("98ab2661c97efcd9e94f6ce5a4a8364051abf6f3d53160b07ccf5c20da1f89db", 1, """--p 3 --m 6 --poly '{"terms": [[5, {"pow": 11}], [733, {"pow": 222}], [1461, {"pow": 333}]]}'"""),
    verify("1d7268735196a0ba184c2fbdc8cf74577b7e0121717a230fc1061dff5bf0f6d3", 0, """--p 2 --m 10 --poly '{"terms": [[4096, {"pow": 424026}], [3073, {"pow": 417175}], [2050, {"pow": 376175}], [1027, {"pow": 417175}], [4, {"pow": 210165}]]}'"""),
    verify("6031b7abe3adbb83e66efff9371e0574f1985642153aa4f0f2f14d3b9d1d7075", 1, """--p 2 --m 10 --poly '{"terms": [[4, {"pow": 7}], [3073, {"pow": 1000}], [5119, {"pow": 77}]]}'"""),
    # X^5 over GF(2^18) verifies under the default cap
    verify(None, 0, """--p 2 --m 9 --poly '{"terms": [[5, {"pow": 0}]]}'"""),
    # g = g^3 * f(g^11 * X^7) over GF(2^16), so qm-test finds them equivalent
    Pin("qm-test twist q=256",
        ("""qm-test --p 2 --m 8 --f '{"terms": [[4, {"pow": 0}], [259, {"pow": 5}], [514, {"pow": 9}]]}' --g '{"terms": [[28, {"pow": 47}], [1813, {"pow": 2857}], [3598, {"pow": 5666}]]}'""",),
        0, "01bd514cf1b89eb576524e0cffe784aedaedef50406cef470720c57320bb409c"),
    # monomials over GF(2^16): g^3 X^7 = g^-2 * g^5 (X^(2^15))^14; the key's
    # b loop has no second term to fix
    Pin("qm-test monomial q=256",
        ("""qm-test --p 2 --m 8 --f '{"terms": [[7, {"pow": 3}]]}' --g '{"terms": [[14, {"pow": 5}]]}'""",),
        0, "1ed7515ece8ba2cd8b4084b10d3fafb55ba26caf785cb68a28130378302775fd"),
    # qm_equivalent's False branch: X^3 and X^5 + gX are not equivalent
    Pin("qm-test not equivalent q=5",
        ("""qm-test --p 5 --m 1 --f '{"terms": [[3, {"pow": 0}]]}' --g '{"terms": [[5, {"pow": 0}], [1, {"pow": 1}]]}'""",),
        1, "d9225835439728a97e3f33f662cfbda336eb54756b48a7bc441363848bd2f6a5"),
    # single constructions: the README example, an odd-p tuple with aux over
    # GF(3^8) (its verdicts sum a lane table), and a --field operand
    Pin("construct Q1 q=5",
        ("construct --p 5 --m 1 --family Q1 --beta -1 --delta g --delta-t g",),
        0, "458ce5b897a8672a6db69d22133a920ee72d746487c480acc185179f934f5324"),
    Pin("construct Q3 q=81",
        ("construct --p 3 --m 4 --modulus '[2,2,2,0,1,2,0,0,1]' --family Q3 --beta -1 "
         "--delta g^4898 --delta-t g^332 --aux g^82",),
        0, "f09ea95f88eb2908c2c282de1ecc6960463c5a8c5eef386c4fe7bcecf00a2e9c"),
    Pin("construct --field P1 q=4",
        ("""construct --field '{"p": 2, "modulus": [1, 1, 0, 0, 1]}' --family P1 --beta 1 --delta g^3 --delta-t g^3 --aux 1""",),
        0, "2fa79d8d7ac3dd11aff4f89db8eaf523979f0f2b0eecbdc1d9ebb81aff52d2ce"),
    # the CSV catalog format
    Pin("grid csv --family P4 --p 2 --m 2",
        ("construct --grid --family P4 --p 2 --m 2 --format csv",),
        0, "e825679cb666a0b790d840f525784f97feeaef22d7e59dd5f191ccb914497376"),
    # GF(2^22) is above EXHAUSTIVE_CAP, so verify, a grid and qm-test exit 3;
    # a reducible modulus (two quartics over GF(101)) exits 2
    refused(3, """verify --p 2 --m 11 --poly '{"terms": [[5, {"pow": 0}]]}'"""),
    refused(3, "construct --p 2 --m 11 --grid --family B1"),
    refused(3, """qm-test --p 2 --m 11 --f '{"terms": [[5, {"pow": 0}]]}' --g '{"terms": [[5, {"pow": 0}]]}'"""),
    refused(2, "field-info --p 101 --m 4 --modulus '[1,2,7,11,16,17,12,5,1]'"),
    # field-info runs above the cap: GF(2^62) factors 2^62 - 1 by Pollard's
    # rho (trial division ran for minutes), and GF(p^2) for p = 2^31 - 1
    # searches the moduli one word at a time (a tuple of all p words ran out
    # of memory); both moduli are cross-checked with sympy in test_fields
    Pin("field-info GF(2^62)", ("field-info --p 2 --m 31",), 0,
        "ea3d629f96a56498b1d86bada4a12d3a7d76a0dcc8bb3463c19dd1302a74ffce", timeout=30),
    Pin("field-info GF((2^31-1)^2)", ("field-info --p 2147483647 --m 1",), 0,
        "7f43548d4977e03f31bcb7f2577f775ad3ddb29a30eef974a5644c7323496c95", timeout=30),
    # GF(2^82): 2^82 - 1 lies above 3.3 * 10^24, where Miller-Rabin stops
    # proving primes, but each of its prime factors lies below.  2^89 - 1,
    # a factor of 2^178 - 1, and the least prime above that bound have no
    # primality proof at hand, so both exit 3
    Pin("field-info GF(2^82)", ("field-info --p 2 --m 41",), 0,
        "37f4e64c4fbb70b0e346810566d1f609c5967461caa02154fe9ff366798544ea", timeout=30),
    refused(3, "field-info --p 3317044064679887385962123 --m 1"),
    refused(3, "field-info --p 2 --m 89"),
    # GF(2^62): the order is refused before the modulus search runs
    refused(3, """verify --p 2 --m 31 --poly '{"terms": [[5, {"pow": 0}]]}'"""),
    refused(3, "construct --p 2 --m 31 --grid --family B1"),
    refused(3, """qm-test --p 2 --m 31 --f '{"terms": [[5, {"pow": 0}]]}' --g '{"terms": [[5, {"pow": 0}]]}'"""),
]

SRC = str(Path(circleperm.__file__).resolve().parent.parent)


def _argvs(pin, tmp_path):
    return [shlex.split(run.replace("$TMP", str(tmp_path))) for run in pin.runs]


def _in_process(pin, tmp_path, capsys):
    rcs, out = [], ""
    for argv in _argvs(pin, tmp_path):
        rcs.append(main(argv))
        out += capsys.readouterr().out
    return rcs, out.encode()


def _in_subprocess(pin, tmp_path, hashseed):
    env = dict(os.environ, PYTHONPATH=SRC)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    rcs, out = [], b""
    for argv in _argvs(pin, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from circleperm.cli import main; sys.exit(main())",
             *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=pin.timeout)
        rcs.append(proc.returncode)
        out += proc.stdout
    return rcs, out


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_pin(pin, tmp_path, capsys):
    if pin.hashseeds or pin.timeout:
        results = [_in_subprocess(pin, tmp_path, seed) for seed in pin.hashseeds or [None]]
    else:
        results = [_in_process(pin, tmp_path, capsys)]
    for rcs, out in results:
        assert rcs == [pin.rc] * len(pin.runs)
        if pin.sha256 is not None:
            assert hashlib.sha256(out).hexdigest() == pin.sha256
