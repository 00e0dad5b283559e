"""Byte-identical reports: sha256 digests of CLI stdout and exit code.

The digests pin the natural-system exports, the openness reports and the
bisimulation reports (certificates and refutations) of the bundled
gallery, and route-complex reports with their homology, so a refactor of
the homology, map, valuation, index or bisimulation layers cannot change
a report unnoticed.  A digest covers the exit code, a newline and the
whole stdout.  A complex named like a file in ``tests/data`` (LOOPS) is
read from there.
"""

import hashlib

import pytest

from ditop.cli import main
from helpers import DATA

GOLDEN = {
    "natsys FIX-EDGE --val pi0": "3514121edc16eb2ac9a37bcbd6c5bb09577f2a8aed37d561f1bba2122cafd541",
    "check-open --comparison FIX-EDGE --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-EDGE --val hom:1": "0521965adb741cf3d869e50924a0ef49725833f76d0812a007358904ae72d158",
    "check-open --comparison FIX-EDGE --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-EDGE-split --val pi0": "df17d20825e3ca84fd7c953bf03cac858a6491f29b5b5a060194aebe0ede7aaa",
    "check-open --comparison FIX-EDGE-split --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-EDGE-split --val hom:1": "c2aba6d4a5a97cbbad15d8a1ebc6fcdb76eeac90d7d734c34a254fcc80e9fd58",
    "check-open --comparison FIX-EDGE-split --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-B --val pi0": "b9b189c1fb837096aaaa54680ed5f4239778f8921195f4ce725878b47ae9e31f",
    "check-open --comparison FIX-B --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-B --val hom:1": "868238422b9d345f7d5a7e6bd07907c1571e1cb1f2e5318c209017733a7ce2c4",
    "check-open --comparison FIX-B --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-A --val pi0": "a311a1e9413ac649bd0dd7f36ad069eca3fdc596126697830fb91fc9478f2e08",
    "check-open --comparison FIX-A --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-A --val hom:1": "ddee19a4aa087c0a0de626ccb03985561b93bcadbb8021f2c185b9ce446420c1",
    "check-open --comparison FIX-A --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-SQUARE --val pi0": "d205a4f5068bc5ad60cc37b5e8b5a9fefcd4585d14db4a65a9fbdc4dab13310e",
    "check-open --comparison FIX-SQUARE --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-SQUARE --val hom:1": "97a82d2e65f07a7cd5414b6211d7067eaf689c82e85ac39f483f3c9c5842bb72",
    "check-open --comparison FIX-SQUARE --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-HOLLOW --val pi0": "694f26b616a01cf3ae7b570988d262370dcf289f2b9a14ec90b6f6c9f280c3b1",
    "check-open --comparison FIX-HOLLOW --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-HOLLOW --val hom:1": "0cd234f3b261dce0879a1741ee6a22ffe45b085c832c99f11bc4dc38a625b568",
    "check-open --comparison FIX-HOLLOW --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-TWOCELLS --val pi0": "335de7d8e6a4ce9a1f111209934e70631513ed53e8e88f956ab681cdcfa029d9",
    "check-open --comparison FIX-TWOCELLS --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-TWOCELLS --val hom:1": "70ccbed7f7ae8f2669cf47ee4e22fdff18438ccaaeec7cea6a6ae85cba8ffc75",
    "check-open --comparison FIX-TWOCELLS --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-LOOPCELL --val pi0": "d62cbc22e23dd000ec345f3b00d9376bf7c7abc37b2440dd8ea4b382f9c2e9bb",
    "check-open --comparison FIX-LOOPCELL --val pi0": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "natsys FIX-LOOPCELL --val hom:1": "d50fb08efe3de9622d9f87421f25b6fe3d58a4f9b2d03dfa5b4efa643be70ce4",
    "check-open --comparison FIX-LOOPCELL --val hom:1": "e82c98ba069571bef8bdc53ed440ae1a135a426c0fdee2f4922b91fec322d9ab",
    "check-open crush.cmap FIX-A FIX-B": "7d09ef8f617deb07b945c417951bdb9dd98245fa549abe0b87bd565e097ab1fc",
    "check-open crush.cmap FIX-A FIX-B --val hom:1": "c24ff95b30049128ce38a714ddf52d780f76d0ed0919d7d9c59399c9cb9f7df1",
    "bisim FIX-A FIX-B": "efbddffb908fe5ea09480c670f7659577a6b1d7283f70f275ddfcd344b54f0bb",
    "bisim FIX-EDGE FIX-EDGE-split": "80a6e601df334bc5880c7a1599a4d9906a4897575dea40a79fee72e139222844",
    "bisim FIX-A FIX-B --val hom:1": "33e4fbd476133cd1e3adf04a17786c2a79343dd160f7d6658d019991a6154f5f",
    "bisim FIX-EDGE FIX-EDGE-split --val hom:1": "6fcd30226f1b76869946651a7b845c6c383070f55b98d22ab7a9abc723784b73",
    # refutations: their 50 "drop" lines follow the fixpoint's deletion order
    "bisim FIX-HOLLOW FIX-SQUARE": "14ded048acd57431b74d4095a5246baa75fcf4c432b4814862b2f792d4c3f678",
    "bisim FIX-HOLLOW FIX-SQUARE --val hom:1": "14ded048acd57431b74d4095a5246baa75fcf4c432b4814862b2f792d4c3f678",
    "bisim FIX-A FIX-TWOCELLS": "01b3abc6539ee1f32e3bc2077d1f668aef4bf2c32bddc532d4478c6b89323d95",
    "bisim FIX-TWOCELLS FIX-A --val hom:1": "be9bfaffe25f0954a83b950a64db5ea1a5e72d776629de04b2c87a6919246b93",
    # generator maps that carry nonzero H1 matrices
    "natsys LOOPS --val hom:2": "62e59b024eeee1e2bd9fb0f6c3c63c67cbde2b23c265bdc0236a5f1789761146",
    "paths LOOPS p q": "ec1de62b096aacdb3b8d104fbfa5ac5214ba237dfb16a68a80cfe4c29ab3e593",
    "paths LOOPS p q --cubes": "f9e98df97e81b08ae6617decefcebb14bd3fedf2f6b4951a95e314380bdff5ad",
    "paths FIX-LOOPCELL u0 u1": "f33cf8d3a10543ac39d6d6e61bde8291c2519d395c72795885619ffdd103f8ee",
    "paths FIX-LOOPCELL u0 u1 --cubes": "beb7915b6001e48333ae4420ebc29d203e2a8aedcf473008ed990b82ba07f973",
    "paths FIX-TWOCELLS x0 x2": "ff475b277f97e013b01000f9718e36a4e94e321077bb5fb415b759fbe29a4925",
    "paths FIX-TWOCELLS x0 x2 --cubes": "7de666124247c107d864d3c46a5e34a526f81ca4e6cc8e51afd45962064d5986",
    "paths FIX-B v0 v3": "360db76aeee0930fda476d59a117b8410bed109580a9eb404e21fbc75f3db410",
    "paths FIX-B v0 v3 --cubes": "1319dea34e82c88a82bd360da4c9b8df68a430efc5b5e30589b712e85bfcd823",
}


def _resolve(word: str) -> str:
    path = DATA / f"{word}.gcx"
    return str(path) if path.exists() else word


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_report_digest(argv, capsys):
    code = main([_resolve(w) for w in argv.split()])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == GOLDEN[argv]
