"""Output fingerprints on the cookbook specs.

The sha256 digests below were recorded before the per-spec memo replaced the
process-global caches, and those of base_stern `[6]` and `[1,1,1,1]`,
tribonacci `[2]`, the heavy cases and the `--alpha 2` limit report before
the integer interval kernel, the `pv` pins on constructed indicial
polynomials before the integer polynomial kernel, and `gf` fibonacci `[4]`,
tribonacci `[1,1]` and tribonacci `[2] --method eliminate` before the
multi-modular fit, and `matrix` base_stern `[4]`, `[7]`, `[9]`, `[2,2]`,
`[2,1,2]` and `gf` base_stern `[6]`, `[2,1,2]` before multiset evolution,
and the long `terms` runs before they were taken from the fitted recurrence,
and `gf fibonacci [3] --method eliminate` and the root digest of random
recurrences before the root disks moved onto the integer grid, and the
deadness log before `core.is_dead` kept its head columns by beta and its
pair certificates by key;
any change to what `matrix`, `gf` (its `num`, `den` and `dim`; `method` is
left out) or `pv` print shows up here.  The
challenge limit reports are produced in a fresh interpreter, where their
counts do not depend on anything the test session ran before.  Every
deadness verdict of the logged closures must also equal the former
level-by-level spread scan's (`spread_scan.py`).
"""

import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from sterngf import LimitExceeded, build_system, cli, core
from sterngf.cfinite import CFiniteSeq, indicial_poly, pv_classify
from sterngf.roots import dominant_root_certificate

from spread_scan import spread_scan_is_dead

COOKBOOK = pathlib.Path(cli.__file__).parent / "cookbook"

CASES = [
    ("matrix", "base_stern", "1"), ("matrix", "base_stern", "2"),
    ("matrix", "base_stern", "3"), ("matrix", "base_stern", "5"),
    ("matrix", "base_stern", "1,1"), ("matrix", "base_stern", "1,1,1"),
    ("matrix", "fibonacci", "1"), ("matrix", "fibonacci", "2"),
    ("matrix", "fibonacci", "3"), ("matrix", "fibonacci", "1,1"),
    ("matrix", "tribonacci", "1"), ("matrix", "quadonacci", "1"),
    ("matrix", "pentanacci", "1"),
    ("matrix", "base_stern", "6"), ("matrix", "base_stern", "1,1,1,1"),
    ("matrix", "tribonacci", "2"),
    ("matrix", "base_stern", "4"), ("matrix", "base_stern", "7"),
    ("matrix", "base_stern", "9"), ("matrix", "base_stern", "2,2"),
    ("matrix", "base_stern", "2,1,2"),
    ("gf", "base_stern", "1"), ("gf", "base_stern", "2"),
    ("gf", "base_stern", "3"), ("gf", "base_stern", "5"),
    ("gf", "base_stern", "1,1"), ("gf", "base_stern", "1,1,1"),
    ("gf", "fibonacci", "1"), ("gf", "fibonacci", "2"),
    ("gf", "fibonacci", "3"), ("gf", "fibonacci", "1,1"),
    ("gf", "tribonacci", "1"), ("gf", "quadonacci", "1"),
    ("gf", "pentanacci", "1"),
    ("gf", "fibonacci", "4"), ("gf", "tribonacci", "1,1"),
    ("gf", "base_stern", "6"), ("gf", "base_stern", "2,1,2"),
    ("gf", "fibonacci", "3", "--method", "eliminate"),
    ("gf", "tribonacci", "2", "--method", "eliminate"),
    ("pv", "base_stern", None), ("pv", "fibonacci", None),
    ("pv", "tribonacci", None), ("pv", "quadonacci", None),
    ("pv", "pentanacci", None), ("pv", "challenge", None),
    ("terms", "base_stern", "2", "-n", "300"),
    ("terms", "fibonacci", "2", "-n", "200"),
    ("terms", "tribonacci", "1", "-n", "200", "--digits-only"),
    ("terms", "tribonacci", "2", "-n", "1000"),
    ("terms", "fibonacci", "3", "-n", "400", "--digits-only"),
    ("terms", "base_stern", "5", "-n", "2000"),
    ("oracle", "fibonacci", "2", "-n", "15"),
    ("oracle", "challenge", "2", "-n", "10"),
    ("guess", "base_stern", "2", "-n", "12"),
    ("guess", "fibonacci", "2", "-n", "22"),
]

# heavier closures, seconds each: extended tier only
EXTENDED_CASES = [
    ("matrix", "quadonacci", "2"), ("matrix", "fibonacci", "4"),
    ("terms", "tribonacci", "2", "-n", "3000"),
    ("terms", "fibonacci", "4", "-n", "3000"),
]

LIMIT_ARGV = ["gf", str(COOKBOOK / "challenge.json"), "--limit", "150"]
LIMIT_ALPHA2_ARGV = ["gf", str(COOKBOOK / "challenge.json"),
                     "--alpha", "2", "--limit", "500"]

EXPECTED = {
    "matrix base_stern [1]":
        "55150ceb6f4d504dae3b5e6076e15325622c48cb30f252943070fb10d68c234f",
    "matrix base_stern [2]":
        "5117973c47a12ece24b3fe0333199c06ae4da64359facafdb5ffd3b88533a1cf",
    "matrix base_stern [3]":
        "af27661cd8a998b189dbc0ec4fc9e34d6ae2f466e287e87691136c3bc3a8349d",
    "matrix base_stern [5]":
        "fafb500d9a1d6f828625f911377d975e8da02c5a8d26c5e4a4b4d37456f1212d",
    "matrix base_stern [1,1]":
        "32d244c98c965ba8473c60e145c6114be409826f2b21b67609cce141ee676128",
    "matrix base_stern [1,1,1]":
        "bd09058034e5334c5648d9a5bfabaca274670aad4646992dc9ac213f04c4bfac",
    "matrix fibonacci [1]":
        "55150ceb6f4d504dae3b5e6076e15325622c48cb30f252943070fb10d68c234f",
    "matrix fibonacci [2]":
        "0afe3c9b596fce4278d5417f3d285e4ce636482f899928a6b87f1cd9ffe5002f",
    "matrix fibonacci [3]":
        "910d1de5551d6beab6384d0bdec03cb0b2e3fcdb33e8ba7665eba13aa55a5a95",
    "matrix fibonacci [1,1]":
        "403c2a96dcf67e6248759d0621280a89ba031e92707ec3b3a94ddec93993dbcf",
    "matrix tribonacci [1]":
        "04439c0780052e0345b44d2a62588ee4a9a0d5c931aa738e1045433c04bbc823",
    "matrix quadonacci [1]":
        "e5574b1cb738fc98030f7bf62d24e84d6461d97e3e5525f05e1ae5d785a158d6",
    "matrix pentanacci [1]":
        "c5d53f0d4d597e025aef85ed5d290e4824d9785763af1a847068d44881ae9e61",
    "matrix base_stern [6]":
        "f8ab2995bf54cdbe2dc20478122407f375d1c7ee7b3b047afb366b2019f2fe17",
    "matrix base_stern [1,1,1,1]":
        "f6004533d8f86739974a139373189f367e4054e8d471eef42280b2eba420a048",
    "matrix tribonacci [2]":
        "3844b1b5128f5ba05823a52955b69949a377e2ce7ac9d693fbe7dba196b88c30",
    "matrix base_stern [4]":
        "b0505e907bb4dfd0f030c6b3295857b4a1486f52eb365332eb0be1c444a99465",
    "matrix base_stern [7]":
        "97bcee48ca11410b2d0e2da53e126983bc7712e426e8bdb79b1f13b0edcde314",
    "matrix base_stern [9]":
        "f81352c1f98d124016370fd15dce3f22fc127bddefcd11dcdfffa4a126b84c9c",
    "matrix base_stern [2,2]":
        "6ae93a30c153a34a8915cdc3d8396e15b33fd38856910aeaeba798e8e149586d",
    "matrix base_stern [2,1,2]":
        "eba197e95218745210de415d3bb2fd764c2baa53fff0b3b5aff6c385ede16130",
    "matrix quadonacci [2]":
        "514274496cea2f25c7788ff6ac457ef85604f953733edce0536aa4593190c31c",
    "matrix fibonacci [4]":
        "5b5b090a10c18bedc837ceb60d74d6cd54eecbc907c55945b51dc63b4d914a05",
    "gf base_stern [1]":
        "ca90513fc7a95ac11247fa8e92e64e9ee618ec0dbb380b32b3c363b61b90ae1c",
    "gf base_stern [2]":
        "d6c257dc4ad6919a8a01004ca3e48f3511a99f18679f8f62eda19b56190d1ef6",
    "gf base_stern [3]":
        "b1ea6d081e4c00e8008e7cb0c124ab885edf403f563961e77687b141a0c77e5b",
    "gf base_stern [5]":
        "7cec3ef10f3e7e75fd461a34bf7c8bfb38fb295dccac4d96ce2f18ed3c6c348a",
    "gf base_stern [1,1]":
        "712552957821c9d1d3c69acb7ab2892e2529931f25dc2c951c8e36984434ac65",
    "gf base_stern [1,1,1]":
        "eb6a0f1f9d017dbb3f038bbeb6f94ad360864b2a0f86b422da0d77b586dfb4ae",
    "gf fibonacci [1]":
        "ca90513fc7a95ac11247fa8e92e64e9ee618ec0dbb380b32b3c363b61b90ae1c",
    "gf fibonacci [2]":
        "ed43eb9ca9d9e390c93a58bcb4ea001df52aac4d3747d23d8b29c9fd41c5996c",
    "gf fibonacci [3]":
        "c0d49d1fa71606c163d7c92c77418e5e2502c4382ad3741b9cf630a854e0dd7c",
    "gf fibonacci [1,1]":
        "bd10fa70322f358f0dd11f7e818b72df101d15558676c37a27cdaab78ab20ed5",
    "gf tribonacci [1]":
        "d3733697a84b8bb63f35e18bd73d3ec641c3d5b30472a3fe8fdc14bd302d3917",
    "gf quadonacci [1]":
        "1551790feb611b30eff38668bde43c6c02fc9af410ea2d71d4359f6f20c73e13",
    "gf pentanacci [1]":
        "59137ea3fbd75eb27e910593bfa79838d2f87bad5f5c13ffb56e20ae47994e79",
    "gf fibonacci [4]":
        "640898ebef9e84b87e3d2c92815699902ca117668979416f6db83665532b4899",
    "gf tribonacci [1,1]":
        "8659ccef0fbd786e97ccc2e1225978ff540cb0d9a133f677ff16dd5f28218f5c",
    "gf tribonacci [2] --method eliminate":
        "d13a32c967e196c17357752c0beca67e74fabc5522127f5eed83fc2d1ed615d4",
    "gf base_stern [6]":
        "11ed8c9fb3dbc671427b02ea1cbb962ad48741e51b70f5a9518e24a86ce01cbd",
    "gf base_stern [2,1,2]":
        "5e79558a517e3da083c1907b16bfbcf9c20d8c39d1f50449e443d35d1749b180",
    "gf fibonacci [3] --method eliminate":
        "c0d49d1fa71606c163d7c92c77418e5e2502c4382ad3741b9cf630a854e0dd7c",
    "pv base_stern":
        "ef019b2fd8247159a0ff7fa6596e9f77d509081e1d6bd88a88072cc8b190afee",
    "pv fibonacci":
        "f16584b90ba02b91045090d0c6610619c1bbda3a63c51385348bea597be366ff",
    "pv tribonacci":
        "686a9a5f852cf19f505f3f963b7bb50ec46cd843c70414052654f0fd1544ac1a",
    "pv quadonacci":
        "579462c95cb22e512329bc0b960c4e67c4b0e1f8ab9a83ee475129f0450008b9",
    "pv pentanacci":
        "b44c6df2c9cffc437a6eae73d8049c66217512fcc6998ec4c9bf20a0f3cbd112",
    "pv challenge":
        "b3f70fd173b74dfe726bb54a276093a0a815b87f86d4f4d5d8ac44987145e699",
    "terms base_stern [2] -n 300":
        "b3ddf010e842d439cca2c650ee1769f827c3641f73e0f0bcb76e3ce0a6c3cfe7",
    "terms fibonacci [2] -n 200":
        "b53f2fc0e5b193e0f14fcd560b6f41dd1eb7656d78c0c0a0751d9278edcd98b7",
    "terms tribonacci [1] -n 200 --digits-only":
        "b2fa1e1449610204cc6a6a71ae1f9a72fca5d01178dff562454a51c5237cd033",
    "terms tribonacci [2] -n 1000":
        "d355a4b63190c47e9ba0701961f20f465728a6679ffad056b2c1980fe3debe0c",
    "terms fibonacci [3] -n 400 --digits-only":
        "ae18f5c59aa1283b4d196db5c85242372a41208b3876fb673d7ddbc786be6e6f",
    "terms base_stern [5] -n 2000":
        "e06bfab9009fb9cdc95a69e169026546fa1e8097c64ef3060914d61cbebb3a6e",
    "terms tribonacci [2] -n 3000":
        "f59f9a8c9dad99aafad15129ec264ce69e6f8511266fb0ead3eea15dc6350038",
    "terms fibonacci [4] -n 3000":
        "368aa438b6aa20bc752410597cfd2bbe3abe869b6f2f9fd02d2e4366a63ce7e4",
    "oracle fibonacci [2] -n 15":
        "1ed36488bb69e1b57dd4864c44d3f64b3591ba09d1f23ffb200d1caf94b1fd2e",
    "oracle challenge [2] -n 10":
        "7ac2ca72afe5ecfd484547430660e23b79cd17dae2b4fc0112e24fc2362997df",
    "guess base_stern [2] -n 12":
        "fa9c6d9b274b0af53d282fc462aaf836d03c79ede677cd1f0e3287037b8a0642",
    "guess fibonacci [2] -n 22":
        "6c24ace1ed4f6ce467638288f8b51040e76d2b9c3501e7d883310a48b4573f9d",
}

# indicial polynomials (ascending) for `pv` on constructed specs: (X - 2)
# times a cyclotomic factor of each order, a repeated dominant root, a
# conjugate pair outside the unit circle and the plastic number (PV)
PV_CASES = {
    "(X-2)*Phi_2": [-2, -1, 1],
    "(X-2)*Phi_3": [-2, -1, -1, 1],
    "(X-2)*Phi_4": [-2, 1, -2, 1],
    "(X-2)*Phi_5": [-2, -1, -1, -1, -1, 1],
    "(X-2)*Phi_6": [-2, 3, -3, 1],
    "(X-2)*Phi_8": [-2, 1, 0, 0, -2, 1],
    "(X-2)*Phi_10": [-2, 3, -3, 3, -3, 1],
    "(X-2)*Phi_12": [-2, 1, 2, -1, -2, 1],
    "(X^2-X-1)^2": [1, 2, -1, -2, 1],
    "(X-3)*(X^2+X+2)": [-6, -1, -2, 1],
    "X^3-X-1": [-1, -1, 0, 1],
}

EXPECTED_PV = {
    "(X-2)*Phi_2":
        "2d2cc31719f8a723459656f7f7741eea506c40940280aed40b8339c8cbbb0a81",
    "(X-2)*Phi_3":
        "6890c4a95aefc32efd95f78a68c652024e6ec0742cb192415318f8ebc1aae758",
    "(X-2)*Phi_4":
        "b87a3ff80e4dc4d6907c64e0ce850057a1dfd6d9b2688cc1fb425d02783efbd1",
    "(X-2)*Phi_5":
        "1c276a8a3c7b06fbb6cef2d555ead9b67915a62454cbb0a1735dbc86734949ef",
    "(X-2)*Phi_6":
        "3a64a78e8f606f1e7a47c2bd9d9ec804b8c623877e26b5dc73cd096111da8e3d",
    "(X-2)*Phi_8":
        "2adbb25ff942b98b6dbe340265f232c245e02928ba5e26c14d9015d8fb257a54",
    "(X-2)*Phi_10":
        "034089ca52e3225405e043fb55cda1dbc2264fe32b77bbaa654e21b0cc346864",
    "(X-2)*Phi_12":
        "bc7ecb7b228a333d41e9a6447b0fa423063198d6360c3c3b3245ed2df48b2c19",
    "(X^2-X-1)^2":
        "be2aa70e74f14d87872ee320ac973c2b3a276e4a2cf2d79de0b84539406b1235",
    "(X-3)*(X^2+X+2)":
        "0b2fe08448900cfb36f0aefef92140bcbab6fac3c5741cc0903e2538a3bcde6e",
    "X^3-X-1":
        "3347b6feab0bd41ca8d630cd00e7f840b18825af0616218c02bee7c2de2a6001",
}

# pv_classify and the dominant-root certificate on 300 random recurrences
EXPECTED_RANDOM_ROOTS = (
    "f69dc302b7f8640bf417587f40d3edb0c593228ea0663157773f5e03798a78ea")

# every core.is_dead call of these closures, each from a fresh registry, as
# the (factors, verdict) sequence: (spec, alpha, state limit)
DEADNESS_CASES = [
    ("base_stern", [6], 5000), ("base_stern", [1, 1, 1, 1], 5000),
    ("fibonacci", [3], 5000), ("tribonacci", [2], 5000),
    ("challenge", [2], 500), ("fibonacci", [4], 5000),
]
EXPECTED_DEADNESS_LOG = (
    "5e3e99656ddfe7202b20e22bdd23787776b92e1f1d0b10a56cd2d159e03b0972")

EXPECTED_LIMIT = (
    "6c25b788101cde01f7b22600661f5f4eaaf9e515d808e76d55e84f6e74f8a9cb")
EXPECTED_LIMIT_ALPHA2 = (
    "475e9b7f2e1c1a36b3bccb317b790fa5287042861800fd441d5469a34bf2f682")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(cmd: str, spec: str, alpha: str | None = None, *extra: str) -> str:
    argv = [cmd, str(COOKBOOK / f"{spec}.json")]
    if alpha is not None:
        argv += ["--alpha", alpha]
    argv += extra
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    out = buf.getvalue()
    if cmd == "gf":
        doc = json.loads(out)
        del doc["method"]
        out = json.dumps(doc)
    return _sha(out)


def limit_fingerprint(argv=LIMIT_ARGV) -> str:
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-m", "sterngf", *argv],
                         capture_output=True, text=True, env=env, check=False)
    return _sha(f"{res.returncode}\n{res.stdout}\n{res.stderr}")


def pv_fingerprint(q: list[int], tmp_path) -> str:
    """Digest of `pv` on a spec whose indicial polynomial is q (ascending,
    monic); its one factor has exponent zero, so loading certifies nothing."""
    L = len(q) - 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "seq": {"init": [1] * L, "rec": [-q[L - i] for i in range(1, L + 1)]},
        "factor": [{"c": 1, "e": [0] * L}]}))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["pv", str(path)]) == 0
    doc = json.loads(buf.getvalue())
    assert doc["indicial"] == q
    return _sha(buf.getvalue())


def random_root_digest() -> str:
    """Digest of the `pv_classify` kind, reason and root floats and the
    `dominant_root_certificate` enclosure of the indicial polynomial, over
    300 recurrences of order 1..6 with coefficients in [-4, 4], the last
    nonzero, and init all ones."""
    rng = random.Random(7)
    out = []
    for _ in range(300):
        L = rng.randint(1, 6)
        rec = [rng.randint(-4, 4) for _ in range(L - 1)]
        rec.append(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        seq = CFiniteSeq((1,) * L, tuple(rec))
        res = pv_classify(seq)
        rho = dominant_root_certificate(indicial_poly(seq))
        out.append((res.kind, res.reason, res.roots, rho))
    return _sha(repr(out))


def deadness_log(monkeypatch) -> list:
    """(spec, state, verdict) for every core.is_dead call of the
    DEADNESS_CASES closures, each from a fresh registry."""
    log = []
    is_dead = core.is_dead

    def logging(spec, state):
        log.append((spec, state, is_dead(spec, state)))
        return log[-1][2]

    monkeypatch.setattr(core, "is_dead", logging)
    for name, alpha, limit in DEADNESS_CASES:
        core._cache.cache_clear()
        spec, _ = cli.load_spec_file(str(COOKBOOK / f"{name}.json"))
        try:
            build_system(spec, alpha, limit=limit)
        except LimitExceeded:
            pass
    core._cache.cache_clear()
    return log


def deadness_log_digest(monkeypatch) -> str:
    return _sha(repr([(state.factors, dead) for _, state, dead in deadness_log(monkeypatch)]))


def case_id(case) -> str:
    cmd, spec, alpha, *extra = case
    return " ".join([cmd, spec] + ([f"[{alpha}]"] if alpha else []) + extra)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_output_fingerprint(case):
    assert fingerprint(*case) == EXPECTED[case_id(case)]


@pytest.mark.extended
@pytest.mark.parametrize("case", EXTENDED_CASES, ids=case_id)
def test_heavy_output_fingerprint(case):
    assert fingerprint(*case) == EXPECTED[case_id(case)]


@pytest.mark.parametrize("name", PV_CASES)
def test_pv_fingerprint(name, tmp_path):
    assert pv_fingerprint(PV_CASES[name], tmp_path) == EXPECTED_PV[name]


def test_random_recurrence_root_digest():
    assert random_root_digest() == EXPECTED_RANDOM_ROOTS


def test_deadness_verdict_log_digest(monkeypatch):
    assert deadness_log_digest(monkeypatch) == EXPECTED_DEADNESS_LOG


def test_deadness_verdicts_match_the_spread_scan(monkeypatch):
    log = deadness_log(monkeypatch)
    assert sum(dead for _, _, dead in log) > 1000
    assert [dead for _, _, dead in log] == [
        spread_scan_is_dead(spec, state) for spec, state, _ in log]
    core._cache.cache_clear()


def test_challenge_limit_report_fingerprint():
    assert limit_fingerprint() == EXPECTED_LIMIT


def test_challenge_alpha2_limit_report_fingerprint():
    assert limit_fingerprint(LIMIT_ALPHA2_ARGV) == EXPECTED_LIMIT_ALPHA2
