"""Pinned bytes: program digests and campaign report hashes.

Every catalog program is built for two keys, the 7x11 demo key and
crt_from_rsa(gen_key(8, 2)), and run through a small order-1 campaign
(r_bits=5, exhaustive_threshold=64, samples_per_site=8, default kinds and
seed). The sha256 of each report's JSON and CSV and the digest of each
program are pinned, so a change to how programs are built, dumped, executed or
scored that moves a single byte fails here.

Order 2 and 3 campaigns under all three kinds (max_skip_len 2) are pinned
on both keys too, sampled and whole. There each value site has a zero and a
randomize row, so the order of actions inside a site, which decides the
sampled plans' sort and the whole spaces' enumeration, shows in the bytes.
The whole spaces take one or two values per site to stay small.

The rewrites are pinned on the demo key: every catalog program under six
shapes of to_infective, to_testbased and harden, by digest, or by the
exception class where the rewrite refuses the program.

The builds at the default r_bits=8 are pinned on crt_from_rsa(gen_key(8, 5)),
with blomer also at build_seed=1, since its masking pair is screened at build
time from a seeded draw.

On that key, shamir and vigilant are also run through `crtfi campaign` at
--r-bits 5 and --exhaustive-threshold 8192, on the default messages, and
the sha256 of each report file is pinned. Those are the benchmark's
order1-exhaustive reports. At that threshold many whole-domain read rows
are wider than the ring their reader reduces by, which the thresholds
above never make, so these pins see how an instruction group books its
read lanes from its instruction's outputs.
"""

import hashlib

import pytest

from crtfi.circuit import program_digest
from crtfi.cli import main
from crtfi.countermeasures import build, catalog
from crtfi.faultengine import CampaignSpec, run_campaign
from crtfi.keytools import crt_from_rsa, derive_crt, gen_key, write_key_file
from crtfi.transforms import harden, to_infective, to_testbased

KEYS = {"demo": derive_crt(7, 11, 43), "g82": crt_from_rsa(gen_key(8, 2))}

REPORT_SHA256 = {
    "demo/unprotected": "d94c150d27c5e7a328ad6265f7f3a613a981aca951bbdfdc1127fba71d88f8cf",
    "demo/straightforward": "382639aa11698cabad8d33d3c4f4d246320d886ac4b476bc112690d554d7a7d0",
    "demo/giraud-sketch": "1c09b73e96f5fb0643f3ba939621533e7cae5e6c4745524f86d93d8e984ef7d3",
    "demo/shamir": "dbe121c4ec0e43d512a9fc5e79bfa4c98678c235d5c994d3a8f79fb268c3666b",
    "demo/fixed-shamir": "b87f97ad83b0a4c6e38bb8b46ab06515476dc0d43c13ad1e9c0cf210fb2eb056",
    "demo/joye": "ae834f00f721ebdd1309f47089b149c53c5766ec7e1bda917449841c4707a3ec",
    "demo/ciet-joye": "23ee5edad4602e74df4b6144754804037e6e0839f7ef964474d0ab228b931225",
    "demo/blomer": "98e3c8a23c41e1bd63930f139637727b879b4d02288a8d2d9036da85d49151e0",
    "demo/aumuller": "670a064a9a9330cb73a5c614dc20f5c9f0f9ce9efcc582a5a6fcf23eb19a66fd",
    "demo/aumuller-infective": "ca1e7040dd51dbfce3f25130616c6b8156ee45841d3370ca09079b0a90e8a7df",
    "demo/vigilant": "c98b6605d1ad82bc4122501c589730b3eeb3b98033f373ac2453be784fe09d85",
    "demo/vigilant-simplified-infective": "8daecd9f24d12d9841156db139d3ec515e6d8accc61f23f258be2907236da344",
    "g82/unprotected": "3fba2d8f34fe103bf5c68d7394862bc90b6ec8f2ab60158002320aa67a8dd921",
    "g82/straightforward": "126aded565c714297b9a519aac59d16ae6d330478bb93ae0efe383471ccc9e3f",
    "g82/giraud-sketch": "0c78803d69a44b9c17741041da7d4cd0eb74e7f140851d9b3b68931b719a3136",
    "g82/shamir": "22fca16fce068c8e584cb723bd941111eec965339051aa1f4bcef3399303bbad",
    "g82/fixed-shamir": "75911caccc33c9e892832e7f894dbcec30a0f95a2588488e0253e6ece1e29e46",
    "g82/joye": "edc7062005bec2d36b6e40984fab5903e11d5161188ea018d0ed315633a3c38f",
    "g82/ciet-joye": "63af5b25e15d438234d6b77a17aaf8df38ab8136b2326e67797bb459db6754a2",
    "g82/blomer": "5a0998baedb0ff1f9a885a31cee38efd4e1c32f0f4cdd4a8df17e8143b9d55e2",
    "g82/aumuller": "50a39d0721462982e21e8381a552e6b1efb443b4bc5d4e7e6660e198322b9a4a",
    "g82/aumuller-infective": "08ced6bfe326c1383a5c9f9f72b29a3fa3116ff130585c24e9ce372ecf6924e8",
    "g82/vigilant": "6fbc3746dd7179a1a2842bb1fcb4707a8ba2080e11bcccdb0ffa86cdaff613c3",
    "g82/vigilant-simplified-infective": "0949468df5080281aa510bb42dace00559eb9af4ef82c6d15fe74002b61d47f9",
}

CSV_SHA256 = {
    "demo/unprotected": "f862bdf125f827572c8c57bd942d6de4c6a043959089548f3afd38272528f6ca",
    "demo/straightforward": "b77b08b648478cd60327dac7a14f6d6c957dc462b9abc98b4e6bc1aeee0abcb6",
    "demo/giraud-sketch": "f7d1a6e6ea8fd4d50e4fa02ec966116ce81d89d2449141032e44dcf698f2da48",
    "demo/shamir": "951811af8e80bb93384d6eda1fb0cff048dd15f27177df4bbb86df56ebc0b7ec",
    "demo/fixed-shamir": "93d6903373879356eaae802ad350980799f3c0020c2a949d4b5d41c273c14335",
    "demo/joye": "96c6d26193a555da10d086edf3c5d80f0711a489eb5b4eba5b74b18ee85c6c9a",
    "demo/ciet-joye": "f729d320063e2f1fe77c58b909243e5a6805df99de07ef76792bd4c3ca02aac5",
    "demo/blomer": "2f6733aeeb0fd4bec242e8f98572199a07c60f9d0212f19e0957e29a5da55311",
    "demo/aumuller": "e64d6e1ce61d969dbf47dfca103abe1faeed9520643df3429519a87219bfc644",
    "demo/aumuller-infective": "b0971a9828ca43eac8aedaf2cd425e0403fe3aa429a0caf06f56f9e4d4855493",
    "demo/vigilant": "8d6c5c65d47c48bf9768c135912e4609fcbf6617f97e21c599aedaa791c0ad67",
    "demo/vigilant-simplified-infective": "d32ea4dcf3dc70cc4c9e5cdc80eb408e0617f970dfd6db9e53eb353d9793f112",
    "g82/unprotected": "4988c95bc7e6f03330d817e3096e8c47a84c268591415161fad85c592a8391eb",
    "g82/straightforward": "664077307b2ebfc29dead58e57dfa2f6d2130f5c4c3015da425d39e92347e4ef",
    "g82/giraud-sketch": "29d99baa9544a4127b38357306c756d64c27959e2984e600f7b1bf4f2353b691",
    "g82/shamir": "011f02888c5f61f610476bf9e5f75502b1c00223fd3ff8365bbe7852b6f2b8f5",
    "g82/fixed-shamir": "309b1880fb2e6aaf167eff053a3d4b51a6cbdd2dd971197d1e4095634f5451cf",
    "g82/joye": "98a509c376ee54223ccbd5f9a5fc70e55ee9522d1bc722079f6e5f23033306d5",
    "g82/ciet-joye": "fda3540c3ca181741c6279163a62de59db8c4fa47129a4d84034252bc74db450",
    "g82/blomer": "caae222ffc3d409efe9c0e04bef60e6326b6516e34cee4d1fce8b7a0e6b5f82c",
    "g82/aumuller": "dd0f68fef04e3cacf25337876bce4651078c4ec3e333ec9db41ebe43e4475865",
    "g82/aumuller-infective": "0854ede9fad189d65fe3436ee504115847cabc54486f4e995b5a6c0634ba1e55",
    "g82/vigilant": "b18e22e9caa12b2f9417b1c86412b09e58cf7037d4d30293c000d3411b27dcae",
    "g82/vigilant-simplified-infective": "001bad5acc7ce76e7e2df8a3c5f6739df949704f7672b9a9e341f48c1c5e8b59",
}

PROGRAM_DIGEST = {
    "demo/unprotected": "cf15a37b51da087b",
    "demo/straightforward": "a1fdf351eb2066f3",
    "demo/giraud-sketch": "da346718bb069750",
    "demo/shamir": "a5d7220bb97b1afb",
    "demo/fixed-shamir": "baafb8c12598391c",
    "demo/joye": "ac33f8172ccc2860",
    "demo/ciet-joye": "c1516c4fce7e046b",
    "demo/blomer": "1dd0ae338b8778f4",
    "demo/aumuller": "80429e0ffa735f15",
    "demo/aumuller-infective": "ccf2c419f423d8d5",
    "demo/vigilant": "7db0b9ebe50d2890",
    "demo/vigilant-simplified-infective": "933645d5c2e4ac14",
    "g82/unprotected": "cf15a37b51da087b",
    "g82/straightforward": "a1fdf351eb2066f3",
    "g82/giraud-sketch": "7d24a7648a0d3af0",
    "g82/shamir": "a5d7220bb97b1afb",
    "g82/fixed-shamir": "baafb8c12598391c",
    "g82/joye": "ac33f8172ccc2860",
    "g82/ciet-joye": "c1516c4fce7e046b",
    "g82/blomer": "1dd0ae338b8778f4",
    "g82/aumuller": "80429e0ffa735f15",
    "g82/aumuller-infective": "ccf2c419f423d8d5",
    "g82/vigilant": "7db0b9ebe50d2890",
    "g82/vigilant-simplified-infective": "933645d5c2e4ac14",
}

ALL_KINDS = dict(kinds=("zero", "randomize", "skip"), max_skip_len=2, r_bits=5)
SAMPLED = dict(algo="shamir", exhaustive_threshold=64, samples_per_site=8, plan_limit=200)
WHOLE = dict(algo="unprotected", exhaustive_threshold=2, samples_per_site=1)
HIGHER_ORDER = {
    "sampled-2": dict(SAMPLED, order=2),
    "sampled-3": dict(SAMPLED, order=3),
    "exhaustive-2": dict(WHOLE, order=2, plan_limit=2000),
    "exhaustive-3": dict(WHOLE, order=3, plan_limit=20000, messages=(2,)),
}

# (json sha256, csv sha256)
HIGHER_ORDER_SHA256 = {
    "demo/sampled-2": (
        "66cc90c3d5ec009b8c6dcf080a8ddf1cc7a9e11003f39c8857e3a85d14cdd4fd",
        "823ecaed87220607126131bf3ee70b5913aa458d775734e62a3dfc4adb2570d9",
    ),
    "demo/sampled-3": (
        "db1dc6bf63baef65d39c325e75f923e864f4b17eb24e9c65452535d5561f51cd",
        "d4facae112f25bac901256595ca02dcf5c09112651a0188e491b1133d55ff4d1",
    ),
    "demo/exhaustive-2": (
        "1f515b9b0f2ebc7cb41be5ae0d1e89dc224898c7cc85dcdbed83fdfe15dad2ea",
        "02eeb5575ff5c6bdfc6fafd8d7558ff7236242e8b367119d77f70521f1991080",
    ),
    "demo/exhaustive-3": (
        "e08cb6091bbd014430f2496ae8ba27f53c38af05f6670246f1394634bd7d459d",
        "5c55a43e44d54e1fc5ecabe40da653418edae5e85fbf78b8beec6c672ce9b328",
    ),
    "g82/sampled-2": (
        "99192a1f21952660c138a6e7ccc275a5a6ef10416e161d088c2a10d708de5a3c",
        "1a79a9deea72fccc6ea95f7f81660ca1cc40bd323468d09eb4c9617e383bb914",
    ),
    "g82/sampled-3": (
        "e3c369f2fe6bd43d1292afc777d815c677b24bfa537cbd3de25b280b46d1eed2",
        "98a2767bf832fb57054a69f527cbc079e1e6b63a4fb2b8dad6be714fa57dd86f",
    ),
    "g82/exhaustive-2": (
        "644da7a89a520c6829c37c6bce415b8e366216b5f3c31cb23f3b257218351413",
        "b965217039618142a481fd1a56738c7d2b76d1371431fa36f4912211e68a91a6",
    ),
    "g82/exhaustive-3": (
        "e7eb2c96b517e1ce96586868d58675ffb7db247a729cd577dd7bfb1746028892",
        "efb06e78468278182c3cf2ea8aeaaeba1aba48fad8482edc0c2ae5f6ab77df86",
    ),
}

# derived programs on the demo key: every catalog program under each rewrite
# shape, pinned by digest, or by the exception class name where it is refused
DERIVED_SHAPES = {
    "to_infective({})": to_infective,
    "to_testbased({})": to_testbased,
    "harden({}, 2)": lambda p: harden(p, 2),
    "harden({}, 3)": lambda p: harden(p, 3),
    "harden(to_infective({}), 2)": lambda p: harden(to_infective(p), 2),
    "to_testbased(harden({}, 2))": lambda p: to_testbased(harden(p, 2)),
}

DERIVED_DIGEST = {
    "to_infective(unprotected)": "NotTestBased",
    "to_testbased(unprotected)": "NotInfective",
    "harden(unprotected, 2)": "NoVerifications",
    "harden(unprotected, 3)": "NoVerifications",
    "harden(to_infective(unprotected), 2)": "NotTestBased",
    "to_testbased(harden(unprotected, 2))": "NoVerifications",
    "to_infective(straightforward)": "8cdcad769e1847d4",
    "to_testbased(straightforward)": "NotInfective",
    "harden(straightforward, 2)": "5dfdc46f4146cb7a",
    "harden(straightforward, 3)": "0bc2f220f9fa3ecd",
    "harden(to_infective(straightforward), 2)": "0f3f2587a7815db6",
    "to_testbased(harden(straightforward, 2))": "NotInfective",
    "to_infective(giraud-sketch)": "ab42cda5db2bdc16",
    "to_testbased(giraud-sketch)": "NotInfective",
    "harden(giraud-sketch, 2)": "34d779ffece3aac6",
    "harden(giraud-sketch, 3)": "82fa3be8a1bca2a6",
    "harden(to_infective(giraud-sketch), 2)": "d591e0e0e4c67c68",
    "to_testbased(harden(giraud-sketch, 2))": "NotInfective",
    "to_infective(shamir)": "dc1c479e3f8e4413",
    "to_testbased(shamir)": "NotInfective",
    "harden(shamir, 2)": "b6db50ea704da9c6",
    "harden(shamir, 3)": "e04c09b39e076d79",
    "harden(to_infective(shamir), 2)": "d1925138be9c49e6",
    "to_testbased(harden(shamir, 2))": "NotInfective",
    "to_infective(fixed-shamir)": "cb5937454bcba687",
    "to_testbased(fixed-shamir)": "NotInfective",
    "harden(fixed-shamir, 2)": "962fc399cc2ab41f",
    "harden(fixed-shamir, 3)": "0c209b503394a6f0",
    "harden(to_infective(fixed-shamir), 2)": "69a9708c6aa1eeb4",
    "to_testbased(harden(fixed-shamir, 2))": "NotInfective",
    "to_infective(joye)": "b56982dc64cde1f1",
    "to_testbased(joye)": "NotInfective",
    "harden(joye, 2)": "83cae35671c76215",
    "harden(joye, 3)": "e69317ec93bcb224",
    "harden(to_infective(joye), 2)": "c8f3be15f177ef67",
    "to_testbased(harden(joye, 2))": "NotInfective",
    "to_infective(ciet-joye)": "NotTestBased",
    "to_testbased(ciet-joye)": "UnrecognizedInfectionShape",
    "harden(ciet-joye, 2)": "UnrecognizedInfectionShape",
    "harden(ciet-joye, 3)": "UnrecognizedInfectionShape",
    "harden(to_infective(ciet-joye), 2)": "NotTestBased",
    "to_testbased(harden(ciet-joye, 2))": "UnrecognizedInfectionShape",
    "to_infective(blomer)": "NotTestBased",
    "to_testbased(blomer)": "eff64fd911641dc0",
    "harden(blomer, 2)": "3e819de4f2007167",
    "harden(blomer, 3)": "e0d3b7793a6754b5",
    "harden(to_infective(blomer), 2)": "NotTestBased",
    "to_testbased(harden(blomer, 2))": "fc1f66692b05ab1a",
    "to_infective(aumuller)": "ccf2c419f423d8d5",
    "to_testbased(aumuller)": "NotInfective",
    "harden(aumuller, 2)": "df655543076fb521",
    "harden(aumuller, 3)": "96362778192750ba",
    "harden(to_infective(aumuller), 2)": "98324526155ddef2",
    "to_testbased(harden(aumuller, 2))": "NotInfective",
    "to_infective(aumuller-infective)": "NotTestBased",
    "to_testbased(aumuller-infective)": "80429e0ffa735f15",
    "harden(aumuller-infective, 2)": "98324526155ddef2",
    "harden(aumuller-infective, 3)": "31eb9688c29d0ffc",
    "harden(to_infective(aumuller-infective), 2)": "NotTestBased",
    "to_testbased(harden(aumuller-infective, 2))": "766981c4c454d35d",
    "to_infective(vigilant)": "2895cbcaccd20749",
    "to_testbased(vigilant)": "NotInfective",
    "harden(vigilant, 2)": "f953dfbd2ad04788",
    "harden(vigilant, 3)": "d23c08dcbb74571f",
    "harden(to_infective(vigilant), 2)": "819df8bd0520450a",
    "to_testbased(harden(vigilant, 2))": "NotInfective",
    "to_infective(vigilant-simplified-infective)": "NotTestBased",
    "to_testbased(vigilant-simplified-infective)": "48b5012d70e29def",
    "harden(vigilant-simplified-infective, 2)": "46ccdeac7596012e",
    "harden(vigilant-simplified-infective, 3)": "e11d96257823da91",
    "harden(to_infective(vigilant-simplified-infective), 2)": "NotTestBased",
    "to_testbased(harden(vigilant-simplified-infective, 2))": "d01832354727da7c",
}

WIDE_KEY = crt_from_rsa(gen_key(8, 5))

# default r_bits; "algo@seedN" builds at build_seed=N
WIDE_DIGEST = {
    "unprotected": "cf15a37b51da087b",
    "straightforward": "a1fdf351eb2066f3",
    "giraud-sketch": "23784283da403974",
    "shamir": "dab172ae0a71813c",
    "fixed-shamir": "6649ef6fe4fa8204",
    "joye": "78676a328c2cece0",
    "ciet-joye": "b646d43dbb3f81c1",
    "blomer": "c8cbf9971053ba08",
    "blomer@seed1": "b8b39028683d2534",
    "aumuller": "40afe77c7f97627e",
    "aumuller-infective": "0d7563b81c2cb5ee",
    "vigilant": "1724efea0e5bbe92",
    "vigilant-simplified-infective": "607e45513a9f8d5c",
}

CASES = [f"{k}/{e.algo}" for k in KEYS for e in catalog()]


def _split(case):
    kname, algo = case.split("/")
    return KEYS[kname], algo


def test_the_pins_cover_every_catalog_program_on_both_keys():
    assert sorted(CASES) == sorted(REPORT_SHA256) == sorted(CSV_SHA256) == sorted(PROGRAM_DIGEST)


@pytest.mark.parametrize("case", CASES)
def test_program_digest_is_pinned(case):
    key, algo = _split(case)
    assert program_digest(build(algo, key, r_bits=5)) == PROGRAM_DIGEST[case]


def test_the_wide_pins_cover_every_catalog_program():
    assert {case.partition("@")[0] for case in WIDE_DIGEST} == {e.algo for e in catalog()}


@pytest.mark.parametrize("case", sorted(WIDE_DIGEST))
def test_default_width_program_digest_is_pinned(case):
    algo, _, seed = case.partition("@seed")
    program = build(algo, WIDE_KEY, build_seed=int(seed or 0))
    assert program_digest(program) == WIDE_DIGEST[case]


@pytest.mark.parametrize("case", CASES)
def test_campaign_report_bytes_are_pinned(case):
    key, algo = _split(case)
    spec = CampaignSpec(key=key, algo=algo, r_bits=5, exhaustive_threshold=64, samples_per_site=8)
    report = run_campaign(spec)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256[case]
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == CSV_SHA256[case]


def test_derived_program_digests_are_pinned():
    key = KEYS["demo"]
    got = {}
    for entry in catalog():
        for shape, rewrite in DERIVED_SHAPES.items():
            try:
                p = rewrite(build(entry.algo, key, r_bits=5))
            except ValueError as exc:
                got[shape.format(entry.algo)] = type(exc).__name__
            else:
                got[shape.format(entry.algo)] = program_digest(p)
    assert got == DERIVED_DIGEST


@pytest.mark.parametrize("case", sorted(HIGHER_ORDER_SHA256))
def test_higher_order_all_kinds_report_bytes_are_pinned(case):
    kname, shape = case.split("/")
    spec = CampaignSpec(key=KEYS[kname], **ALL_KINDS, **HIGHER_ORDER[shape])
    report = run_campaign(spec)
    assert report.sampled_plans == shape.startswith("sampled")
    got = (
        hashlib.sha256(report.to_json().encode()).hexdigest(),
        hashlib.sha256(report.to_csv().encode()).hexdigest(),
    )
    assert got == HIGHER_ORDER_SHA256[case]


# the sha256 of `crtfi campaign --algo A --key K --r-bits 5
# --exhaustive-threshold 8192 --out F`'s report file, K holding WIDE_KEY
EXHAUSTIVE_SHA256 = {
    "shamir": "fab345c1bc313c338aa975120b73ca4721bbeff357f93f8609ecb09220128f59",
    "vigilant": "e289f5fcae595fb60ee7de233a4eecbc62c9d5207d55ba6272e149abe2a36cee",
}


@pytest.mark.parametrize("algo", sorted(EXHAUSTIVE_SHA256))
def test_exhaustive_campaign_report_files_are_pinned(algo, tmp_path, capsys):
    key_file, out = tmp_path / "key.json", tmp_path / f"{algo}.json"
    write_key_file(WIDE_KEY, key_file)
    argv = ["campaign", "--algo", algo, "--key", str(key_file), "--r-bits", "5",
            "--exhaustive-threshold", "8192", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXHAUSTIVE_SHA256[algo]
