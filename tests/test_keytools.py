"""Key generation and CRT recovery.

The recovery path is checked against the inverse-of-e oracle: the recovered
exponent must be e^-1 in Z_lambda, computed independently via pow(e, -1).
"""

import json
from dataclasses import replace

import pytest

from crtfi.keytools import (
    CrtKey,
    KeyError_,
    MissingKeyField,
    check_crt_key,
    coprime_split,
    crt_from_rsa,
    derive_crt,
    gen_key,
    read_key_file,
    recover_d,
    recover_e,
    write_key_file,
)
from crtfi.modmath import DomainError, is_prime, mod_exp

# ---------------------------------------------------------------- generation


def test_four_bit_primes_come_from_the_only_pair():
    for seed in range(6):
        key = gen_key(4, seed)
        assert {key.p, key.q} == {11, 13}
        assert (key.e * key.d) % key.lam == 1


def test_generated_primes_are_distinct_and_prime():
    for seed in range(8):
        key = gen_key(8, seed)
        assert key.p != key.q
        assert is_prime(key.p) and is_prime(key.q)
        assert key.n == key.p * key.q
        assert (key.e * key.d) % key.lam == 1


def test_same_seed_reproduces_the_key():
    assert gen_key(8, 5) == gen_key(8, 5)
    assert gen_key(8, 5) != gen_key(8, 6)


def test_prime_widths_outside_three_to_sixty_four_bits_are_refused():
    # the only 2-bit primes, 2 and 3, give N = 6, where dp = 0 and no
    # default campaign message is a unit
    for bits in (1, 2, 65):
        with pytest.raises(DomainError, match=r"prime_bits must be in \[3, 64\]"):
            gen_key(bits, 0)
    for seed in range(4):
        assert {gen_key(3, seed).p, gen_key(3, seed).q} == {5, 7}


# ---------------------------------------------------------------- derivation


def test_tiny_key_crt_tuple():
    key = derive_crt(7, 11, 43)
    assert (key.dp, key.dq, key.iq) == (1, 3, 2)


def test_three_by_five_crt_tuple():
    key = derive_crt(3, 5, 3)
    assert (key.dp, key.dq, key.iq) == (1, 3, 2)


def test_exponent_divisible_by_both_totients():
    key = derive_crt(7, 11, 60)
    assert key.dp == 0 and key.dq == 0


# ------------------------------------------------------------- coprime_split


def test_split_folds_residual_into_second_part():
    assert coprime_split(3, 5, 2) == (3, 10)


def test_split_absorbs_shared_factor():
    assert coprime_split(1, 2, 2) == (1, 4)


def test_split_without_common_factor_is_identity():
    assert coprime_split(3, 5, 1) == (3, 5)


def test_split_parts_stay_coprime_and_cover_lambda():
    import math

    primes = [n for n in range(3, 64) if is_prime(n)]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            g = math.gcd(p - 1, q - 1)
            lam = (p - 1) * (q - 1) // g
            p2, q2 = coprime_split((p - 1) // g, (q - 1) // g, g)
            assert math.gcd(p2, q2) == 1
            assert p2 * q2 == lam
            assert p2 % ((p - 1) // g) == 0
            assert q2 % ((q - 1) // g) == 0


# ------------------------------------------------------------------ recovery


def test_tiny_trace_recovers_thirteen():
    key = derive_crt(7, 11, 43)
    lam = key.lam
    assert lam == 30
    assert pow(7, -1, 30) == 13
    assert recover_d(key) == 13
    assert recover_e(key) == 7


def test_three_by_five_recovery():
    key = derive_crt(3, 5, 3)
    assert key.lam == 4
    assert recover_d(key) == 3
    assert recover_e(key) == 3


def test_small_private_exponent_is_a_fixed_point():
    key = derive_crt(7, 11, 13)
    assert recover_d(key) == 13


def test_hundred_seeded_keys_recover_the_inverse_of_e():
    for seed in range(100):
        key = crt_from_rsa(gen_key(8, seed))
        d = recover_d(key)
        lam = key.lam
        assert 0 <= d < lam
        assert d == pow(key.e, -1, lam)
        assert recover_e(key) == key.e


def test_signature_verify_round_trip_exhaustive():
    key = gen_key(4, 1)
    assert key.n < 1000
    for m in range(key.n):
        assert mod_exp(mod_exp(m, key.d, key.n), key.e, key.n) == m


# ------------------------------------------------------------------ key file


def test_key_file_round_trip(tmp_path):
    key = crt_from_rsa(gen_key(8, 3))
    path = tmp_path / "k.json"
    write_key_file(key, path)
    assert read_key_file(path) == key


def test_key_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "k.json"
    write_key_file(crt_from_rsa(gen_key(8, 5)), path)
    assert path.read_text() == (
        '{\n  "p": "193",\n  "q": "191",\n  "dp": "55",\n  "dq": "163",\n  "iq": "96",\n'
        '  "e": "7",\n  "d": "10423",\n  "N": "36863"\n}\n'
    )
    write_key_file(CrtKey(p=7, q=11, dp=1, dq=3, iq=2), path)
    assert path.read_text() == (
        '{\n  "p": "7",\n  "q": "11",\n  "dp": "1",\n  "dq": "3",\n  "iq": "2",\n  "N": "77"\n}\n'
    )
    assert read_key_file(path) == CrtKey(p=7, q=11, dp=1, dq=3, iq=2, n=77)


def test_key_file_missing_field_rejected(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"p": "7", "q": "11", "dp": "1", "dq": "3"}))
    with pytest.raises(MissingKeyField):
        read_key_file(path)


def test_key_file_junk_rejected(tmp_path):
    path = tmp_path / "k.json"
    path.write_text("not a key")
    with pytest.raises(KeyError_):
        read_key_file(path)


def test_optional_fields_survive_omission(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"p": "7", "q": "11", "dp": "1", "dq": "3", "iq": "2"}))
    key = read_key_file(path)
    assert key == CrtKey(p=7, q=11, dp=1, dq=3, iq=2)
    assert key.d is None and key.e is None
    assert key.modulus == 77


def test_a_key_that_no_private_exponent_fits_is_refused(tmp_path):
    # recover_d fits d = 23 to the first, yet 23 = 5 mod 6; units 1 and 5 differ mod 6
    bad = (
        (CrtKey(p=7, q=11, dp=2, dq=3, iq=2), "dp=2 is not a unit mod 6"),
        (CrtKey(p=7, q=11, dp=1, dq=4, iq=2), "dq=4 is not a unit mod 10"),
        (CrtKey(p=7, q=13, dp=1, dq=5, iq=6), "dp=1 and dq=5 differ mod gcd\\(p-1, q-1\\)=6"),
    )
    for k, (key, why) in enumerate(bad):
        with pytest.raises(KeyError_, match=why):
            check_crt_key(key)
        path = tmp_path / f"unfit-{k}.json"
        write_key_file(key, path)
        with pytest.raises(KeyError_, match=why):
            read_key_file(path)
    check_crt_key(derive_crt(2, 5, 3))  # dp = 0 for p = 2 fits every d


def test_a_key_whose_modulus_or_public_exponent_disagrees_is_refused(tmp_path):
    good = CrtKey(p=7, q=11, dp=1, dq=3, iq=2, d=43, e=7, n=77)
    check_crt_key(good)
    bad = (
        (replace(good, e=5), "e=5 is not the inverse of dp=1 mod 6"),  # 5*1 = 5 mod 6
        (replace(good, d=None, e=13), "e=13 is not the inverse of dq=3 mod 10"),  # 13*1 = 1 mod 6
        (replace(good, n=1000), "N=1000 is not p\\*q=77"),
    )
    for k, (key, why) in enumerate(bad):
        with pytest.raises(KeyError_, match=why):
            check_crt_key(key)
        path = tmp_path / f"bad-{k}.json"
        write_key_file(key, path)
        with pytest.raises(KeyError_, match=why):
            read_key_file(path)
