"""Golden --json digests: the sha256 of the exact bytes that `analyze
--nonmodular-check`, `compare` and `reps` print with --json for every group
of the regression suite, and that `deform --json` prints at p = 3 and 5.

Refactors of the formula, oracle and rewriting layers must leave these
bytes unchanged; a digest changes only with a deliberate change of output,
and then it is re-recorded here in the same commit.
"""

import hashlib
import json

import pytest

from skewcoh.cli import EXIT_PASS, main

from conftest import SUITE

COMMANDS = (["analyze", "--nonmodular-check"], ["compare"], ["reps"])

# suite name -> digests of (analyze --nonmodular-check, compare, reps) --json
SUITE_DIGESTS = {
    "companion8_f3": (
        "003807cce2f4ad1d02c54e9e030ce2631c79ad563c6ee34b6185ceb2b3173548",
        "b15c304c8048a1b6859d599a8ad6c70a1a76bdd6603ff9e4d40063f3248e2053",
        "8b5ae187940db57f1b8d4e8b976988d9d71b8446fa6cbb798b6477d9e9ff84d2",
    ),
    "diag_1_m1_f5": (
        "71dc04c608ebcbe8342b0585f27ed78db84e02f8d259ffb8959ca1027ae577c0",
        "0dbdc22a87070ec407b87a9cd4f25eac356ab82e561a363dcd0d9328b3db7696",
        "09c6725d81c309f629ff74fdc1146f300b7d2df09a71e710357e37b810792343",
    ),
    "diag_2_3_4_f5": (
        "784f4fd8cca84416744369546094b8433bee067be00f8f8f6d5fcd0c2ea72037",
        "cd2540f2631e8758422a37887ab40c24e361ef9f7b29a52af5842282c5a1037b",
        "5609d934fc7dba6d72569f875309b45457fe06c7768f106c0852364cdb27b0ec",
    ),
    "diag_2_3_f5": (
        "5a4d74ad522f00b94b1762ba5e23ab6a8da0e9f3a147dff866025b3c460a0861",
        "4af940e57a45d3d4f1bbb624e63464077f544e4ef944e3e4d2e6258b150d7f0d",
        "79de675cc078989a97d1721d374f679783ee399a9f1bf96c0043ae7641f20d9a",
    ),
    "jordan3_refl_f3": (
        "bdf2487761047fb0ca1ccf0979544158862050fe205ff1e12b15311bb43c87d9",
        "f9e90d854db58fdb6c98e5c265027a089ccef2cc92caa8f142b4cce522f0b699",
        "1362a7d97480b7f2228f8d737eae8da7a17a814dfe6e33dd138acade739dddd4",
    ),
    "jordan4_refl_f3": (
        "e137417f26e45cb807a0fa51b46a0f5cd33461a01e7c676197d80c901dd076f3",
        "1421abe117efa2d317cb7d9f1d5baccd81e1623bb5e459ae8a667d7ac0d37c2e",
        "a155842dbe63950fccb79af515a9fad8cf7a701b89639c1b4ab4111165fc81e4",
    ),
    "rot4_f5": (
        "5a4d74ad522f00b94b1762ba5e23ab6a8da0e9f3a147dff866025b3c460a0861",
        "4af940e57a45d3d4f1bbb624e63464077f544e4ef944e3e4d2e6258b150d7f0d",
        "79de675cc078989a97d1721d374f679783ee399a9f1bf96c0043ae7641f20d9a",
    ),
    "rot4_q": (
        "1599e7f522af4e998502e0fbabcf62567d98b63d692b914486db9fe605b0eda8",
        "eee36df80e96d425cde718deacb4afba6176568b9e31119e24c335fddfc27c4a",
        "a917b3aa36d474a93e415822173af819c9aaca51902717506cbf5df41fb23bf8",
    ),
    "transvection_f3": (
        "1296de27404c5fa37366097b90c8f98c1e70166982b4ab667a6bb4221c753e06",
        "ab9a545d51d882bc81ea2634327898038828660487e048d723d17ce8dbbcc6c1",
        "ccb95c9300f5d620b04735dbc5075508a949a1078fca9745fbd36c0908c956b0",
    ),
    "transvection_f5": (
        "a7f0cbdce973720f35c5abe9db628a9ede232a7e0cc0efd02622e3cb9e459429",
        "d42fb0f9cf077d2f5d4c88ee05fc39220ae06065a7c64f6f632eb3f345eb7bb6",
        "0ac4cb0cddb0e85a65e9122d07ea271982db430d5aa719ada8913db58eafbf28",
    ),
    "transvection_f7": (
        "34a6551369b9886367b442a697603473ac58d9938d7a5c7e00e340951a258e23",
        "e909085ce497e00c6b0692c7908cee9c893ba3d90636ee5f1146214276780ce8",
        "63e27337ebf66ac8ecfeaeaf796d2fdce64c26bbc8665bec52640a9990125b29",
    ),
    "trivial_n1_q": (
        "93acd22927cb943f35571f0bc58d6c32da45cfb41f7c420f8dcdd61ce958cfd1",
        "8d1b06b0d474f248f6c9c1f791d306897b8d5ec66ea8ca4a4f1c9db19d494a2e",
        "a10710853ae1a3282937fc917fd5fb5c343c6cbe19533f408da4f7d49de50304",
    ),
    "trivial_n2_f3": (
        "1dd2b39ac40b35410bda7f9bc9e1d1ebb27ed81920a4784575de5a8c4d0d5f92",
        "7f84d26c528f5dc0cb3532c1d88244f352fa0608349db760983ddd4b3157636d",
        "43d71d54d7fb3b5ef97cd42d04ec8d7223873c6735692484d7f4a99394ae5595",
    ),
    "trivial_n3_q": (
        "488858aff34bcd28506d6ab261cfc3b106e974ddac2cabe621a89e47b0b680b6",
        "e19c77ef5b71a252aa2ed840cdaf758cb3b90c375f50e2bb285830157c5d63b6",
        "7b2212f158023291c8cdac90c43ee766e0a1ccfffbe7812b059e474c739a85f7",
    ),
}

# p -> digest of deform --json --deform-prime p
DEFORM_DIGESTS = {
    3: "db08acb2568ba5516ab3abfdd3519b86e54883466d3828e5597aa9abeddf0853",
    5: "70bcdde1287a8b1b7ba43e4a298c54ebf51a3d81430f13f3930e4faea6ce9cf1",
}


def _digest(argv, capsys):
    assert main(argv) == EXIT_PASS
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_digests_cover_the_suite():
    assert set(SUITE_DIGESTS) == set(SUITE)


@pytest.mark.parametrize("name", sorted(SUITE))
@pytest.mark.parametrize("k", range(len(COMMANDS)), ids=[c[0] for c in COMMANDS])
def test_suite_json_is_golden(name, k, tmp_path, capsys):
    field, rows = SUITE[name][0], SUITE[name][1]
    spec = {"type": "rational"} if field.char == 0 else {"type": "prime", "p": field.char}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": spec, "generator": rows}))
    assert _digest(COMMANDS[k] + ["--json", str(path)], capsys) == SUITE_DIGESTS[name][k]


@pytest.mark.parametrize("p", sorted(DEFORM_DIGESTS))
def test_deform_json_is_golden(p, capsys):
    assert _digest(["deform", "--json", "--deform-prime", str(p)], capsys) == DEFORM_DIGESTS[p]
