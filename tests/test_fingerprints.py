"""Output fingerprints: the sha256 of the canonical JSON stdout of the CLI.

`--format json` output is the machine contract and must stay byte-identical
across refactors.  The `ideals`, `spectrum`, `serre` and `support` hashes
were recorded from the implementation that built one quotient lattice per
ideal, before the submodule lattice became a breadth-first search and
quotients were read from the colon table, so a change to any reported
ideal, atom, support, open set, generator or edge shows up here.  The
`check` hashes were recorded from the implementation that built modules
with nested Python loops and decided xR = R/Ann(x) by an isomorphism
search, before the numpy builders and the canonical-map check.  The
`ass` and `filtration` hashes of the regular module were recorded from
the implementation that read associated atoms off the distinct
annihilators of M and comonoform ideals off the regular module's colon
table, before one socle test decided both.
"""

import contextlib
import hashlib
import io

import pytest

from atomspec import cli

FIVE_FIELDS = "prod:" + ",".join(["zmod:2"] * 5)

FINGERPRINTS = {
    ("ideals", "zmod:12"):
        "7d70cbb4c35f31c37f6723d99233038098952e55e6d3205e4eaeb4f7ef688592",
    ("spectrum", "zmod:12"):
        "633cdf6da3a945aae756bc6f7b0ffe675d578d91abe95a14bac00c0a4600ff89",
    ("serre", "zmod:12"):
        "a1d752d6ce80e56a8fe82f6754120eb8d11c5e8e023d2e135637d6816f82166d",
    ("support", "zmod:12"):
        "c8179b0dc8260c9f079c27c1c491fd6e02109d53088e58bd90abafa91363ad50",
    ("ideals", "zmod:60"):
        "c8c8a449b301f1826abd286f3954d4f57005e6507b6683857af2f5e6b1ecd4fd",
    ("spectrum", "zmod:60"):
        "e34313bf6d91e18bb08e5c38d97fd2608e0f5f79f243e6dac429df030ab6c082",
    ("serre", "zmod:60"):
        "cd62d2862e5584faa5182806fd2069c8e7932f072c2e56587bd66258b57b3c94",
    ("support", "zmod:60"):
        "dc207002b73fc8bd8f4836f126ba40c3080ed9959e63bee6d4b84f8d2c45f23a",
    ("ideals", "tri2:3"):
        "18e496ca283d4cd8eedce734adc5fa7967b59b3eed2582fb234be347daa06bfc",
    ("spectrum", "tri2:3"):
        "51e953cadd2f77ab08a080068104d64049a7bc85399e716008eafc71e5812aca",
    ("serre", "tri2:3"):
        "1c61936a92614c31490f494ec16ef0267fd67d90292cd01fef94d522a0191b65",
    ("support", "tri2:3"):
        "7ebd394ee7f8b408523546503d481e4fdf54f67dc5daedc5fc285425b5adb60f",
    ("ideals", "mat:2:2"):
        "b2f33415a489591e3837af66ad514bd091953f39c310e3da846b6149926528b1",
    ("spectrum", "mat:2:2"):
        "d93f4636317c24dba687e399b537c595c22537fb61f13a255fa51abf35968d7f",
    ("serre", "mat:2:2"):
        "060a585e8a6a4cb640eb41739c4feaeecfa2fcbf4994895db6b0d93c71d049c5",
    ("support", "mat:2:2"):
        "94374e5004e6cfc3cd85e29096e9e34f0b8f24728cc75bb59121dae4707de6f8",
    ("ideals", FIVE_FIELDS):
        "2464e5f3c49d959ba6de227db326033a60655c4cd7b4effb90477ccd3ab89345",
    ("spectrum", FIVE_FIELDS):
        "308826a7fb313d60fc988688c1db461d38fb4fcdfbdabfd8ced162fccf02a63c",
    ("serre", FIVE_FIELDS):
        "0b742bf045a17a5d72ae28dd34591116d7bab3a46fd8dd0e2be2c30a441575fe",
    ("support", FIVE_FIELDS):
        "5d2bdaa667c3b0dbb435a25faa5deba2cab2e1b7edb8a6715b9e133fe75d334a",
    ("ideals", "prod:tri2:2,zmod:6"):
        "9dfed8cd9f255763fa1b1dabf5a83fb4c430df770b5233d1fecfb2abd53a6b54",
    ("spectrum", "prod:tri2:2,zmod:6"):
        "667a230fa4a0156b0ff5f7eb6c7dfbf606c823cc9c831cf82831fc39f2298df4",
    ("serre", "prod:tri2:2,zmod:6"):
        "83540eff557121804f854437678bf1c45ac77eaaafbedb985ebeff39cc46ad74",
    ("support", "prod:tri2:2,zmod:6"):
        "b10ab104ca42178705202168ce9e6db0fdaa568828f4dfd30a4f653c404ca5d4",
    ("check", "zmod:12"):
        "31a40af79055e4e4c5f1584c95209848b045fd8c490d14bdd4ca964da7c05379",
    ("check", "zmod:60"):
        "bc965041bcb37079f1d255d7d8224d291c98b7b98fa7304b31866483dfa63ca3",
    ("check", "tri2:3"):
        "17d500f03bbb0adfc7157082a0ba49cb06ba72bdd0b996e1ce3e5a9ced1088d0",
    ("check", "mat:2:2"):
        "6a4cb5e6d32039ff25c5c6039d0ca5824169d076fb4f4b104fc163f36da829f6",
    ("check", "prod:tri2:2,zmod:6"):
        "70361081f8f82b28e96cb75c4054dafde4e902904816354ce0046e9540b66d08",
    ("ass", "zmod:12"):
        "8334b36dfe189e589efd6bf12923ff09f461a395ff8fb5a7fae845fe4d5aba0c",
    ("filtration", "zmod:12"):
        "8094f61b0942d5667dae0811b0c8383951433bd0da5f3405d98be9f2e2a85d42",
    ("ass", "zmod:60"):
        "a14213ea52e31b65c4ebb942b4dad13b235ba9664ce7ea5abe76a6450578e40a",
    ("filtration", "zmod:60"):
        "16a3c5f05ec8f54fddf1731d3375145ac275d84259eb4bdaea98685bb30631ba",
    ("ass", "tri2:3"):
        "362609cbb83d9880de52dfb2b84cf19cde32d41dff6bcf4e02e886a07d10e3ea",
    ("filtration", "tri2:3"):
        "714e7ba52eabfd72c491f854c3d742143dc4961c9a99cdfaf40333cbea6a32b0",
    ("ass", "mat:2:2"):
        "49611dbeb317a6c9715a57a56443bd7cc3557bac583ecff33f4be6c8ca58dfdb",
    ("filtration", "mat:2:2"):
        "b30b7576cb8409efc30cddccb359349ff22c932053e64ebcd8f22d6fb990a079",
    ("ass", FIVE_FIELDS):
        "56defcc49ef2dc6ecff3cb124015e2dbd7a885edb1d6b8e967dbb53991b8e12d",
    ("filtration", FIVE_FIELDS):
        "4c4262fbaa6776088baafd211a6876fe06c54e962a1ed68bc740793f7d6cb815",
    ("ass", "prod:tri2:2,zmod:6"):
        "8566f13f0c423020438bcca99d1e485af00493c35a47a6c28731e7c79cbe839d",
    ("filtration", "prod:tri2:2,zmod:6"):
        "529677312686fc48b5b1107acb80d1a3dc35ecb1feeb4a3473c002388d0c3b07",
}


def _argv(verb, ring):
    argv = [verb, "--ring", ring, "--format", "json"]
    if verb in ("support", "ass", "filtration"):
        argv += ["--module", "regular"]
    return argv


@pytest.mark.parametrize("verb, ring", sorted(FINGERPRINTS))
def test_json_output_fingerprint(verb, ring):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, _ = cli.run(_argv(verb, ring))
    assert code == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == FINGERPRINTS[verb, ring]
