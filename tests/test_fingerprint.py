"""Byte fingerprints of the .hjpg output and of the CLI's reports.

Any change to the codec must keep the container bytes identical. The
digests below pin ``compress_bytes`` for small synthetic images in every
entropy mode, with DC differencing off and on; a refactor that changes a
single code length, codebook entry or header byte fails here. The ``bench``
CSV and the ``inspect`` text are pinned too, so a change in how a metric's
floats are summed shows as well.
"""

import hashlib

import pytest

from hjpeg import cli
from hjpeg.codec import CodecConfig, compress_bytes
from hjpeg.image import generate_test_image

MODES = {"scalar": ("scalar", 1), "g4": ("reduced", 4), "g8": ("reduced", 8)}

# (kind, width, height, mode, dc_diff) -> sha256 of the container; seed 1
DIGESTS = {
    ("gradient", 37, 29, "scalar", False):
        "9dd385a46c769383ceb183b33d413692a3b0641b5c6aecdb899909d9612ba2f9",
    ("gradient", 37, 29, "scalar", True):
        "a2bd217c311c8dadf28e044bd3e2d59b16284fdb9fc1078dc2670db8db96750e",
    ("gradient", 37, 29, "g4", False):
        "8eef764c130c3f74c440e9c232a27893c51f722c3868c0860a467dfb9a9bf19a",
    ("gradient", 37, 29, "g4", True):
        "e8cea76941e8d984ba1767fa39bb8f651ecea6f86a366b966019161583a5b7d8",
    ("gradient", 37, 29, "g8", False):
        "276035c1fc4e40dd4f2285d1da3c2ce7efa0f50cb9d7e8012f80d0cb5e2d1949",
    ("gradient", 37, 29, "g8", True):
        "aadc6c4469e8607ae981e089a003236792ef2123a61443b1f464f99864ac90c9",
    ("gradient", 64, 48, "scalar", False):
        "f7e0a8366b6118bc02ad9c3410b6b248530a9235330db145fd11f0131fa000db",
    ("gradient", 64, 48, "scalar", True):
        "48a5ce2925dda694e31dcb9d5951661abcca48549eec4e3edb79529ba6f240d9",
    ("gradient", 64, 48, "g4", False):
        "f6acbdcc33b3169cbc7190ab2171fa6bb7e0f3ca7fb46694bbf8799595f06840",
    ("gradient", 64, 48, "g4", True):
        "cf930cc80e42a3fa9e4b75ff7ba169d3878986db6ff7ef76d5caf5555b836f84",
    ("gradient", 64, 48, "g8", False):
        "6c417186cb91a14bec267282a3ac984cab6b7b481ba0ea4b7fc8a83d78fe9e3d",
    ("gradient", 64, 48, "g8", True):
        "bf66febabe916da1ae640350fa9d10eb1ada89f7f181ed1a28618e59ce0f48d3",
    ("checker", 37, 29, "scalar", False):
        "0b3a98f0ba647e8c50cda2732cb53184c4980c45cf7f6a5c5c2c2eaa24980e15",
    ("checker", 37, 29, "scalar", True):
        "0ea4650ac53574980f2de6946354c725c45d075090a68cb0b61176fc55bd8d3e",
    ("checker", 37, 29, "g4", False):
        "4f4e2a3a1bfd1f88f65c437f18e943e25cd1f65045d6864c622bf2f22819b9cd",
    ("checker", 37, 29, "g4", True):
        "961538069f8c0a5c8983c9d1982bbeb9c798a886c444196d897e335a3d6cbce5",
    ("checker", 37, 29, "g8", False):
        "3ecd0f1617bf746edd0a3b2bdf91d41bebb96600e91e77b725bb65cb1300c9ef",
    ("checker", 37, 29, "g8", True):
        "b798aea1ae781f9b03aad1b95a037c63f5656ad37b7aca145bf98e8b01214fdc",
    ("checker", 64, 48, "scalar", False):
        "1fa92315467273890289e1a9971120ceb3d969c82b772c1fec6cc7d7acbb262f",
    ("checker", 64, 48, "scalar", True):
        "dcfe1d5da48ebbb91899a434c94a17e329d44d2db642ccb09d51f39451ca45f6",
    ("checker", 64, 48, "g4", False):
        "c6d7bdcc7206924a9639d594658c33336e7463a1e87b73a8a1c2e2495f0b96dc",
    ("checker", 64, 48, "g4", True):
        "256f69399aaf8e87e975d583672755d3fb683480a005ea5814d7b06f1d8dafd6",
    ("checker", 64, 48, "g8", False):
        "35cdece2e120406ee62155210b87525068988d62aa4c53f2fdad8fd94696a879",
    ("checker", 64, 48, "g8", True):
        "def9ba5d58079059d752d0422c54d68d01f4704573a519a20d1939f6804316b1",
    ("noise", 37, 29, "scalar", False):
        "f3d7701c2e3eb3adf077361ca0050b1a32ec01568a833f3ff521b7ebdce5de64",
    ("noise", 37, 29, "scalar", True):
        "cd45bb29c1fe20164e0f3a267b810038e3d95728aa986cad85e669c5c78a8bac",
    ("noise", 37, 29, "g4", False):
        "4ff56477f412431e0af5850fa6b2626199f5ae0591fd2f211ba2bc44da9d3d5c",
    ("noise", 37, 29, "g4", True):
        "feabae8c8a392a18b05612613a7aac32fd285989db00e1e2bce5647828078cb4",
    ("noise", 37, 29, "g8", False):
        "dbe0c5db2a6e4b1e1312fb99666b1a80ff42f15379bc013f8d6c03d04efc220f",
    ("noise", 37, 29, "g8", True):
        "c71dcbf71421b7fd2c4359b9b19d8ce73704b7fa7558884e96b2e40ff4ec9946",
    ("noise", 64, 48, "scalar", False):
        "f532dce2d621f262897d260525f4090c46cd3eaa564802b4e824093d95be10f5",
    ("noise", 64, 48, "scalar", True):
        "25cf716a09aa61cd27e61261f66501ca45545142317f8b75796b27e0781b0244",
    ("noise", 64, 48, "g4", False):
        "55ae7a375e9f5235b2e32f2fcc8081ab2cba83cec5d9695eb3de9c16c4d2a919",
    ("noise", 64, 48, "g4", True):
        "d565e1f49a85c606c915774937ce4865c972cf0fcb332ed200b59bd37e550460",
    ("noise", 64, 48, "g8", False):
        "c7a4404e9788bf98d867e219648485eb99f15c6d17a6dcf9a618ff1e76ae6cba",
    ("noise", 64, 48, "g8", True):
        "93c309ce8c75cdb5197fd9f4eac2e61ab8921dbab322faf9c417d20f71007f45",
}


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_container_bytes_unchanged(key):
    kind, width, height, mode, dc_diff = key
    entropy_mode, group_size = MODES[mode]
    img = generate_test_image(kind, width, height, seed=1)
    cfg = CodecConfig(entropy_mode=entropy_mode, group_size=group_size, dc_diff=dc_diff)
    assert hashlib.sha256(compress_bytes(img, cfg)).hexdigest() == DIGESTS[key]


# sha256 of `hjpeg bench` on the synthetic default corpus (group size 4)
BENCH_CSV_DIGEST = "9d797b7eb60c0776d760e9f01316f35ab04cdfd48230e203cc25f559377f40f9"


def test_bench_csv_unchanged(capsys):
    assert cli.main(["bench"]) == cli.EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BENCH_CSV_DIGEST


# `hjpeg inspect` of the 64x48 seed-1 noise image, by mode
INSPECT_TEXT = {
    "scalar": """\
mode: scalar
group_size: 1
dc_diff: 0
original: 64x48
padded: 64x48
pad_count: 0
symbol_count: 3072
payload_bits: 9977
codebook_symbols: 34
code_length[2]: 2
code_length[3]: 1
code_length[4]: 2
code_length[5]: 4
code_length[6]: 4
code_length[7]: 5
code_length[8]: 2
code_length[9]: 5
code_length[10]: 4
code_length[11]: 3
code_length[12]: 2
kraft_sum: 1
""",
    "g4": """\
mode: reduced
group_size: 4
dc_diff: 0
original: 64x48
padded: 64x48
pad_count: 0
symbol_count: 768
payload_bits: 6673
codebook_symbols: 517
code_length[6]: 4
code_length[7]: 23
code_length[8]: 35
code_length[9]: 181
code_length[10]: 274
kraft_sum: 1
""",
}


@pytest.mark.parametrize("mode", sorted(INSPECT_TEXT))
def test_inspect_text_unchanged(mode, tmp_path, capsys):
    entropy_mode, group_size = MODES[mode]
    img = generate_test_image("noise", 64, 48, seed=1)
    packed = tmp_path / "in.hjpg"
    packed.write_bytes(compress_bytes(img, CodecConfig(entropy_mode=entropy_mode,
                                                       group_size=group_size)))
    assert cli.main(["inspect", str(packed)]) == cli.EXIT_OK
    assert capsys.readouterr().out == INSPECT_TEXT[mode]
