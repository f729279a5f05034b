"""Golden bytes of every registered app's ``generate``.

``DATAGEN_VERSION`` is part of every content-based dataset key, so cached
runs stay valid only while ``generate`` keeps producing the same bytes for
the same ``(app, seed, n_bytes)``. These digests enforce that: a change to
a generator that moves one byte must either be undone or bump
``DATAGEN_VERSION`` and record a new digest table under the new version.

A digest covers the mapped and resident arrays (dtype, shape and bytes),
the params and every meta entry whose name does not start with ``_``
(the Mastercard kernels read ``meta["cards"]`` and ``meta["merchants"]``).
The bytes also depend on NumPy's random streams; the table was recorded
with NumPy 2.4.6.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.base import APP_REGISTRY, AppData, get_app
from repro.apps.datagen import DATAGEN_VERSION

KiB = 1024
MiB = 1024 * KiB

#: every app at seeds {0, 7} x {64 KiB, 512 KiB, 1 MiB}, plus the six
#: datasets of the ``sweep_des`` benchmark (16 MiB, seed 14; MasterCard's
#: indexed variant generates the same bytes as the plain one)
RECIPES = [
    (app, seed, n_bytes)
    for app in sorted(APP_REGISTRY)
    for seed in (0, 7)
    for n_bytes in (64 * KiB, 512 * KiB, 1 * MiB)
] + [
    (app, 14, 16 * MiB)
    for app in ("dna", "kmeans", "mastercard", "netflix", "opinion", "wordcount")
]


def dataset_digest(data: AppData) -> str:
    """SHA-256 over everything ``generate`` returns that a run reads."""
    digest = hashlib.sha256()
    groups = {
        "mapped": data.mapped,
        "resident": data.resident,
        "params": data.params,
        "meta": {k: v for k, v in data.meta.items() if not k.startswith("_")},
    }
    for group, entries in groups.items():
        for name in sorted(entries):
            value = entries[name]
            digest.update(f"{group}.{name}\0".encode())
            if isinstance(value, np.ndarray):
                digest.update(repr((value.dtype.descr, value.shape)).encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            else:
                digest.update(repr(value).encode())
    return digest.hexdigest()


GOLDEN = {
    1: {
        ("dna", 0, 64 * KiB): (
            "8b074f15008f2f1c7f1c1239136a00dd31c1e26b6a40aba549cf3a4ff16dfd75"
        ),
        ("dna", 0, 512 * KiB): (
            "cad393a69e233cc8e230195676e5e085659e43f58afcb1df66db87aca0105066"
        ),
        ("dna", 0, 1 * MiB): (
            "3d53705dd1fca33dba37ba44b8387b46bd90339b31463a0e2f9168b766bd32e6"
        ),
        ("dna", 7, 64 * KiB): (
            "36060b71896bd4bc25285d56647136fbf440bbb79f1562488e868f3efefe6ecd"
        ),
        ("dna", 7, 512 * KiB): (
            "43e0ce697840dd1cc1e8993e23e85140320b5d808f88587252ce5ae2e6e3d55a"
        ),
        ("dna", 7, 1 * MiB): (
            "b8e14ce91729b12bfbebf44cf2eb54a5e5e29688e86cc2ba77eebd9616e17704"
        ),
        ("kmeans", 0, 64 * KiB): (
            "f831baaf3d06fd27c69ab5d7d46f8bd22e67108268c18ab87d8d520e0e9c809c"
        ),
        ("kmeans", 0, 512 * KiB): (
            "de3fdcb3bc518ec428d605f8205531df92f5554cb274d98772ec1b251725c3a0"
        ),
        ("kmeans", 0, 1 * MiB): (
            "4e8247ef533dfc48bd66a0db125904273dead3de49a40db73846611323337aa1"
        ),
        ("kmeans", 7, 64 * KiB): (
            "cd8c2547d079140e136f2220bde4b0f7bc668b7a820b23916928555748bafc69"
        ),
        ("kmeans", 7, 512 * KiB): (
            "814b27a965775474d68425efa16cea16d893dbe18e425d170357440309999037"
        ),
        ("kmeans", 7, 1 * MiB): (
            "5b6093d743dff5486a640306fa51145b9a220c4fac8a72f6ac079272f67f3ea0"
        ),
        ("mastercard", 0, 64 * KiB): (
            "c8af7b89344c09b2a7bc3fbf642cd2f64e676f6d5fe0ea4fd1b030aca2cbbd81"
        ),
        ("mastercard", 0, 512 * KiB): (
            "66d7a52e9a997e992129470ec8bcb565fb1adcb46045ba371b14e16d22ad8638"
        ),
        ("mastercard", 0, 1 * MiB): (
            "7090cf43848edfa767771d2257ea8cac06a46527c7e9d5fc3093c70c632bb758"
        ),
        ("mastercard", 7, 64 * KiB): (
            "13f8adac162b10dded285110036843021f7d990092496c72184c89931b408c7c"
        ),
        ("mastercard", 7, 512 * KiB): (
            "f01231bc861882dba3bde6934e97f9b78edeb99ac75ba632e59e0e984e4efc88"
        ),
        ("mastercard", 7, 1 * MiB): (
            "fd56f85adfac1f6cbf4d2d5a0a214546f5975b296ffe39e8365faf582399573c"
        ),
        ("mastercard_indexed", 0, 64 * KiB): (
            "c8af7b89344c09b2a7bc3fbf642cd2f64e676f6d5fe0ea4fd1b030aca2cbbd81"
        ),
        ("mastercard_indexed", 0, 512 * KiB): (
            "66d7a52e9a997e992129470ec8bcb565fb1adcb46045ba371b14e16d22ad8638"
        ),
        ("mastercard_indexed", 0, 1 * MiB): (
            "7090cf43848edfa767771d2257ea8cac06a46527c7e9d5fc3093c70c632bb758"
        ),
        ("mastercard_indexed", 7, 64 * KiB): (
            "13f8adac162b10dded285110036843021f7d990092496c72184c89931b408c7c"
        ),
        ("mastercard_indexed", 7, 512 * KiB): (
            "f01231bc861882dba3bde6934e97f9b78edeb99ac75ba632e59e0e984e4efc88"
        ),
        ("mastercard_indexed", 7, 1 * MiB): (
            "fd56f85adfac1f6cbf4d2d5a0a214546f5975b296ffe39e8365faf582399573c"
        ),
        ("netflix", 0, 64 * KiB): (
            "ef5a97b4a35859ff0b06c6ed04eb95b12e07d145a0c37b638311a7ea16b824a3"
        ),
        ("netflix", 0, 512 * KiB): (
            "fc08f413430cc5d74b215d103d1b7176210d8679a9646b6b876ee3cf468f0c8d"
        ),
        ("netflix", 0, 1 * MiB): (
            "1204befb68871d3772c2fa55448f677cc0ca8da83d65e82d1ddf50ec6f55f242"
        ),
        ("netflix", 7, 64 * KiB): (
            "68c914dfc8043c2b9b260fee886b2ad6152de02c8382478775166375a31f5fda"
        ),
        ("netflix", 7, 512 * KiB): (
            "eed75846782fcb298549f80e7d5e8cd85df3d78ba00c574adb948cbabbdb493f"
        ),
        ("netflix", 7, 1 * MiB): (
            "1ab1e60da1b5e36e8e44ce659871144baaa5c9ee209eb13c7978ec42265ecef5"
        ),
        ("opinion", 0, 64 * KiB): (
            "60dc1be7916eb25638039290ea61ffa31b817e29b25b627746f794181bba1526"
        ),
        ("opinion", 0, 512 * KiB): (
            "230feb6f8a3ed97964abe9b1d1dd86d52c26c42aba00a7057e3bb959eb4bc181"
        ),
        ("opinion", 0, 1 * MiB): (
            "ef7ec78d8c7e5c150bea108e898dd768b9beeb002031e3e9b3f8cf29bbd11494"
        ),
        ("opinion", 7, 64 * KiB): (
            "cee8e7406097daaa385336b57d4c35ac2bc1225905915e8b53cfa2626c7188c6"
        ),
        ("opinion", 7, 512 * KiB): (
            "26dc00094913c9c41d5a80de782d4d3eeda0aba58b3787c43ab3d7144d4dc11e"
        ),
        ("opinion", 7, 1 * MiB): (
            "4ef49150f677df4f6d436e89afd6d89e06d73118274bde94f699178b0ce77c37"
        ),
        ("wordcount", 0, 64 * KiB): (
            "0ba28a7bbb5b6fcf82742c58d736c10e6707cc20a00820b25983ae65fca15962"
        ),
        ("wordcount", 0, 512 * KiB): (
            "3a7507f922cd3b313e13ee41e58195e4185c1e7db92e3e25ac31ed5b67cd1036"
        ),
        ("wordcount", 0, 1 * MiB): (
            "b0552c4b5ef0f57660c423ee42111f2c705b7b229741dc7b033eb27e7032ea10"
        ),
        ("wordcount", 7, 64 * KiB): (
            "f3283b480e242e8764f46099757a2c8eba90342ac5b9e80a60367a2136d837d4"
        ),
        ("wordcount", 7, 512 * KiB): (
            "892ec37cabe414f40f17bca307d164839db6b303289beac2588af5221984dabe"
        ),
        ("wordcount", 7, 1 * MiB): (
            "26ff49f288c1fa1fbc0781ccfcf75e5af3dd5205f65f6893236c30c28c42222b"
        ),
        ("dna", 14, 16 * MiB): (
            "19773a1cb9c3bbe5d632524bb8f3cccad19fed8777b6cf83e640d3efb57efe22"
        ),
        ("kmeans", 14, 16 * MiB): (
            "85fa2d52597e85ce2c8717fd8bb0093c840cb8df0d655d0f949324fbe3aeb5d3"
        ),
        ("mastercard", 14, 16 * MiB): (
            "7ff021fc18445dc7a12efb2cc843bde0013e54748138a1581f08c19222e12883"
        ),
        ("netflix", 14, 16 * MiB): (
            "5c4f224d32236c3fe5df3cc0ef0d1c7e17cab373dd6da8c91a9e3ab3758601d1"
        ),
        ("opinion", 14, 16 * MiB): (
            "a2f053255b7c1743d9b76f80f3c18a3d9346048ad97cea50bb962b30e96c9b32"
        ),
        ("wordcount", 14, 16 * MiB): (
            "a97591fce141ec7df1026968b933e301d078441ddf979c9891ea6aaed8763107"
        ),
    },
}


def test_table_covers_every_recipe():
    assert DATAGEN_VERSION in GOLDEN, (
        f"no golden digests recorded for DATAGEN_VERSION {DATAGEN_VERSION}"
    )
    assert sorted(GOLDEN[DATAGEN_VERSION]) == sorted(RECIPES)


@pytest.mark.parametrize("app,seed,n_bytes", RECIPES)
def test_generate_bytes_pinned(app, seed, n_bytes):
    data = get_app(app).generate(n_bytes=n_bytes, seed=seed)
    assert dataset_digest(data) == GOLDEN[DATAGEN_VERSION][(app, seed, n_bytes)], (
        f"{app}.generate({n_bytes}, seed={seed}) changed its bytes: undo the "
        "change or bump DATAGEN_VERSION and record new digests"
    )
