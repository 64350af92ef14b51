import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weilkit.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_validate_accept(capsys):
    code, doc, _ = invoke(capsys, "validate", "--q", "32", "--poly", "32,-2,1")
    assert code == 0
    assert doc["schema"] == "weilkit/1"
    assert doc["accepted"] is True


def test_validate_reject_exit_2(capsys):
    code, doc, _ = invoke(capsys, "validate", "--q", "2", "--poly", "2,-5,1")
    assert code == 2
    assert doc["accepted"] is False
    assert doc["reason"] == "real-root-outside-bound"


def test_bad_request_exit_1(capsys):
    code, doc, _ = invoke(capsys, "validate", "--q", "12", "--poly", "1,1")
    assert code == 1
    assert "error" in doc
    code, doc, _ = invoke(capsys, "validate", "--q", "4", "--poly", "nope")
    assert code == 1
    # mutually exclusive flags
    code, doc, _ = invoke(
        capsys, "validate", "--q", "4", "--p", "2", "--r", "2", "--poly", "1,1"
    )
    assert code == 1


def test_invariants_document(capsys):
    code, doc, _ = invoke(capsys, "invariants", "--q", "32", "--poly", "32,-2,1")
    assert code == 0
    assert doc["s"] == 5 and doc["dim"] == 5
    assert doc["m"] == 2 and doc["m_reduced"] == 1


def test_enumerate_deterministic(capsys):
    code, doc1, raw1 = invoke(capsys, "enumerate", "--q", "2", "--max-degree", "2")
    code2, doc2, raw2 = invoke(capsys, "enumerate", "--q", "2", "--max-degree", "2")
    assert code == code2 == 0
    assert raw1 == raw2
    assert doc1["count"] == 5


def test_order_and_components(capsys):
    code, doc, _ = invoke(
        capsys, "order", "--q", "3", "--poly", "3,0,1", "--poly", "3,1,1"
    )
    assert code == 0
    assert len(doc["basis_labels"]) == 4
    code, doc, _ = invoke(
        capsys, "components", "--q", "3", "--poly", "3,0,1", "--poly", "3,1,1"
    )
    assert code == 0
    assert doc["count"] == 2


def test_dieudonne_center(capsys):
    code, doc, _ = invoke(
        capsys, "dieudonne-center", "--q", "9", "--poly", "9,0,1", "--precision", "4"
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["center_rank"] == 2


def test_dieudonne_center_precision_too_low(capsys):
    """At k = 2 the commutator matrix's elementary divisors leave less than
    2 digits: one error document and exit 1, not a traceback."""
    code, doc, _ = invoke(
        capsys, "--no-cache", "dieudonne-center", "--q", "9", "--poly", "9,0,1", "--precision", "2"
    )
    assert code == 1
    assert doc == {
        "schema": "weilkit/1",
        "command": "dieudonne-center",
        "error": "precision too low for a conclusive center check",
    }


def test_example_sec9(capsys):
    code, doc, _ = invoke(capsys, "example-sec9", "--p", "3")
    assert code == 0
    assert doc["order_index"] == 81
    assert doc["lattice_classes"] == 2
    assert doc["center_index_in_gaussian"] == 3
    assert doc["fiber_product"] == {"index": 9, "witt_colength": 1}
    assert doc["r_pi_index_in_maximal"] == 3
    code, doc, _ = invoke(capsys, "example-sec9", "--p", "5")
    assert code == 2


def test_example_sec9_rejects_non_prime_p(capsys):
    # 15, 35 and -1 are 3 mod 4 but not prime; 9 is neither
    for p in ("15", "35", "-1", "9", "1"):
        code, doc, _ = invoke(capsys, "example-sec9", "--p=" + p)
        assert code == 1, p
        assert set(doc) == {"schema", "command", "error"}
        assert doc["command"] == "example-sec9"


def test_example_sec9_caps_p(capsys):
    # 1000003 is a prime = 3 mod 4: without the cap the request never returns
    start = time.perf_counter()
    code, doc, _ = invoke(capsys, "example-sec9", "--p", "1000003")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert doc == {
        "schema": "weilkit/1",
        "command": "example-sec9",
        "error": "p must be at most 127",
    }
    code, doc, _ = invoke(capsys, "--no-cache", "example-sec9", "--p", "127")
    assert code == 0
    assert doc["order_index"] == 127 ** 4
    assert doc["fiber_product"] == {"index": 127 ** 2, "witt_colength": 1}


# sha256 of the stdout of `--no-cache example-sec9 --p P`, measured before the
# stable-lattice engine moved to cyclic submodules (p = 19: before the engine
# moved to integer rows and one Hermite core; p = 43: with one cyclic
# submodule per projective point and the p cap lifted)
SEC9_DIGESTS = {
    3: "1d380a9fb932398d30fcd76c09371f1f87c59909c517b6a2a9117cae2758f846",
    7: "8e82e2f1ffe184dbee7d13548782ad6f1a8f6626d15b6fef63b9d6f999cdcc66",
    11: "1cdc8306a07475e54659577476df076869631834f8e84400e15ea586853be453",
    19: "419693b97eaf645c13674081d5769a39b81f8369156579e96f7a12d8e66191de",
    43: "913fca649a81e0322464b74d2a242d90ab4aa7af4343a9ffb35c2e5bc8b3c325",
}


def test_example_sec9_byte_identical(capsys):
    for p, digest in SEC9_DIGESTS.items():
        code, _, raw = invoke(capsys, "--no-cache", "example-sec9", "--p", str(p))
        assert code == 0
        assert hashlib.sha256(raw.encode()).hexdigest() == digest, p


# sha256 of the `--no-cache` stdout of these requests, measured before the
# central orders moved from Fraction elimination to one integer solve
# (`--poly=-3,1` needs the `=`: argparse reads `-3,1` as an option)
ORDER_DIGESTS = {
    ("order", "--q", "3", "--poly", "3,0,1", "--poly", "3,1,1"):
        "823653a69c483ccdc4d1c57795831b77f6993329123bd62a9ebcc292c5025e1f",
    ("components", "--q", "3", "--poly", "3,0,1", "--poly", "3,1,1"):
        "7ad4a13618355f74abbcf7309b2e14a3901903d7912b3e125184ddc284aa333d",
    ("order", "--q", "9", "--poly=-3,1", "--poly", "9,0,1"):
        "1e58c1b39be0cb942d9713d7466b7fc90d0549b2b39a3ed2d8feaca9d72b6f2e",
    ("components", "--q", "9", "--poly=-3,1", "--poly", "9,0,1"):
        "7eee772d56a8d336ef90f76f04e4be7e5767440461c99366e8bd7f173da0a8e3",
    ("dieudonne-center", "--q", "9", "--poly", "9,0,1", "--precision", "5"):
        "333d9476d9b9931ab03711fa13c8be0a3071bbd8d58fa160480d4bbd548e790d",
}


def test_order_requests_byte_identical(capsys):
    for argv, digest in ORDER_DIGESTS.items():
        code, _, raw = invoke(capsys, "--no-cache", *argv)
        assert code == 0
        assert hashlib.sha256(raw.encode()).hexdigest() == digest, argv


# sha256 of the `--no-cache dieudonne-center` stdout of these requests, besides
# the q = 9, k = 5 one above, measured before the center check built its
# commutator matrix block by block and the Witt model lifted Frobenius with
# one inverse: r = 1, 2, 3 and 5, N = 1 (F rewritten), two classes, default
# and explicit precision
CENTER_DIGESTS = {
    ("--q", "32", "--poly", "32,-2,1", "--precision", "4"):
        "23a38255f28337ebbe3983ed0a71c3723f5699259bbd6975499d014edabb3d7e",
    ("--q", "3", "--poly", "3,0,1"):
        "96e7d07d51f63ba373b0a7a1de25b308354b966c66355fd6a5ef19e9a9b2ea86",
    ("--q", "3", "--poly", "3,0,1", "--poly", "3,1,1", "--precision", "3"):
        "2321d21bda6913c6fbaf67bfbb0fa0f9ca747a861ff4f05822a43b8e93badf19",
    ("--q", "9", "--poly=-3,1", "--poly", "9,0,1", "--precision", "3"):
        "756ddd1984e5479c2b4c2e628e8b8c320471414e6f425fee7afeae687c8e47a3",
    ("--q", "4", "--poly=-2,1", "--precision", "4"):
        "dfeb832cce24659d8483b3bc9d4440f1aa85612f3fc68261a85bc8a94c364471",
    ("--q", "2", "--poly", "4,-4,2,-2,1"):
        "4a27ed3f3f341c2a9f32f08aec79a8bc0c8acccc5e9434adce67293f355b9147",
    ("--q", "8", "--poly", "8,0,1", "--precision", "6"):
        "8e851be71af613014148ef918c1d21c1b9b033c3440e010c26f2591e890aac22",
}


def test_dieudonne_center_requests_byte_identical(capsys):
    for argv, digest in CENTER_DIGESTS.items():
        code, _, raw = invoke(capsys, "--no-cache", "dieudonne-center", *argv)
        assert code == 0
        assert hashlib.sha256(raw.encode()).hexdigest() == digest, argv


# sha256 of the `--no-cache enumerate` stdout of the 14 acceptance-grid
# cells, measured before the Sturm tests moved from Fraction remainders to
# one integer remainder sequence, and of (2, 8), measured on the per-node
# Sturm search that the exact-window scan replaced
ENUMERATE_DIGESTS = {
    (2, 2): "346e8daa710ff7b3adb8264206c3b5049353f62a4e7ee6b7d15287012b48aab6",
    (2, 4): "4cb307d64d26ebbac3021ee2d4896003968acfd3220de8adb0631a25d703eced",
    (2, 6): "7b87d1b638ca20c2fd9b3976851e8e1e07b327e56ad09eeba4fade259c8b7a58",
    (2, 8): "b5a73b64da061b04ea9323759ef6cd2400c607d02b49e5aff386af0368d13dd7",
    (3, 2): "51b75efac5cfbc021f72bfb7d08ccd1d41430c4fe991a2c78de2114be0710942",
    (3, 4): "f9890635e316d2fd7546a733f53830097db871d6552d039d305c5315f24305f1",
    (3, 6): "13accff9b18f919b435e1ab6b9481823c19f1113e5fd115a1bc66b924f74343c",
    (4, 2): "e4ff684885429385a9ea1d1c475d581b676d43e3777859e6626146bf56dd833a",
    (4, 4): "14f6bca2a1b74dc2044577f73379f93495a16367998d4c5f7b37aa5f6480ce99",
    (4, 6): "4976f7aad616ecb49d1f68186808635210700d37c99798f8d374f6acff9603ba",
    (9, 2): "52d72b9aca209fdd795c4675e8273e44cdef7274928fa3e31ae1feff4d96c135",
    (9, 4): "a16e05ff7e780a89e4300e16f66645f5c2adff8225de56b5a89a00097e0e6c3a",
    (9, 6): "6678a9bb7aad97e0fb73a8273e7191d94633d6de43a51c7b204f09353f6ff833",
    (32, 2): "203303e225fcf4bd50adb6f54181d050403850ef2a7ba2f91ef9a9554b2db05c",
    (32, 4): "b02497c944ae75640c230e6178fcc563127ad8a15bccde47b18fcdbd2a4183a3",
}


def test_enumerate_grid_byte_identical(capsys):
    for (q, max_degree), digest in ENUMERATE_DIGESTS.items():
        code, _, raw = invoke(capsys, "--no-cache", "enumerate", "--q", str(q), "--max-degree", str(max_degree))
        assert code == 0
        assert hashlib.sha256(raw.encode()).hexdigest() == digest, (q, max_degree)


# sha256 of the `--no-cache invariants` stdout of the 13 classes that take
# the round-2 place route (perfbench/data/round2_classes.json), measured
# before the mod-p and mod-p^N rings moved to `tablering`
ROUND2_INVARIANTS_DIGESTS = {
    (2, "8,-8,2,0,1,-2,1"):
        "c49bcbdf08c629d8ae23041a7a19714dada6806b07158dd41ae2915e5f1d2544",
    (2, "8,-8,6,-6,3,-2,1"):
        "5216e908e22ef8fb85163ca81cd1d1222496058a50021f5ae30b6dcbe43c1ef7",
    (2, "8,-4,0,0,0,-1,1"):
        "acb1c811283aaa0d86dd42342dac0967770cf52f5fff005060fd9ec5d3250c8f",
    (2, "8,0,-2,-2,-1,0,1"):
        "d2f337992780ac9474d031c605cd13c95056e93c83bedfdca5c09cb1664bf244",
    (2, "8,0,-2,2,-1,0,1"):
        "060d71ada04831f1129201cad8276fd04a6097b86b2044c15ddf8b6d8b6d4470",
    (2, "8,4,0,0,0,1,1"):
        "be1f15d167b066decbdac028e525eded83542fd38e3cdc30093229b2b6d7b3c8",
    (2, "8,8,2,0,1,2,1"):
        "eaf36043cf2f58fe683750c43145cfea6d671531c0b6eb7ed5da687291044389",
    (2, "8,8,6,6,3,2,1"):
        "7ccf7072d6621e759a7510f664d0b51d6a650826d28a155e29acb02c9b2906d3",
    (3, "9,0,3,0,1"):
        "504e08f456f8a8221e151cf34218f3edf9c3c91c63dc5f9df94551aec95dd8a1",
    (4, "16,-4,4,-1,1"):
        "3c47d2115485030b9972d3cd8744d0a488e6046685695f1527d7048334e16db8",
    (4, "16,0,-4,0,1"):
        "8c0890e791961625a02556a70be9cd29dfa22bab9611fa0222602acae6ee757a",
    (4, "16,8,1,2,1"):
        "4ffb1d0ee741f34438edb819c0dd3239aab7f6048c96d5983e14a92f367bcaed",
    (9, "81,0,-9,0,1"):
        "dc7180f9ceeb4c581f5dd2d9b06bb165d2da9608d8bc0f480dc8facfc5f66e5c",
}


def test_round2_invariants_byte_identical(capsys):
    for (q, poly), digest in ROUND2_INVARIANTS_DIGESTS.items():
        code, _, raw = invoke(capsys, "--no-cache", "invariants", "--q", str(q), "--poly", poly)
        assert code == 0
        assert hashlib.sha256(raw.encode()).hexdigest() == digest, (q, poly)


def test_large_prime_q_answers_quickly(capsys):
    q = "100000000000000000039"  # prime: trial division would take hours
    start = time.perf_counter()
    code, doc, _ = invoke(capsys, "--no-cache", "validate", "--q", q, "--poly", q + ",0,1")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and doc["accepted"] and doc["q"] == int(q)
    code, doc, _ = invoke(capsys, "--no-cache", "validate", "--q", str(2 ** 89 - 1), "--poly", "1,1")
    assert code == 1 and set(doc) == {"schema", "command", "error"}


def test_enumerate_refuses_a_q_too_large_for_the_degree(tmp_path, capsys):
    # q = 9 up to degree 8 would list 2.4 million trace quartics; enumerate
    # and ingest refuse it at once, with exit 1 and one error document
    path = tmp_path / "classes.csv"
    path.write_text("9,9,0,1\n")
    for argv in (
        ("enumerate", "--q", "9", "--max-degree", "8"),
        ("ingest", "--q", "9", "--path", str(path), "--max-degree", "8"),
    ):
        start = time.perf_counter()
        code, doc, _ = invoke(capsys, "--no-cache", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and set(doc) == {"schema", "command", "error"}, argv
        assert doc["command"] == argv[0]


def test_gamma_witness(capsys):
    code, doc, _ = invoke(capsys, "gamma-witness", "--q", "8")
    assert code == 0
    assert doc["divisor"] == 12
    assert doc["witness_sr"]["s"] == 3
    assert doc["witness_s2"]["s"] == 2


def test_ingest_roundtrip(tmp_path, capsys):
    # the five degree-2 classes for q=2: zero diffs at bound 2
    path = tmp_path / "classes.csv"
    lines = ["2,2,%d,1" % t for t in range(-2, 3)]
    path.write_text("\n".join(lines) + "\n")
    code, doc, _ = invoke(
        capsys, "ingest", "--q", "2", "--path", str(path), "--max-degree", "2"
    )
    assert code == 0
    assert doc["valid"] == 5
    assert doc["rejected"] == []
    assert doc["not_in_enumeration"] == []
    assert doc["missing_from_file"] == []


def test_ingest_rejections(tmp_path, capsys):
    path = tmp_path / "classes.csv"
    path.write_text("2,2,-5,1\ngarbage\n2,2,0,1\n")
    code, doc, _ = invoke(
        capsys, "ingest", "--q", "2", "--path", str(path), "--max-degree", "2"
    )
    assert code == 0  # per-line problems are non-fatal
    reasons = {r["line"]: r["reason"] for r in doc["rejected"]}
    assert reasons[1] == "real-root-outside-bound"
    assert reasons[2] == "malformed"
    assert doc["valid"] == 1


def test_ingest_empty(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, doc, _ = invoke(
        capsys, "ingest", "--q", "2", "--path", str(path), "--max-degree", "2"
    )
    assert code == 0
    assert doc["records"] == 0


def test_ingest_json_format(tmp_path, capsys):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps([{"q": 2, "coefficients": [2, 0, 1]}]))
    code, doc, _ = invoke(
        capsys, "ingest", "--q", "2", "--path", str(path), "--max-degree", "2"
    )
    assert code == 0
    assert doc["valid"] == 1


def test_cache_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEILKIT_CACHE_DIR", str(tmp_path / "cache"))
    code, _, raw1 = invoke(capsys, "enumerate", "--q", "3", "--max-degree", "2")
    assert code == 0
    files = os.listdir(tmp_path / "cache")
    assert len(files) == 1
    # second run hits the cache
    code, _, raw2 = invoke(capsys, "enumerate", "--q", "3", "--max-degree", "2")
    assert raw1 == raw2
    # verification mode recomputes and agrees
    code, _, raw3 = invoke(
        capsys, "--verify-cache", "enumerate", "--q", "3", "--max-degree", "2"
    )
    assert code == 0 and raw3 == raw1
    # corrupt the cache entry: verification must fail
    target = tmp_path / "cache" / files[0]
    target.write_text(raw1.replace('"count": 7', '"count": 8'))
    code, doc, _ = invoke(
        capsys, "--verify-cache", "enumerate", "--q", "3", "--max-degree", "2"
    )
    assert code == 1
    assert "error" in doc


def test_verified_cache_hit_leaves_the_file_untouched(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEILKIT_CACHE_DIR", str(tmp_path / "cache"))
    argv = ("enumerate", "--q", "3", "--max-degree", "2")
    code, _, raw = invoke(capsys, *argv)
    assert code == 0
    (target,) = (tmp_path / "cache").iterdir()
    os.utime(target, ns=(10**9, 10**9))
    before = target.stat()
    code, _, raw2 = invoke(capsys, "--verify-cache", *argv)
    assert code == 0 and raw2 == raw
    after = target.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert target.read_text() == raw


def test_failed_cache_verification_goes_to_the_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEILKIT_CACHE_DIR", str(tmp_path / "cache"))
    argv = ("enumerate", "--q", "3", "--max-degree", "2")
    code, _, raw = invoke(capsys, *argv)
    assert code == 0
    (target,) = (tmp_path / "cache").iterdir()
    target.write_text(raw.replace('"count": 7', '"count": 8'))
    out = tmp_path / "doc.json"
    code = run(["--verify-cache", "--output", str(out), *argv])
    assert code == 1
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc == {"schema": "weilkit/1", "command": "enumerate", "error": "cache verification failed"}


def test_cache_miss_writes_one_whole_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("WEILKIT_CACHE_DIR", str(cache))
    code, _, raw = invoke(capsys, "order", "--q", "3", "--poly", "3,1,1")
    assert code == 0
    (target,) = cache.iterdir()
    assert target.name.endswith(".json") and target.read_text() == raw


def test_cache_write_failing_midway_leaves_nothing(tmp_path, capsys, monkeypatch):
    import weilkit.cli as cli

    cache = tmp_path / "cache"
    monkeypatch.setenv("WEILKIT_CACHE_DIR", str(cache))

    class HalfWrite:
        """A file that takes half the text, then fails as a full disk does."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="No space left"):
        run(["order", "--q", "3", "--poly", "3,1,1"])
    assert list(cache.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_no_cache_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEILKIT_CACHE_DIR", str(tmp_path / "cache"))
    code, _, _ = invoke(capsys, "--no-cache", "enumerate", "--q", "3", "--max-degree", "2")
    assert code == 0
    assert not (tmp_path / "cache").exists()


def test_output_file(tmp_path, capsys):
    out = tmp_path / "doc.json"
    code = run(["--output", str(out), "validate", "--q", "9", "--poly", "9,0,1"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["accepted"] is True


def test_parser_reused_without_leaking_state(capsys, monkeypatch):
    from weilkit.cli import build_parser

    monkeypatch.delenv("WEILKIT_CACHE_DIR", raising=False)
    two = ["order", "--q", "3", "--poly", "3,0,1", "--poly", "3,1,1"]
    one = ["order", "--q", "3", "--poly", "3,0,1"]

    def attempt(argv, fresh):
        if fresh:
            build_parser.cache_clear()
        try:
            code = run(list(argv))
        except SystemExit as e:
            code = ("exit", e.code)
        return code, capsys.readouterr().out

    build_parser.cache_clear()
    sequence = [
        (["validate", "--q", "9", "--poly", "-3,1"], ("exit", 2)),
        (two, 0),
        (one, 0),
        (two, 0),
    ]
    reused = [attempt(argv, fresh=False) for argv, _ in sequence]
    assert [code for code, _ in reused] == [code for _, code in sequence]
    assert reused[0][1] == ""
    assert json.loads(reused[1][1])["basis_labels"] != json.loads(reused[2][1])["basis_labels"]
    assert reused[3] == reused[1]
    fresh = [attempt(argv, fresh=True) for argv, _ in sequence]
    assert fresh == reused


# the order route misreports one root valuation of a pinned round-2 class
WRONG_ORDER_ROUTE = """
import sys
import weilkit.padicorders as po
from weilkit.cli import run
from weilkit.intpoly import IntPolynomial
from weilkit.padic import IrregularPlacesError, decompose_places

honest = po.places_from_order


def wrong(poly, p, r):
    (e, f, v), *rest = honest(poly, p, r)
    return [(e, f, v + 1), *rest]


po.places_from_order = wrong
try:
    decompose_places(IntPolynomial((9, 0, 3, 0, 1)), 3, 1)
except IrregularPlacesError as e:
    print("caught:", e, file=sys.stderr)
else:
    sys.exit("decompose_places accepted a wrong valuation sum")
sys.exit(run(sys.argv[1:]))
"""


def test_place_sum_check_survives_optimized_mode():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("WEILKIT_CACHE_DIR", None)
    argv = ["invariants", "--q", "3", "--poly", "9,0,3,0,1"]
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", WRONG_ORDER_ROUTE, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2, (flags, done.stdout, done.stderr)
        assert "caught: place data failed invariant checks: valuation sum" in done.stderr
        doc = json.loads(done.stdout)
        assert doc["rejected"] is True and doc["reason"] == "irregular"
