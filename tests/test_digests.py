"""The CLI outputs of three small calls keep their bits.

A refactor of the step solver keeps every output byte-identical.  Each call
here writes its outputs at n = 9, and the SHA-256 digest of every file must
equal the one recorded when the test was written (numpy 2.4.6, scipy
1.17.1).  Another numpy, scipy or BLAS may round differently; then the
digests are recorded again from a tree whose outputs are known good.
"""

import hashlib

import pytest

from chbs.cli import main


def _config(graph, graph_keys, t_end, seed):
    return (f"[mesh]\nn = 9\n\n"
            f"[scheme]\neps = 0.02\ntau = 0.001\nt_end = {t_end}\n\n"
            f"[graphs]\nbulk = {graph}\nboundary = {graph}\n{graph_keys}\n"
            f"[init]\npreset = random\namplitude = 0.2\nseed = {seed}\n\n"
            f"[output]\nstride = 5\n")


# (command, config texts, exit code, {file name: SHA-256 of its bytes})
CALLS = {
    "cubic-run": (
        "run", [_config("polynomial", "pi_slope = -40.0\n", 0.02, 3)], 0, {
            "monitors.csv": "a264c1aa59d7c520c47d213d5b60f95a7686bb343fc595a5d861ab434a714a32",
            "report.csv": "46954564809d9f3c26c6c20aaef8c62e3a9483b435c74c88265cc6771df9e571",
            "report.txt": "bf440312e5d524c91a8ec0a04692a361677387a5914bb876bae183e4e47a274f",
            "snapshot_0.csv": "229911c3b390e56f03ffc5c20fdf1e09d231eef1b48176c22a17f365eed91c1c",
            "snapshot_10.csv": "169e9a5aeaf8d361b2665e67976f172fc47fc27f6bf0736510f6944dedacf5fb",
            "snapshot_15.csv": "1ef25ae8c35e1bd01c7ca2b2d0745a36f17b8c31ac4d0be4bd044752ab59946e",
            "snapshot_20.csv": "2ca96badc4c9a2ff37e23d69e251c0b62cb59f3bd88d30bac39b8b40ca81a918",
            "snapshot_5.csv": "2223219b0f6d0a2ea3c6fc55180e815e4f9822154832090c901df2a56c20f8d4",
        }),
    "obstacle-run": (
        "run", [_config("obstacle", "pi_slope = -40.0\n", 0.02, 3)], 0, {
            "monitors.csv": "fd44a0e7664796e7a1dabd58a24c4da93ce82df068f0eb868cced4bbf3138ba9",
            "report.csv": "4ad36e942e433084f663651fe682691cd5a0a8c863c1221f9e2950ac7c22b4b3",
            "report.txt": "5c743ca25bd33c448d5955d6c81df129943e730c72880144204fd0016d6741cf",
            "snapshot_0.csv": "7bf930ef55b791aa211617bb4792fe361f48bfc3a8a761ff6774afc93d6fbd77",
            "snapshot_10.csv": "a085c1bbe72923d61a3c7eb530a6fb6f7aa5079e0a05a2e76bd013e8678cf33b",
            "snapshot_15.csv": "cb0e76a666f4296eee34d9d40912964c62eecbe689ec62f5d155b98e8fa7a827",
            "snapshot_20.csv": "dd13cfc77c2e897bcec4b5e685f697883640029171abeef96416c145a79688ee",
            "snapshot_5.csv": "1911c611627f53ad6ade74cda53cad26104ee019854a775586a6663918d91ed6",
        }),
    "logarithmic-cont-dep": (
        "cont-dep", [_config("logarithmic", "log_c = 20.0\n", 0.01, seed) for seed in (3, 4)],
        0, {
            "report.csv": "38fc3041d57ae40005c838265d0c9e53bda7c5525e6988055bb2671323952c77",
            "report.txt": "9695a82736377f431723498cfd9ce986497dc8bd05fd0e127719fc33a0f6cf65",
        }),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_cli_outputs_keep_their_digests(tmp_path, name):
    command, texts, code, digests = CALLS[name]
    argv = [command]
    for k, text in enumerate(texts):
        path = tmp_path / f"input_{k}.cfg"
        path.write_text(text)
        argv += ["--config", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--quiet"]) == code
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.iterdir())}
    assert got == digests
