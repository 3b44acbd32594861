"""Golden digests of the front end: ingest, Drain and windowing, byte for byte.

Each case runs `read_corpus` and `build_all_windows` on a shipped profile
and pins sha256 digests of the template table and of the train and test
window lists, so any change to how records are built, parsed or windowed
must leave every template, count, window and label as it was.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from flog.config import load_config
from flog.pipeline import build_all_windows, read_corpus

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def sha256_lines(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(("\t".join(map(str, row)) + "\n").encode("utf-8"))
    return h.hexdigest()


def window_rows(ws):
    return ((w.node_id, w.start_time, " ".join(map(str, w.key_ids)), w.label) for w in ws)


def frontend_digests(cfg) -> dict:
    corpus = read_corpus(cfg)
    train, test = build_all_windows(corpus, cfg)
    return {
        "templates": sha256_lines(corpus.parser.export_templates()),
        "train": (len(train), sha256_lines(window_rows(train))),
        "test": (len(test), sha256_lines(window_rows(test))),
    }


# The fixtures hold a few dozen lines, so their windows are short and
# keep single lines, as the pipeline tests' log configs have them.
FIXTURE_WINDOW = {"window_seconds": 60, "step_seconds": 30,
                  "min_logs_per_window": 1, "max_sequence_length": 16}


def profile(tmp_path, name, log=None):
    """configs/<name>.yaml; with a `log`, reading it through FIXTURE_WINDOW."""
    doc = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
    if log is not None:
        doc["dataset"]["path"] = str(log)
        doc["window"] = FIXTURE_WINDOW
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_config(path)


GOLDEN = {
    "thunderbird": (FIXTURES / "thunderbird_small.log", {
        "templates": "509dd6005192b5dbdee0ae9c12336678a24c879dd0e2675de8c424464ff64567",
        "train": (31, "38a239b2f904744fcebea5a9fe72de92b9cc35d3dad517045e38f017a6a21ff2"),
        "test": (7, "141ab1477122549648e00e756cba8af624715d88a3894a2b1eeb6f827ec132cb"),
    }),
    "bgl": (FIXTURES / "bgl_small.log", {
        "templates": "513a4d4aa051cf81f478878357a4d3d9509510eca7e09c6e8d9a074507d55d07",
        "train": (25, "b762ffd3ac0d785b39051d1fe4a5dd1376360ded683e00a004d2d9c6ca72ecf9"),
        "test": (5, "7c974a75a51f7a3cccbff8e115149d09fdea0e9a60580d9236e7db5739dbf5f7"),
    }),
    # configs/synthetic.yaml as shipped: 50,000 generated lines.
    "synthetic": (None, {
        "templates": "950fa6a986c2f72b640cd377efe3a6bd7f7933c7cc2b9e40de43c5fcd17f49e3",
        "train": (10076, "bf32a4144f38915ac778e0fc66bdeffe7eed02e91e11f9f3172ac21b5f33e536"),
        "test": (2515, "4297666c74dbfd63f84650f5e4e9f8e93d20fade81fd686e3194a79e764fe5e3"),
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frontend_digests(name, tmp_path):
    log, expected = GOLDEN[name]
    assert frontend_digests(profile(tmp_path, name, log)) == expected
