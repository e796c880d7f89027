"""The pipeline imports no numpy submodule that it does not need.

`numpy.ma` costs about 1.7 MB of resident memory once imported, and
`np.unique` (among others) imports it. A fresh interpreter runs
generate -> featurize -> train -> evaluate and reports which `numpy.ma`
modules are loaded, before and after one `np.unique` call that shows the
check can fail.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PIPELINE = """
import json, sys
import numpy as np
from cascadefuse import data, features, model

def masked():
    return sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))

m = data.split_dataset(data.generate_synthetic(5, seed=1), seed=1)
splits = m.by_split()
vocab = features.build_vocabulary(splits["train"])
scaler = features.fit_user_scaler(splits["train"])
cfg = model.ModelConfig(vocab_size=vocab.size, max_epochs=1, seq_len=5)
bundles = features.build_bundles(splits, vocab, scaler, cfg)
params, _, tscaler = model.train(bundles["train"], bundles["val"], cfg, label_set=m.label_set)
model.evaluate(bundles["test"], params, cfg, label_set=m.label_set, scaler=tscaler)
pipeline = masked()
np.unique([1])
print(json.dumps({"pipeline": pipeline, "after_unique": masked()}))
"""


def test_pipeline_does_not_import_numpy_ma():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PIPELINE], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert loaded["pipeline"] == []
    assert "numpy.ma" in loaded["after_unique"]
