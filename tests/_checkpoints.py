"""Edits of checkpoint files into the layouts of older or broken ones, for the
tests that read such files."""

import json

import numpy as np

from vesseldistill.network import NetworkConfig, _param_shapes


def json_bytes(value):
    return np.frombuffer(json.dumps(value).encode(), np.uint8)


def rewrite(source, path, edit):
    """Copy the checkpoint `source` to `path`, after edit(payload, meta) has changed
    its members and its decoded meta in place."""
    with np.load(source) as z:
        payload = {k: z[k] for k in z.files}
    meta = json.loads(payload.pop("meta").tobytes())
    edit(payload, meta)
    payload.setdefault("meta", json_bytes(meta))  # unless edit set the member itself
    np.savez(path, **payload)


def older_layout(payload, meta):
    """As files were written before the run record moved into meta and while
    NetworkConfig had in_channels: meta names the dtype, the parameter order and an
    in_channels of 1 and holds no run, and extra:train_config and extra:logs hold the
    record as JSON bytes, each logged row a list of values in field order."""
    run = meta.pop("run")
    meta["param_order"] = [name for name, _ in _param_shapes(NetworkConfig(**meta["config"]))]
    meta["config"]["in_channels"] = run["train_config"]["network"]["in_channels"] = 1
    meta["dtype"] = str(payload["params"].dtype)
    payload["extra:train_config"] = json_bytes(run["train_config"])
    payload["extra:logs"] = json_bytes([list(row.values()) for row in run["logs"]])
