"""Rewrite members of a saved checkpoint, for load-fault tests.

``save_checkpoint`` cannot write a file it would reject itself (a
non-string token, a vocabulary of the wrong type, a float32 tensor), so
these tests rewrite the npz with edited members and the others as saved.
"""

import json

import numpy as np


def rewrite_members(path, **members):
    """Replace or add the given members of the npz at ``path``."""
    with np.load(path) as data:
        saved = {name: data[name] for name in data.files}
    with open(path, "wb") as fh:
        np.savez(fh, **{**saved, **members})


def rewrite_header(path, **fields):
    """Replace the given top-level keys of the checkpoint's JSON header."""
    with np.load(path) as data:
        header = json.loads(str(data["header"]))
    rewrite_members(path, header=np.str_(json.dumps({**header, **fields}, sort_keys=True)))
