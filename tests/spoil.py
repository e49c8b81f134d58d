"""Rewrite fields of a saved checkpoint's JSON header, for load-fault tests.

``save_checkpoint`` cannot write a header it would reject itself (a
non-string token, a vocabulary or tensor list of the wrong type), so these
tests edit the header bytes in place and keep the tensor bytes as saved.
"""

import json
import struct

from factrank.checkpoint import MAGIC


def rewrite_header(path, **fields):
    """Replace the given top-level header keys of the checkpoint at ``path``."""
    data = path.read_bytes()
    start = len(MAGIC) + 8
    (size,) = struct.unpack("<Q", data[len(MAGIC) : start])
    header = json.loads(data[start : start + size])
    header.update(fields)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + data[start + size :])
