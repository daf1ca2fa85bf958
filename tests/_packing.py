"""The per-record length-bucket packer, kept as the oracle of packing.

:func:`repro.seq.pack_database` packs flat blocks: record lengths first,
then one gather per bucket.  This is the packer it replaced, record by
record: buffer ``window`` records, sort them by length (descending, stable),
cut a bucket whenever it reaches ``max_lanes`` lanes or the next record
would pad more than ``max_waste`` of the bucket width, restore database
order within each bucket and copy every record into its lane with
:func:`repro.core.pack_codes`.
"""

from __future__ import annotations

import numpy as np

from repro.core import pack_codes
from repro.seq import FastaRecord, PackedBucket, PackedDatabase, encode


def reference_buckets(buffer, max_lanes: int, max_waste: float) -> list[PackedBucket]:
    """Cut one ``(db index, codes)`` buffer in database order into buckets."""
    buffer = sorted(buffer, key=lambda item: -len(item[1]))
    buckets = []
    start = 0
    while start < len(buffer):
        width = len(buffer[start][1])
        floor = (1.0 - max_waste) * width
        stop = start + 1
        while (
            stop < len(buffer)
            and stop - start < max_lanes
            and len(buffer[stop][1]) >= floor
        ):
            stop += 1
        run = sorted(buffer[start:stop], key=lambda item: item[0])
        codes, lane_lengths = pack_codes([c for _, c in run], width=width)
        buckets.append(
            PackedBucket(
                codes=codes,
                lengths=lane_lengths,
                indices=np.array([i for i, _ in run], dtype=np.int64),
            )
        )
        start = stop
    return buckets


def reference_pack(records, max_lanes=512, max_waste=0.15, window=8192) -> PackedDatabase:
    """Pack ``FastaRecord`` or ``(name, codes)`` records one at a time."""
    names, lengths, buckets, buffer = [], [], [], []
    for record in records:
        name, codes = (record.name, record.codes) if isinstance(record, FastaRecord) else record
        codes = encode(codes) if isinstance(codes, str) else np.asarray(codes, dtype=np.uint8)
        buffer.append((len(names), codes))
        names.append(name)
        lengths.append(len(codes))
        if len(buffer) == window:
            buckets += reference_buckets(buffer, max_lanes, max_waste)
            buffer = []
    buckets += reference_buckets(buffer, max_lanes, max_waste)
    return PackedDatabase(buckets=buckets, names=names, lengths=np.array(lengths, dtype=np.int64))
