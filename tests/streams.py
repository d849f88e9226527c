"""Stream files for the tests.

Every stream is a file written by ``StreamWriter`` and read by
``StreamReader``; these helpers build one from arrays in memory and read
one back into arrays.
"""

import io

import numpy as np

from biphoton.tagio import StreamWriter


def stream_file(channels, timestamps, header=None, gates=None):
    """A rewound ``BytesIO`` holding the stream that ``StreamWriter`` writes
    for these records, header and gates."""
    buf = io.BytesIO()
    with StreamWriter(buf, header, gates) as writer:
        writer.write(channels, timestamps)
    buf.seek(0)
    return buf


def read_arrays(source):
    """The channels and timestamps of every chunk of ``source``, a
    ``StreamReader``, concatenated: copies, since a chunk's arrays are
    the reader's buffers."""
    channels, timestamps = [np.zeros(0, np.uint8)], [np.zeros(0, np.int64)]
    for chunk_channels, chunk_timestamps in source.chunks():
        channels.append(chunk_channels.copy())
        timestamps.append(chunk_timestamps.copy())
    return np.concatenate(channels), np.concatenate(timestamps)
