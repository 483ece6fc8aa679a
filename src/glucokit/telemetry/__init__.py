"""Offline-tolerant reading uploads: durable queue, retrying sync, mock endpoint."""

import importlib

from .queue import (
    ACKED_LOG,
    DEADLETTER_LOG,
    QUEUE_LOG,
    WIRE_FIELDS,
    ReadingRecord,
    UploadQueue,
)

__all__ = [
    "ACKED_LOG", "DEADLETTER_LOG", "QUEUE_LOG", "WIRE_FIELDS",
    "MockEndpoint", "ReadingRecord", "RetryPolicy", "SyncStats",
    "UploadQueue", "sync",
]

# the client, which the mock endpoint imports too, loads http.client;
# importing them on first use keeps it out of every command but sync
_LAZY = {"RetryPolicy": "client", "SyncStats": "client", "sync": "client",
         "MockEndpoint": "mockserver"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
