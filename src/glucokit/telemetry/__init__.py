"""Offline-tolerant reading uploads: durable queue, retrying sync, mock endpoint."""

from .client import RetryPolicy, SyncStats, sync
from .mockserver import MockEndpoint
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
