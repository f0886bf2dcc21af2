"""PP-ARQ: partial-packet retransmission (paper §5).

Pipeline: SoftPHY hints -> good/bad run-length representation (Eq. 2)
-> dynamic-programming chunk selection (Eqs. 4-5) -> bit-exact feedback
encoding -> sender retransmission of requested segments with CRCs of
the rest -> receiver patching and verification.  A whole-packet
stop-and-wait baseline lives in :mod:`repro.arq.fullarq`.
"""

from repro.arq.runlength import RunLengthPacket
from repro.arq.chunking import (
    ChunkPlan,
    chunk_cost_naive,
    plan_chunks,
    plan_chunks_reference,
)
from repro.arq.feedback import (
    FeedbackPacket,
    RetransmissionPacket,
    SegmentData,
    decode_feedback,
    decode_retransmission,
    encode_feedback,
    encode_retransmission,
)
from repro.arq.protocol import (
    PpArqReceiver,
    PpArqSender,
    PpArqSession,
    TransferLog,
)
from repro.arq.fullarq import FullPacketArqSession

__all__ = [
    "RunLengthPacket",
    "ChunkPlan",
    "chunk_cost_naive",
    "plan_chunks",
    "plan_chunks_reference",
    "FeedbackPacket",
    "RetransmissionPacket",
    "SegmentData",
    "decode_feedback",
    "decode_retransmission",
    "encode_feedback",
    "encode_retransmission",
    "PpArqReceiver",
    "PpArqSender",
    "PpArqSession",
    "TransferLog",
    "FullPacketArqSession",
]
