"""Two-party message sessions over pre-shared Bell pairs.

A session lays out blocks over an ordered run of N pre-shared PsiPlus
pairs: block k uses pairs 2k-1 and 2k. Both parties encode their bits as
local operations on their photon of the even pair, Bell-measure their own
photon pairs, announce the results on the public channel, and decode the
partner's operations from the swapping correlations.

Sampling is seed-deterministic: each block draws from a stream derived
from (seed, block index), so sessions are reproducible, blocks are
independent, and a remote party with the same public seed derives the
same outcomes.

One function, _play, runs every session: both sides on an in-process
channel (run_session) or one side on a TCP endpoint (run_remote_party).
Each local side sends its own announcements and checks every line its
peer announces against the schedule both derived from the public config.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channel import (
    SIDES,
    Announcement,
    AnnouncementKind,
    ChannelError,
    InProcessChannel,
)
from .quantum import BellLabel, PauliCode
from .swap import (
    ENCODING_ORDER,
    DecodeTable,
    SwapOutcome,
    generate_decode_table,
)

_MASK64 = (1 << 64) - 1
_PEER = {"A": "B", "B": "A"}


class CapacityError(ValueError):
    """A message needs more pre-shared pairs than the session has."""


class ReplayError(ValueError):
    """Transcript and private records disagree; .block names the block."""

    def __init__(self, message: str, block: int):
        super().__init__(f"block {block}: {message}")
        self.block = block


class SessionError(RuntimeError):
    """A session failed; .transcript preserves what was announced so far."""

    def __init__(self, message: str, transcript: "Transcript | None" = None):
        super().__init__(message)
        self.transcript = transcript


class SessionMode(Enum):
    BIDIRECTIONAL = "bidirectional"
    ALICE_TO_BOB = "a-to-b"
    BOB_TO_ALICE = "b-to-a"


class SilentFallback(Enum):
    """What a party with no message does: operate randomly and announce
    normally, or declare silence and skip both operations and announcements."""

    RANDOM_OPS = "random"
    ANNOUNCED_SILENCE = "silent"


@dataclass(frozen=True)
class MessageBits:
    """A bit string plus its declared length.

    Storage is zero-padded to even length so every bit pair maps to one
    operation; declared_length records how many bits are meaningful.
    """

    bits: str
    declared_length: int

    def __post_init__(self):
        if set(self.bits) - {"0", "1"}:
            raise ValueError("bits must contain only '0' and '1'")
        expected = self.declared_length + (self.declared_length % 2)
        if len(self.bits) != expected:
            raise ValueError(
                f"storage length {len(self.bits)} does not match declared "
                f"length {self.declared_length} padded to even"
            )
        if any(c != "0" for c in self.bits[self.declared_length:]):
            raise ValueError("padding beyond declared_length must be zeros")

    @classmethod
    def from_bits(cls, bits: str) -> "MessageBits":
        padded = bits + "0" * (len(bits) % 2)
        return cls(bits=padded, declared_length=len(bits))

    @property
    def declared_bits(self) -> str:
        return self.bits[: self.declared_length]

    def __bool__(self) -> bool:
        return self.declared_length > 0


EMPTY_MESSAGE = MessageBits.from_bits("")


def parse_message(text: str) -> MessageBits:
    """Normalize a CLI message argument: a bit string, or hex with 0x prefix
    expanded most-significant-bit first."""
    if text.startswith(("0x", "0X")):
        digits = text[2:]
        if not digits or set(digits.lower()) - set("0123456789abcdef"):
            raise ValueError(f"invalid hex message {text!r}")
        return MessageBits.from_bits(
            "".join(format(int(d, 16), "04b") for d in digits)
        )
    return MessageBits.from_bits(text)


def encode_bits(message: MessageBits) -> tuple[PauliCode, ...]:
    """Map consecutive bit pairs to operations via the fixed two-bit code."""
    bits = message.bits
    return tuple(PauliCode(int(bits[i : i + 2], 2)) for i in range(0, len(bits), 2))


def decode_ops(ops, declared_length: int) -> MessageBits:
    """Inverse of encode_bits; trims to the declared length's even padding."""
    ops = tuple(ops)
    if declared_length > 2 * len(ops):
        raise ValueError(
            f"declared length {declared_length} exceeds {2 * len(ops)} decoded bits"
        )
    stored = declared_length + (declared_length % 2)
    bits = "".join(op.bits for op in ops)[:stored]
    return MessageBits(bits=bits, declared_length=declared_length)


@dataclass(frozen=True)
class SessionConfig:
    n_pairs: int
    mode: SessionMode = SessionMode.BIDIRECTIONAL
    fallback: SilentFallback = SilentFallback.RANDOM_OPS
    seed: int = 0
    alice_message: MessageBits | None = None
    bob_message: MessageBits | None = None

    @property
    def usable_blocks(self) -> int:
        return self.n_pairs // 2

    @property
    def has_idle_pair(self) -> bool:
        return self.n_pairs % 2 == 1

    @property
    def alice_sends(self) -> bool:
        return self.mode is not SessionMode.BOB_TO_ALICE

    @property
    def bob_sends(self) -> bool:
        return self.mode is not SessionMode.ALICE_TO_BOB

    @property
    def silent_side(self) -> str | None:
        if self.mode is SessionMode.ALICE_TO_BOB:
            return "B"
        if self.mode is SessionMode.BOB_TO_ALICE:
            return "A"
        return None

    def message_for(self, side: str) -> MessageBits:
        msg = self.alice_message if side == "A" else self.bob_message
        return msg if msg is not None else EMPTY_MESSAGE

    def announce_pattern(self) -> tuple[bool, bool]:
        """Whether (Alice, Bob) announce measurement results."""
        silent_announces = self.fallback is SilentFallback.RANDOM_OPS
        if self.mode is SessionMode.ALICE_TO_BOB:
            return True, silent_announces
        if self.mode is SessionMode.BOB_TO_ALICE:
            return silent_announces, True
        return True, True

    def validate(self) -> None:
        if self.n_pairs < 0:
            raise ValueError("n_pairs must be non-negative")
        capacity = 2 * self.usable_blocks
        for side, name in (("A", "Alice"), ("B", "Bob")):
            sends = self.alice_sends if side == "A" else self.bob_sends
            message = self.alice_message if side == "A" else self.bob_message
            if not sends and message:
                raise ValueError(f"{name} has no sending role in mode {self.mode.value}")
            if sends and message and message.declared_length > capacity:
                needed = message.declared_length + (message.declared_length % 2)
                raise CapacityError(
                    f"{name}'s {message.declared_length}-bit message needs "
                    f"{needed} pairs but the session has {self.n_pairs} "
                    f"(capacity {capacity} bits)"
                )


def session_id(config: SessionConfig) -> str:
    """Deterministic opaque token: same public config, same token."""
    a_len = config.alice_message.declared_length if config.alice_message else None
    b_len = config.bob_message.declared_length if config.bob_message else None
    text = "|".join([
        "v1",
        str(config.seed & _MASK64),
        str(config.n_pairs),
        config.mode.value,
        config.fallback.value,
        "-" if a_len is None else str(a_len),
        "-" if b_len is None else str(b_len),
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent stream for one block, derived from (seed, block index)."""
    seq = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(block_index,))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class BlockRecord:
    """Private per-block record: applied operations and the joint outcome.

    op_a/op_b are None when that party declared silence and applied nothing;
    the effective operation is then the identity.
    """

    index: int  # 1-based; block k uses pairs 2k-1 and 2k
    op_a: PauliCode | None
    op_b: PauliCode | None
    outcome: SwapOutcome
    announced_a: bool
    announced_b: bool

    @property
    def effective_a(self) -> PauliCode:
        return self.op_a if self.op_a is not None else PauliCode.U0

    @property
    def effective_b(self) -> PauliCode:
        return self.op_b if self.op_b is not None else PauliCode.U0


@dataclass(frozen=True)
class Transcript:
    """Everything public: the announcements in order plus session metadata."""

    session_id: str
    n_pairs: int
    mode: SessionMode
    fallback: SilentFallback
    alice_declared_length: int | None
    bob_declared_length: int | None
    announcements: tuple[Announcement, ...]

    @property
    def usable_blocks(self) -> int:
        return self.n_pairs // 2

    def measurements(self, side: str) -> dict[int, BellLabel]:
        """Announced measurement labels for one side, keyed by block."""
        out: dict[int, BellLabel] = {}
        for ann in self.announcements:
            if ann.kind is AnnouncementKind.MEASUREMENT and ann.side == side:
                if ann.block in out:
                    raise ValueError(
                        f"side {side} announced block {ann.block} twice"
                    )
                out[ann.block] = ann.label
        return out

    def wire_lines(self) -> list[str]:
        return [ann.to_wire() for ann in self.announcements]


@dataclass(frozen=True)
class SessionResult:
    decoded_by_alice: MessageBits | None  # Bob's message, as Alice decoded it
    decoded_by_bob: MessageBits | None
    blocks: tuple[BlockRecord, ...]
    transcript: Transcript


def _draw_op(rng: np.random.Generator) -> PauliCode:
    return PauliCode(int(rng.integers(4)))


def _sample_outcome(
    rng: np.random.Generator,
    table: DecodeTable,
    eff_a: PauliCode,
    eff_b: PauliCode,
) -> SwapOutcome:
    """One joint Bell-measurement outcome for a block.

    The a-side label is uniform regardless of the operations (the measured
    photons are maximally mixed); the b-side label is then determined by
    the composite's outcome column. This single-draw form is exactly the
    4-entry Born distribution and lets a remote party with the same seed
    derive the same outcome.
    """
    composite = table.composite[(eff_a, eff_b)]
    a_side = ENCODING_ORDER[int(rng.integers(4))]
    return SwapOutcome(a_side, table.partner_b_side(composite, a_side))


def _compute_blocks(config: SessionConfig) -> tuple[BlockRecord, ...]:
    table = generate_decode_table()
    announce_a, announce_b = config.announce_pattern()
    ops_a = encode_bits(config.message_for("A")) if config.alice_sends else None
    ops_b = encode_bits(config.message_for("B")) if config.bob_sends else None
    random_fallback = config.fallback is SilentFallback.RANDOM_OPS

    records = []
    for k in range(1, config.usable_blocks + 1):
        rng = block_rng(config.seed, k)
        # Fixed draw order per block: Alice's fallback op, Bob's, then the
        # outcome; both parties must consume the stream identically.
        if ops_a is not None:
            op_a = ops_a[k - 1] if k - 1 < len(ops_a) else PauliCode.U0
        else:
            op_a = _draw_op(rng) if random_fallback else None
        if ops_b is not None:
            op_b = ops_b[k - 1] if k - 1 < len(ops_b) else PauliCode.U0
        else:
            op_b = _draw_op(rng) if random_fallback else None
        eff_a = op_a if op_a is not None else PauliCode.U0
        eff_b = op_b if op_b is not None else PauliCode.U0
        outcome = _sample_outcome(rng, table, eff_a, eff_b)
        records.append(BlockRecord(k, op_a, op_b, outcome, announce_a, announce_b))
    return tuple(records)


def sample_block_outcomes(
    op_a: PauliCode, op_b: PauliCode, n_blocks: int, seed: int
) -> list[SwapOutcome]:
    """Outcomes of n_blocks independent blocks with fixed operations,
    drawn through the per-block sampling path."""
    table = generate_decode_table()
    return [
        _sample_outcome(block_rng(seed, k), table, op_a, op_b)
        for k in range(1, n_blocks + 1)
    ]


def _announcement_schedule(
    sid: str, config: SessionConfig, blocks: tuple[BlockRecord, ...]
) -> list[Announcement]:
    """The canonical announcement order: start A/B, optional silence
    declaration, per block A then B, end A/B."""
    announce_a, announce_b = config.announce_pattern()
    anns = [
        Announcement(sid, 0, "A", AnnouncementKind.SESSION_START),
        Announcement(sid, 0, "B", AnnouncementKind.SESSION_START),
    ]
    if config.silent_side and config.fallback is SilentFallback.ANNOUNCED_SILENCE:
        anns.append(Announcement(sid, 0, config.silent_side, AnnouncementKind.NO_MESSAGE))
    for rec in blocks:
        if announce_a:
            anns.append(Announcement(
                sid, rec.index, "A", AnnouncementKind.MEASUREMENT, rec.outcome.a_side
            ))
        if announce_b:
            anns.append(Announcement(
                sid, rec.index, "B", AnnouncementKind.MEASUREMENT, rec.outcome.b_side
            ))
    anns.append(Announcement(sid, 0, "A", AnnouncementKind.SESSION_END))
    anns.append(Announcement(sid, 0, "B", AnnouncementKind.SESSION_END))
    return anns


def _decode_direction(
    blocks: tuple[BlockRecord, ...],
    side: str,
    partner_labels: dict[int, BellLabel],
    declared_length: int,
    table: DecodeTable,
) -> MessageBits:
    """`side` decodes the partner's operations from its own private data
    plus the partner's announced labels. Alice's label is always the a-side
    of the joint outcome, whichever party is decoding."""
    partner_ops = []
    for rec in blocks:
        if side == "A":
            own_op = rec.effective_a
            outcome = SwapOutcome(rec.outcome.a_side, partner_labels[rec.index])
        else:
            own_op = rec.effective_b
            outcome = SwapOutcome(partner_labels[rec.index], rec.outcome.b_side)
        partner_ops.append(table.decode(own_op, table.infer[outcome]))
    return decode_ops(partner_ops, declared_length)


def _decode_results(
    transcript: Transcript,
    blocks: tuple[BlockRecord, ...],
    announced: dict[str, dict[int, BellLabel]],
    table: DecodeTable,
) -> SessionResult:
    """Decode both directions; `announced` holds each side's labels by block.
    A fallback party's random operations are not a message, so the partner
    discards that direction. A sending party always announces, so the
    needed labels always exist."""
    decoded_by_alice = decoded_by_bob = None
    if transcript.mode is not SessionMode.BOB_TO_ALICE:
        decoded_by_bob = _decode_direction(
            blocks, "B", announced["A"], transcript.alice_declared_length or 0, table
        )
    if transcript.mode is not SessionMode.ALICE_TO_BOB:
        decoded_by_alice = _decode_direction(
            blocks, "A", announced["B"], transcript.bob_declared_length or 0, table
        )
    return SessionResult(decoded_by_alice, decoded_by_bob, blocks, transcript)


def _make_transcript(
    config: SessionConfig, sid: str, announcements: tuple[Announcement, ...]
) -> Transcript:
    return Transcript(
        session_id=sid,
        n_pairs=config.n_pairs,
        mode=config.mode,
        fallback=config.fallback,
        alice_declared_length=(
            config.alice_message.declared_length if config.alice_message else None
        ),
        bob_declared_length=(
            config.bob_message.declared_length if config.bob_message else None
        ),
        announcements=announcements,
    )


def _play(config: SessionConfig, endpoints: dict) -> SessionResult:
    """Play a validated session for the sides in `endpoints` (side -> an
    endpoint with send/receive/tap).

    Every party derives the same blocks and announcement schedule from the
    public config. A local side sends its own lines; a local side receives
    each of its peer's lines and checks it against the schedule. Any
    failure raises SessionError carrying the transcript so far.
    """
    table = generate_decode_table()
    blocks = _compute_blocks(config)
    sid = session_id(config)
    tap = next(iter(endpoints.values())).tap
    # For each announcing side: (its endpoint, its peer's endpoint), if local.
    routes = {side: (endpoints.get(side), endpoints.get(_PEER[side])) for side in SIDES}
    try:
        for ann in _announcement_schedule(sid, config, blocks):
            sender, receiver = routes[ann.side]
            if sender is not None:
                sender.send(ann)
            if receiver is None:
                continue
            got = receiver.receive()
            # `is` first: an in-process peer hands over the scheduled object.
            if got is not ann and got != ann:
                raise SessionError(
                    f"peer announced {got.to_wire()} where {ann.to_wire()} was expected",
                    transcript=_make_transcript(config, sid, tap()),
                )
    except ChannelError as exc:
        raise SessionError(
            str(exc), transcript=_make_transcript(config, sid, tap())
        ) from exc

    transcript = _make_transcript(config, sid, tap())
    announced = {side: transcript.measurements(side) for side in SIDES}
    return _decode_results(transcript, blocks, announced, table)


def run_session(config: SessionConfig, channel: InProcessChannel | None = None) -> SessionResult:
    """Execute a full session with both parties in this process.

    Announcements really flow through `channel` (default: a fresh in-process
    channel), so its tap is the authoritative transcript.
    """
    config.validate()
    if channel is None:
        channel = InProcessChannel()
    return _play(config, {side: channel.endpoint(side) for side in SIDES})


def replay(transcript: Transcript, blocks) -> SessionResult:
    """Re-derive decoded messages from a transcript plus the parties'
    private block records, without re-sampling anything.

    Every cross-check failure raises ReplayError naming the block: announced
    labels must match the recorded outcomes, the announcement pattern must
    match the session mode, and each recorded outcome must lie in the
    outcome column of the recorded operations.
    """
    blocks = tuple(blocks)
    table = generate_decode_table()
    if len(blocks) != transcript.usable_blocks:
        raise ReplayError(
            f"{len(blocks)} records for {transcript.usable_blocks} blocks", 0
        )
    announced = {side: transcript.measurements(side) for side in SIDES}
    pattern = SessionConfig(
        transcript.n_pairs, transcript.mode, transcript.fallback
    ).announce_pattern()
    for side, announces in zip(SIDES, pattern):
        expected = set(range(1, transcript.usable_blocks + 1)) if announces else set()
        got = set(announced[side])
        if got != expected:
            odd = min(got.symmetric_difference(expected), default=0)
            raise ReplayError(f"side {side} announcement pattern is inconsistent", odd)

    for pos, rec in enumerate(blocks, start=1):
        if rec.index != pos:
            raise ReplayError(f"record index {rec.index} out of order", pos)
        if (rec.announced_a, rec.announced_b) != pattern:
            raise ReplayError("announced flags disagree with the session mode", pos)
        for side, announces, label in zip(SIDES, pattern, rec.outcome):
            if announces and announced[side][rec.index] is not label:
                raise ReplayError(
                    f"side {side} announced "
                    f"{announced[side][rec.index].value}, record says {label.value}",
                    rec.index,
                )
        composite = table.composite[(rec.effective_a, rec.effective_b)]
        if table.infer[rec.outcome] is not composite:
            raise ReplayError(
                f"outcome {rec.outcome!r} is outside the "
                f"{composite.value} column of the recorded operations",
                rec.index,
            )

    return _decode_results(transcript, blocks, announced, table)


# --------------------------------------------------------------------------
# Two-process sessions. Each party plays its own side over a public TCP
# endpoint plus the substrate link that stands in for the shared pairs:
# one private hello each way carries the party's encoded operations, after
# which both sides derive identical blocks from the shared seed and play
# the same announcement schedule, verifying every received line.
# --------------------------------------------------------------------------


def substrate_hello(side: str, config: SessionConfig) -> dict:
    message = config.alice_message if side == "A" else config.bob_message
    sends = config.alice_sends if side == "A" else config.bob_sends
    has_message = sends and message is not None
    return {
        "kind": "hello",
        "side": side,
        "n_pairs": config.n_pairs,
        "mode": config.mode.value,
        "fallback": config.fallback.value,
        "seed": config.seed,
        "declared_length": message.declared_length if has_message else None,
        "ops": [op.code for op in encode_bits(message)] if has_message else None,
    }


def _hello_limit(config: SessionConfig) -> int:
    """Byte bound on a peer hello that matches `config`: fixed fields, the
    seed's digits, and about two bytes per op for at most one op a block."""
    return 256 + len(str(config.seed)) + 2 * config.usable_blocks


def _peer_message(hello: dict, peer_side: str, config: SessionConfig) -> MessageBits | None:
    """The peer's message from its substrate hello. SessionError if the
    hello breaks its schema or disagrees with this party's public config."""
    if hello.get("side") != peer_side:
        raise SessionError(f"peer identifies as side {hello.get('side')!r}")
    mismatches = [
        f"{field}: mine {mine!r}, peer {theirs!r}"
        for field, mine in (
            ("n_pairs", config.n_pairs),
            ("mode", config.mode.value),
            ("fallback", config.fallback.value),
            ("seed", config.seed),
        )
        if type(theirs := hello.get(field)) is not type(mine) or theirs != mine
    ]
    if mismatches:
        raise SessionError("public config mismatch: " + "; ".join(mismatches))
    length, ops = hello.get("declared_length"), hello.get("ops")
    if length is None and ops is None:
        return None
    if type(length) is not int or length < 0:  # bool is an int subclass
        raise SessionError(f"invalid substrate hello: declared_length {length!r}")
    n_ops = (length + 1) // 2
    if (not isinstance(ops, list) or len(ops) != n_ops
            or any(type(op) is not int or not 0 <= op <= 3 for op in ops)):
        raise SessionError(
            f"invalid substrate hello: ops must be {n_ops} integers in 0..3"
        )
    try:
        return decode_ops([PauliCode(op) for op in ops], length)
    except ValueError as exc:
        raise SessionError(f"invalid substrate hello: {exc}") from exc


def run_remote_party(side: str, config: SessionConfig, substrate, endpoint) -> SessionResult:
    """Drive one party of a two-process session.

    `config` is this party's view: public fields plus its own message. The
    peer's message slot must be None; it is filled from the substrate hello.
    """
    if side not in SIDES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    peer_slot = "bob_message" if side == "A" else "alice_message"
    if getattr(config, peer_slot) is not None:
        raise ValueError(f"party {side} must not be given the peer's message")
    config.validate()

    substrate.send_hello(substrate_hello(side, config))
    hello = substrate.receive_hello(_hello_limit(config))
    full = replace(config, **{peer_slot: _peer_message(hello, _PEER[side], config)})
    try:
        full.validate()  # this party's own fields already passed
    except ValueError as exc:
        raise SessionError(f"invalid substrate hello: {exc}") from exc
    return _play(full, {side: endpoint})
