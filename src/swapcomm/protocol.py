"""Two-party message sessions over pre-shared Bell pairs.

A session lays out blocks over an ordered run of N pre-shared PsiPlus
pairs: block k uses pairs 2k-1 and 2k. Both parties encode their bits as
local operations on their photon of the even pair, Bell-measure their own
photon pairs, announce the results on the public channel, and decode the
partner's operations from the swapping correlations.

Sampling is seed-deterministic: each block draws from a stream derived
from (seed, block index), so sessions are reproducible, blocks are
independent, and a remote party with the same public seed derives the
same outcomes. block_rng defines a block's stream. _seed_words replays
numpy's SeedSequence over arrays of seeds and spawn keys, and _draw_grid
builds on it the draws of every block under a column of seeds in one
vectorised pass, bit for bit equal to block_rng's. A session is the
one-seed case (_session_blocks). run_trials is the many-seed case: it derives
every trial seed with the same replay and samples and decodes all trials
as rows of (trials x blocks) arrays. Sampling and decoding are gathers
from the decode table's code arrays.

One function, _play, runs every session: both sides on an in-process
channel (run_session) or one side on a TCP endpoint (run_remote_party).
Each local side sends its own announcements and checks every line its
peer announces against the schedule both derived from the public config.

A session is a table of small integers: its blocks are four code columns
(BlockColumns) and its schedule is a block column and a line code column
(channel.CodedLines), exchanged and checked a window at a time. These are
the one form a SessionResult and a Transcript store; records or
announcements given instead are converted at construction. The objects
of SessionResult.blocks and Transcript.announcements are built from the
columns when first read, and kept. replay checks on columns too.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .channel import (
    _MEASURED_SIDE,
    LINE_CODES,
    LINE_KINDS,
    SIDES,
    Announcement,
    AnnouncementKind,
    ChannelError,
    CodedLines,
    InProcessChannel,
    TransportError,
)
from .quantum import BellLabel, PauliCode
from .swap import (
    ENCODING_ORDER,
    LABEL_CODES,
    DecodeTable,
    SwapOutcome,
    generate_decode_table,
)

_MASK64 = (1 << 64) - 1
_PEER = {"A": "B", "B": "A"}
# Block and trial indices are one 32-bit word of a spawn key (_seed_words):
# blocks count from 1, trials from 0.
MAX_BLOCKS = (1 << 32) - 1
MAX_TRIALS = 1 << 32
# run_trials samples and decodes at most this many blocks at once.
_TRIAL_CHUNK_BLOCKS = 1 << 12


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
        # Deleting every 0 and 1 from the ASCII bytes leaves nothing: a C-level
        # pass, about 20 times faster than a set of the characters.
        if not self.bits.isascii() or self.bits.encode("ascii").translate(None, b"01"):
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


def _message_codes(message: MessageBits) -> np.ndarray:
    """Operation codes of consecutive bit pairs, via the fixed two-bit code."""
    bits = np.frombuffer(message.bits.encode("ascii"), dtype=np.uint8) - ord("0")
    return (2 * bits[0::2] + bits[1::2]).astype(np.intp)


def _message_from_codes(codes: np.ndarray, declared_length: int) -> MessageBits:
    """Inverse of _message_codes; trims to the declared length's even padding."""
    if declared_length > 2 * len(codes):
        raise ValueError(
            f"declared length {declared_length} exceeds {2 * len(codes)} decoded bits"
        )
    bits = np.empty(2 * len(codes), dtype=np.uint8)
    bits[0::2] = codes >> 1
    bits[1::2] = codes & 1
    stored = declared_length + (declared_length % 2)
    text = (bits[:stored] + ord("0")).tobytes().decode("ascii")
    return MessageBits(bits=text, declared_length=declared_length)


def encode_bits(message: MessageBits) -> tuple[PauliCode, ...]:
    """Map consecutive bit pairs to operations via the fixed two-bit code."""
    return tuple(map(PauliCode, _message_codes(message).tolist()))


def decode_ops(ops, declared_length: int) -> MessageBits:
    """Inverse of encode_bits; trims to the declared length's even padding."""
    codes = np.array([op.code for op in ops], dtype=np.intp)
    return _message_from_codes(codes, declared_length)


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
        if self.usable_blocks > MAX_BLOCKS:
            raise ValueError(
                f"n_pairs {self.n_pairs} exceeds the limit of {2 * MAX_BLOCKS + 1} "
                f"({MAX_BLOCKS} blocks)"
            )
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
    return _session_token(config.seed, _public_fields(config))


def _public_fields(config: SessionConfig) -> str:
    """The text session_id hashes after the seed: every other public field."""
    a_len = config.alice_message.declared_length if config.alice_message else None
    b_len = config.bob_message.declared_length if config.bob_message else None
    return "|".join([
        str(config.n_pairs),
        config.mode.value,
        config.fallback.value,
        "-" if a_len is None else str(a_len),
        "-" if b_len is None else str(b_len),
    ])


def _session_token(seed: int, public_fields: str) -> str:
    """session_id of the config with this seed and _public_fields text."""
    text = f"v1|{seed & _MASK64}|{public_fields}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent stream for one block, derived from (seed, block index).

    This defines the sampling stream; _draw_grid computes the same draws
    for all blocks at once.
    """
    seq = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(block_index,))
    return np.random.default_rng(seq)


# numpy's SeedSequence hash constants (32-bit words, XSHIFT 16) and the
# PCG64 multiplier, as in numpy/random/bit_generator.pyx and pcg64.h.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_HI = np.uint64(_PCG_MULT >> 64)
_PCG_LO = np.uint64(_PCG_MULT & _MASK64)
_PCG_LO0 = np.uint64(_PCG_MULT & _M32)
_PCG_LO1 = np.uint64((_PCG_MULT >> 32) & _M32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state*M + inc mod 2**128, on (hi, lo) uint64 arrays.
    lo*M_lo needs its full 128 bits and goes through 32-bit halves; the
    cross terms only reach the high word, where uint64 wraps as wanted."""
    a0, a1 = lo & _M32, lo >> 32
    p00, p01, p10 = a0 * _PCG_LO0, a0 * _PCG_LO1, a1 * _PCG_LO0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    new_lo = (p00 & _M32) | (mid << 32)
    new_hi = (a1 * _PCG_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
              + lo * _PCG_HI + hi * _PCG_LO)
    out_lo = new_lo + inc_lo
    return new_hi + inc_hi + (out_lo < new_lo), out_lo


def _seed_words(seeds: np.ndarray, keys: np.ndarray, n_words: int) -> list[np.ndarray]:
    """SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(n_words,
    uint32) for uint64 `seeds` and uint32 `keys` broadcast together: word i
    of the state is entry i, a uint32 array of the broadcast shape.

    This replays numpy's construction over arrays. The entropy is the words
    [seed lo, seed hi, 0, 0, key]: run entropy is padded to the pool size
    of 4 when a spawn key is present, and a key below 2**32 is one word.
    The hash constants evolve independently of the data, so each hashmix
    and mix is a few whole-array operations.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value *= np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> 16)

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = ((seeds & _M32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):  # the spawn word
        pool[dst] = mix(pool[dst], hashmix(keys))

    hash_const = _INIT_B
    state = []  # generate_state: n_words words cycling over the pool
    for i in range(n_words):
        h = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        h *= np.uint32(hash_const)
        state.append(h ^ (h >> 16))
    return state


def _seed_column(seed: int) -> np.ndarray:
    """One session seed as the column _draw_grid and _block_codes take."""
    return np.array([seed & _MASK64], dtype=np.uint64)


def _draw_grid(seeds: np.ndarray, n_blocks: int) -> np.ndarray:
    """The first three integers(4) draws of block_rng(seed, k) for every
    seed of the uint64 column `seeds` and every block k in 1..n_blocks:
    draw j of block k under seed i is entry [j, i, k-1] of a
    (3, len(seeds), n_blocks) uint8 array.

    The generate_state(4, uint64) words of _seed_words seed PCG64, whose
    steps run over uint64 arrays. integers(4) takes one buffered 32-bit
    half of a raw output per draw, and Lemire's method never rejects for a
    range of 4, so a draw is the half's top two bits.
    """
    if not 0 <= n_blocks <= MAX_BLOCKS:
        raise ValueError(f"n_blocks must be in 0..{MAX_BLOCKS}, got {n_blocks}")
    spawn = np.arange(1, n_blocks + 1, dtype=np.uint32)
    state = [w.astype(np.uint64) for w in _seed_words(seeds[:, None], spawn, 8)]
    v0, v1, v2, v3 = (state[2 * i] | (state[2 * i + 1] << 32) for i in range(4))

    # PCG64 seeding: initstate = v0:v1, inc = (v2:v3 << 1) | 1, then
    # state = (inc + initstate) stepped once.
    inc_hi, inc_lo = (v2 << 1) | (v3 >> 63), (v3 << 1) | 1
    lo = inc_lo + v1
    hi = inc_hi + v0 + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    raw = []
    for _ in range(2):  # next64: step, then XSL-RR output
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        raw.append((x >> rot) | (x << ((64 - rot) & 63)))

    draws = np.empty((3, len(seeds), n_blocks), dtype=np.uint8)
    draws[0] = (raw[0] & _M32) >> 30
    draws[1] = raw[0] >> 62
    draws[2] = (raw[1] & _M32) >> 30
    return draws


def _spawn_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """The seeds of trials start..stop-1 of a run with seed `seed`: trial t
    has the first generate_state(1, uint64) word of SeedSequence(seed,
    spawn_key=(t,)), as a uint64 array."""
    lo, hi = _seed_words(_seed_column(seed), np.arange(start, stop, dtype=np.uint32), 2)
    return lo.astype(np.uint64) | (hi.astype(np.uint64) << 32)


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


# Indexed by an op code column; code -1 marks a party that declared
# silence and applied nothing.
_OP_OR_NONE = (*PauliCode, None)
# Indexed by 4 * a-side label code + b-side label code.
_OUTCOMES = tuple(SwapOutcome(a, b) for a in ENCODING_ORDER for b in ENCODING_ORDER)


class BlockColumns:
    """A session's blocks as code columns: op_a, op_b, label_a and label_b,
    where entry k-1 is block k and op code -1 means no operation (declared
    silence), plus who announced: a pair of flags for every block, or a
    pair of flag columns. The BlockRecords are built the first time they
    are read, then kept."""

    __slots__ = ("op_a", "op_b", "label_a", "label_b", "announced", "_records")

    def __init__(self, codes: tuple[np.ndarray, ...], announced: tuple):
        self.op_a, self.op_b, self.label_a, self.label_b = codes
        self.announced = announced
        self._records = None

    @classmethod
    def from_records(cls, records: tuple[BlockRecord, ...]) -> "BlockColumns":
        """The columns of records whose indices are 1..n in order; any
        other indices are a ValueError."""
        for pos, rec in enumerate(records, start=1):
            if rec.index != pos:
                raise ValueError(f"record {pos} has index {rec.index}, not {pos}")
        flags = np.array(
            [(rec.announced_a, rec.announced_b) for rec in records], dtype=bool
        ).reshape(-1, 2).T
        columns = cls(tuple(_record_codes(records)[:4]), tuple(flags))
        columns._records = records
        return columns

    def records(self) -> tuple[BlockRecord, ...]:
        if self._records is None:
            n = len(self.op_a)
            announced_a, announced_b = (np.broadcast_to(f, n).tolist() for f in self.announced)
            self._records = tuple(
                BlockRecord(k, _OP_OR_NONE[a], _OP_OR_NONE[b], _OUTCOMES[o], on_a, on_b)
                for k, a, b, o, on_a, on_b in zip(
                    itertools.count(1), self.op_a.tolist(), self.op_b.tolist(),
                    (4 * self.label_a + self.label_b).tolist(), announced_a, announced_b,
                )
            )
        return self._records


def _flag_code(value) -> int:
    """An announced flag as a code: 1 for a value equal to True, 0 for one
    equal to False, 2 for any other."""
    return 1 if value == True else 0 if value == False else 2  # noqa: E712 - 1 and 1.0 are True


def _record_codes(records) -> np.ndarray:
    """Block records as six code rows: op_a, op_b, label_a, label_b and the
    _flag_code of each announced flag."""
    return np.array(
        [(-1 if rec.op_a is None else rec.op_a.code,
          -1 if rec.op_b is None else rec.op_b.code,
          LABEL_CODES[rec.outcome.a_side], LABEL_CODES[rec.outcome.b_side],
          _flag_code(rec.announced_a), _flag_code(rec.announced_b)) for rec in records],
        dtype=np.intp,
    ).reshape(-1, 6).T


class _StoredAsColumns:
    """A frozen dataclass field stored in one form, as columns of type
    `columns`: objects given instead are converted by `convert(instance,
    objects)` once, when the field is set. Reading the field gives the
    objects `build` makes from the columns."""

    def __init__(self, columns: type, convert, build):
        self._columns, self._convert, self._build = columns, convert, build

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self._name)  # so the field has no default
        return self._build(obj.__dict__[self._name])

    def __set__(self, obj, value):
        if not isinstance(value, self._columns):
            value = self._convert(obj, value)
        obj.__dict__[self._name] = value


# By line code: the label code of a Measurement, -1 for a control line.
_LINE_LABEL = np.array([-1 if label is None else LABEL_CODES[label] for *_, label in LINE_KINDS])


def _first_repeat(blocks: np.ndarray) -> int | None:
    """The first entry of `blocks` equal to an earlier one, or None."""
    if (blocks[1:] > blocks[:-1]).all():  # strictly increasing, as sessions announce
        return None
    repeats = np.setdiff1d(np.arange(len(blocks)), np.unique(blocks, return_index=True)[1])
    return int(blocks[repeats[0]]) if repeats.size else None


@dataclass(frozen=True)
class Transcript:
    """Everything public: the announcements in order plus session metadata.

    `announcements` is stored as CodedLines of the session, its `lines`;
    Announcements given instead are converted at construction. Lines or
    an announcement of another session, or a block above the int64
    range, are a ValueError. Reading the field gives the Announcements.
    """

    session_id: str
    n_pairs: int
    mode: SessionMode
    fallback: SilentFallback
    alice_declared_length: int | None
    bob_declared_length: int | None
    announcements: tuple[Announcement, ...] = _StoredAsColumns(
        CodedLines, lambda t, anns: CodedLines.of(t.session_id, anns), CodedLines.announcements
    )

    def __post_init__(self):
        if self.lines.session_id != self.session_id:
            raise ValueError(
                f"lines of session {self.lines.session_id!r} in transcript {self.session_id!r}"
            )

    @property
    def lines(self) -> CodedLines:
        return vars(self)["announcements"]

    @property
    def usable_blocks(self) -> int:
        return self.n_pairs // 2

    def measured(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """The blocks and label codes (LABEL_CODES) of one side's
        Measurement lines, in order. A block announced twice is a
        ValueError."""
        lines = self.lines
        mine = np.flatnonzero(_MEASURED_SIDE[lines.codes] == SIDES.index(side))
        blocks = lines.blocks[mine]
        repeated = _first_repeat(blocks)
        if repeated is not None:
            raise ValueError(f"side {side} announced block {repeated} twice")
        return blocks, _LINE_LABEL[lines.codes[mine]]

    def measurements(self, side: str) -> dict[int, BellLabel]:
        """Announced measurement labels for one side, keyed by block."""
        blocks, labels = self.measured(side)
        return dict(zip(blocks.tolist(), map(ENCODING_ORDER.__getitem__, labels.tolist())))

    def wire_lines(self) -> list[str]:
        return self.lines.wire_lines()


@dataclass(frozen=True)
class SessionResult:
    """A session's decodes, private blocks and public transcript.

    `blocks` is stored as BlockColumns, its `block_columns`; BlockRecords
    given instead are converted at construction, and indices other than
    1..n are a ValueError. Reading the field gives the BlockRecords.
    """

    decoded_by_alice: MessageBits | None  # Bob's message, as Alice decoded it
    decoded_by_bob: MessageBits | None
    blocks: tuple[BlockRecord, ...] = _StoredAsColumns(
        BlockColumns, lambda _, records: BlockColumns.from_records(tuple(records)),
        BlockColumns.records,
    )
    transcript: Transcript

    @property
    def block_columns(self) -> BlockColumns:
        return vars(self)["blocks"]


def _block_codes(config: SessionConfig, seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks of config's session under each seed of the uint64 column
    `seeds`, as four code arrays (op_a, op_b, label_a, label_b): entry
    [i, k-1] is block k under seed i. An op that no seed changes is one
    row, which broadcasts. Op code -1 means no operation (declared
    silence).

    The a-side label is uniform regardless of the operations (the measured
    photons are maximally mixed); the b-side label is then determined by
    the composite's outcome column. This single-draw form is exactly the
    4-entry Born distribution and lets a remote party with the same seed
    derive the same outcomes.
    """
    table = generate_decode_table()
    n = config.usable_blocks
    # Fixed draw order per block: Alice's fallback op, Bob's, then the
    # a-side label; both parties must consume the stream identically.
    draws = iter(_draw_grid(seeds, n).astype(np.intp))
    ops = []
    for side, sends in (("A", config.alice_sends), ("B", config.bob_sends)):
        if sends:
            op = np.zeros((1, n), dtype=np.intp)
            codes = _message_codes(config.message_for(side))
            op[0, : len(codes)] = codes
        elif config.fallback is SilentFallback.RANDOM_OPS:
            op = next(draws)
        else:
            op = np.full((1, n), -1, dtype=np.intp)
        ops.append(op)
    label_a = next(draws)
    composite = table.composite_codes[np.maximum(ops[0], 0), np.maximum(ops[1], 0)]
    return ops[0], ops[1], label_a, table.pairing_codes[composite, label_a]


def _session_blocks(config: SessionConfig) -> BlockColumns:
    """The blocks of config's session, under its own seed."""
    codes = _block_codes(config, _seed_column(config.seed))
    return BlockColumns(tuple(c[0] for c in codes), config.announce_pattern())


# Line codes of each side's Measurement, indexed by [side, label code].
_MEASUREMENT_LINES = np.array([
    [LINE_CODES[side, AnnouncementKind.MEASUREMENT, label] for label in ENCODING_ORDER]
    for side in SIDES
])


def _announcement_schedule(sid: str, config: SessionConfig, blocks: BlockColumns) -> CodedLines:
    """The canonical announcement order: start A/B, optional silence
    declaration, per block A then B, end A/B."""
    head = [LINE_CODES[side, AnnouncementKind.SESSION_START, None] for side in SIDES]
    if config.silent_side and config.fallback is SilentFallback.ANNOUNCED_SILENCE:
        head.append(LINE_CODES[config.silent_side, AnnouncementKind.NO_MESSAGE, None])
    tail = [LINE_CODES[side, AnnouncementKind.SESSION_END, None] for side in SIDES]
    measured = [
        _MEASUREMENT_LINES[i, labels]
        for i, (announces, labels) in enumerate(
            zip(config.announce_pattern(), (blocks.label_a, blocks.label_b))
        )
        if announces
    ]
    body = np.column_stack(measured).ravel()  # block by block, A before B
    codes = np.concatenate([head, body, tail])
    block_numbers = np.zeros(len(codes), dtype=np.int64)
    block_numbers[len(head):len(head) + len(body)] = np.repeat(
        np.arange(1, len(blocks.label_a) + 1), len(measured)
    )
    return CodedLines(sid, block_numbers, codes)


def _partner_codes(
    own_ops: np.ndarray, labels_a: np.ndarray, labels_b: np.ndarray, table: DecodeTable
) -> np.ndarray:
    """A party decodes its partner's operation codes from its own operations
    (code -1, silence, acts as the identity) plus the joint outcome: its
    own labels and the partner's announced ones. Alice's label is always
    the a-side of the joint outcome, whichever party is decoding. The
    arrays may have any shapes that broadcast together."""
    inferred = table.infer_codes[labels_a, labels_b]
    return table.partner_codes[np.maximum(own_ops, 0), inferred]


def _decode(
    transcript: Transcript, blocks: BlockColumns, table: DecodeTable
) -> tuple[MessageBits | None, MessageBits | None]:
    """(decoded_by_alice, decoded_by_bob) from the blocks' code columns.

    A side's announced labels are its label column: every announced line
    was checked against the schedule built from them (replay checks the
    transcript against the records). A fallback party's random operations
    are not a message, so the partner discards that direction. A sending
    party always announces, so the needed labels always exist."""
    decoded_by_alice = decoded_by_bob = None
    if transcript.mode is not SessionMode.BOB_TO_ALICE:
        decoded_by_bob = _message_from_codes(
            _partner_codes(blocks.op_b, blocks.label_a, blocks.label_b, table),
            transcript.alice_declared_length or 0,
        )
    if transcript.mode is not SessionMode.ALICE_TO_BOB:
        decoded_by_alice = _message_from_codes(
            _partner_codes(blocks.op_a, blocks.label_a, blocks.label_b, table),
            transcript.bob_declared_length or 0,
        )
    return decoded_by_alice, decoded_by_bob


def _make_transcript(config: SessionConfig, sid: str, announcements) -> Transcript:
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


def _play(config: SessionConfig, exchange, tap) -> SessionResult:
    """Play a validated session.

    Every party derives the same blocks, as code columns, and the same
    announcement schedule, as CodedLines, from the public config.
    `exchange(schedule)` sends the local sides' lines and checks every
    line a peer announces against the schedule. It returns None, or
    (received, expected, transcript so far) for the first peer line that
    differs. `tap()` gives the announcements seen so far.

    A finished session's transcript is the verified schedule, in schedule
    order. Any failure raises SessionError with the transcript so far,
    which for a ChannelError is the tap: its lines of this session, as a
    channel used before may hold others.
    """
    table = generate_decode_table()
    blocks = _session_blocks(config)
    sid = session_id(config)
    schedule = _announcement_schedule(sid, config, blocks)

    def so_far(announcements) -> Transcript:
        return _make_transcript(config, sid, [a for a in announcements if a.session_id == sid])

    try:
        mismatch = exchange(schedule)
    except ChannelError as exc:
        raise SessionError(str(exc), transcript=so_far(tap())) from exc
    if mismatch is not None:
        got, want, seen = mismatch
        raise SessionError(
            f"peer announced {got.to_wire()} where {want.to_wire()} was expected",
            transcript=so_far(seen),
        )
    transcript = _make_transcript(config, sid, schedule)
    return SessionResult(*_decode(transcript, blocks, table), blocks, transcript)


def _exchange_in_process(channel: InProcessChannel, schedule: CodedLines):
    """Both sides over one in-process channel. The whole schedule is one
    window: the channel delivers and taps it at once, in schedule order,
    and the peers check what they received against it as whole arrays.
    The transcript so far ends at the first line that differs."""
    got = channel._deliver_lines(schedule)
    if got is schedule:  # delivered untouched
        return None
    at = schedule.first_difference(got)
    if at is None:
        return None
    if at == len(got):
        peer = _PEER[LINE_KINDS[schedule.codes[at]][0]]
        raise TransportError(f"endpoint {peer}: nothing to receive")
    tap = channel.tap()
    return got.announcement(at), schedule.announcement(at), tap[:len(tap) - len(got) + at + 1]


def _exchange_remote(side: str, endpoint, schedule: CodedLines):
    """One side over its endpoint (TcpEndpoint), in windows of
    `endpoint.window` lines: each window's A lines, then its B lines, each
    side keeping its own order. This side sends its lines and reads and
    checks its peer's, then finishes: a byte past the peer's last line is a
    FrameError. The transcript so far is the endpoint's tap: the lines in
    wire order, up to and including a peer line that differs."""
    for start in range(0, len(schedule), endpoint.window):
        window = schedule[start:start + endpoint.window]
        for announcer in SIDES:
            lines = window.of_side(announcer)
            if not len(lines):
                continue
            if announcer == side:
                endpoint.send_lines(lines)
                continue
            mismatch = endpoint.receive_lines(lines)
            if mismatch is not None:
                return (*mismatch, endpoint.tap())
    endpoint.finish()
    return None


def run_session(config: SessionConfig, channel: InProcessChannel | None = None) -> SessionResult:
    """Execute a full session with both parties in this process.

    Announcements really flow through `channel` (default: a fresh in-process
    channel), which delivers the whole schedule as one window in schedule
    order, so its tap equals the transcript.
    """
    config.validate()
    if channel is None:
        channel = InProcessChannel()
    return _play(config, partial(_exchange_in_process, channel), channel.tap)


def _decodes_exactly(
    decodes: bool, own_ops, labels_a, labels_b, sent: MessageBits | None, table: DecodeTable
) -> list:
    """Per row of the (trials x blocks) codes, whether the party decodes
    `sent` exactly, as documents.decode_ok says it: over the declared bits
    only, so an odd length compares the high bit of the last code. None for
    every row when the party does not decode (`decodes` false) or no
    message was sent."""
    if not decodes or sent is None:
        return [None] * len(labels_a)
    got = _partner_codes(own_ops, labels_a, labels_b, table)
    want = _message_codes(sent)
    whole = sent.declared_length // 2
    exact = (got[:, :whole] == want[:whole]).all(axis=1)
    if sent.declared_length % 2:
        exact &= (got[:, whole] >> 1) == (want[whole] >> 1)
    return exact.tolist()


def run_trials(config: SessionConfig, n_trials: int) -> tuple[list, list, list, list]:
    """Sessions 0..n_trials-1 of `config`: trial t runs under the seed
    _spawn_seeds derives from (config.seed, t). Gives four columns, entry
    t of each for trial t: seeds, decode_ok_alice, decode_ok_bob and
    session ids, each as run_session of the config with that seed and
    documents.decode_ok would give it.

    The trials are sampled and decoded as rows of (trials x blocks) code
    arrays, in chunks of at most _TRIAL_CHUNK_BLOCKS blocks. No trial
    builds an announcement schedule or exchanges it: decoding reads the
    label columns, and an in-process exchange hands the schedule back
    untouched.
    """
    if not 0 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must be in 0..{MAX_TRIALS}, got {n_trials}")
    config.validate()  # reads no seed, so one check holds for every trial
    table = generate_decode_table()
    public_fields = _public_fields(config)  # the same for every trial
    step = max(1, _TRIAL_CHUNK_BLOCKS // max(config.usable_blocks, 1))
    seeds, ok_alice, ok_bob = [], [], []
    for start in range(0, n_trials, step):
        chunk = _spawn_seeds(config.seed, start, min(start + step, n_trials))
        op_a, op_b, label_a, label_b = _block_codes(config, chunk)
        ok_alice += _decodes_exactly(
            config.bob_sends, op_a, label_a, label_b, config.bob_message, table
        )
        ok_bob += _decodes_exactly(
            config.alice_sends, op_b, label_a, label_b, config.alice_message, table
        )
        seeds += chunk.tolist()
    return seeds, ok_alice, ok_bob, [_session_token(seed, public_fields) for seed in seeds]


def replay(transcript: Transcript, blocks) -> SessionResult:
    """Re-derive decoded messages from a transcript plus the parties'
    private block records, without re-sampling anything.

    Every cross-check failure raises ReplayError naming the block: announced
    labels must match the recorded outcomes, the announcement pattern must
    match the session mode, and each recorded outcome must lie in the
    outcome column of the recorded operations.
    """
    blocks = tuple(blocks)
    return _replay_codes(transcript, [rec.index for rec in blocks], _record_codes(blocks))


def _replay_codes(transcript: Transcript, indices: list, codes: np.ndarray) -> SessionResult:
    """replay of blocks given as their index values and the six code rows
    of _record_codes. Each check runs over whole rows. The failure raised
    is the one a walk of the blocks in order meets first: at the lowest
    block, the index, then the flags, then side A's and side B's label,
    then the outcome column."""
    table = generate_decode_table()
    n = transcript.usable_blocks
    if len(indices) != n:
        raise ReplayError(f"{len(indices)} records for {n} blocks", 0)
    measured = [transcript.measured(side) for side in SIDES]
    pattern = SessionConfig(
        transcript.n_pairs, transcript.mode, transcript.fallback
    ).announce_pattern()
    announced = []  # per side: the announced label code of each block, -1 for none
    for side, announces, (got, labels) in zip(SIDES, pattern, measured):
        column = np.full(n, -1, dtype=np.intp)
        inside = (got >= 1) & (got <= n) & announces
        column[got[inside] - 1] = labels[inside]
        missing = np.flatnonzero(column < 0)[:1] + 1 if announces else []
        odd = [*got[~inside].tolist(), *missing]
        if odd:
            raise ReplayError(f"side {side} announcement pattern is inconsistent", int(min(odd)))
        announced.append(column)

    op_a, op_b, label_a, label_b, flag_a, flag_b = codes
    composite = table.composite_codes[np.maximum(op_a, 0), np.maximum(op_b, 0)]
    first_bad_index = n + 1 if indices == list(range(1, n + 1)) else next(
        pos for pos, index in enumerate(indices, start=1) if index != pos)
    firsts = [first_bad_index] + [
        int(np.argmax(bad)) + 1 if bad.any() else n + 1
        for bad in (  # each check of the walk of a block, in its order
            (flag_a != pattern[0]) | (flag_b != pattern[1]),
            (announced[0] != label_a) & pattern[0],
            (announced[1] != label_b) & pattern[1],
            table.infer_codes[label_a, label_b] != composite,
        )
    ]
    pos = min(firsts)
    if pos <= n:
        at, index = pos - 1, indices[pos - 1]
        raise ReplayError(*[
            (f"record index {index} out of order", pos),
            ("announced flags disagree with the session mode", pos),
            *((f"side {side} announced {ENCODING_ORDER[column[at]].value}, "
               f"record says {ENCODING_ORDER[recorded[at]].value}", index)
              for side, column, recorded in zip(SIDES, announced, (label_a, label_b))),
            (f"outcome {_OUTCOMES[4 * label_a[at] + label_b[at]]!r} is outside the "
             f"{ENCODING_ORDER[composite[at]].value} column of the recorded operations", index),
        ][firsts.index(pos)])
    columns = BlockColumns((op_a, op_b, label_a, label_b), pattern)
    return SessionResult(*_decode(transcript, columns, table), columns, transcript)


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
        "ops": _message_codes(message).tolist() if has_message else None,
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
            or ops and (set(map(type, ops)) != {int} or min(ops) < 0 or max(ops) > 3)):
        raise SessionError(
            f"invalid substrate hello: ops must be {n_ops} integers in 0..3"
        )
    try:
        return _message_from_codes(np.array(ops, dtype=np.intp), length)
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
    result = _play(full, partial(_exchange_remote, side, endpoint), endpoint.tap)
    substrate.finish()  # after the exchange: a peer may hold its link open until then
    return result
