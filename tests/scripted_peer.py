"""Side B of a two-process session, scripted from a stored run.

    python tests/scripted_peer.py RUN.json PORT BOB_MSG respell
    python tests/scripted_peer.py RUN.json PORT BOB_MSG trailing-byte

Connects to `swapcomm serve` on 127.0.0.1:PORT and sends side B's substrate
hello for the session in RUN.json's session section, with BOB_MSG as B's
message. Then, per window of schedule lines of RUN.json's transcript (a
`simulate` run of the same session), it reads A's lines, which must be the
run's, and sends B's.

respell        Each of B's lines goes out with a space after every
               separator. No line is then the text serve expects, so serve
               reads each through the strict parse. Serve must then end
               the stream with no byte more.
trailing-byte  B's lines go out as the run has them, then one byte past
               the last line. Serve ends the stream once it has read it.

A line from serve that is not the run's fails an assertion (exit 1).
"""
import argparse
import json
import socket

from swapcomm.channel import PUBLIC_PREAMBLE, SUBSTRATE_PREAMBLE, TCP_WINDOW_LINES, SubstrateLink
from swapcomm.protocol import (
    SessionConfig,
    SessionMode,
    SilentFallback,
    parse_message,
    substrate_hello,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run")
    parser.add_argument("port", type=int)
    parser.add_argument("bob_msg")
    parser.add_argument("case", choices=["respell", "trailing-byte"])
    args = parser.parse_args()

    with open(args.run) as run:
        doc = json.load(run)
    lines, session = doc["transcript"], doc["session"]
    config = SessionConfig(
        n_pairs=session["n_pairs"],
        mode=SessionMode(session["mode"]),
        fallback=SilentFallback(session["fallback"]),
        seed=session["seed"],
        bob_message=parse_message(args.bob_msg),
    )
    links = []
    for preamble in (SUBSTRATE_PREAMBLE, PUBLIC_PREAMBLE):
        links.append(socket.create_connection(("127.0.0.1", args.port), timeout=30))
        links[-1].sendall(preamble)
    substrate, public = SubstrateLink(links[0], timeout=30), links[1]
    substrate.send_hello(substrate_hello("B", config))
    substrate.receive_hello(1 << 16)
    reader = public.makefile("rb")
    for start in range(0, len(lines), TCP_WINDOW_LINES):
        window = lines[start:start + TCP_WINDOW_LINES]
        sides = [json.loads(line)["side"] for line in window]
        for line in (line for line, side in zip(window, sides) if side == "A"):
            assert reader.readline() == line.encode() + b"\n"
        mine = [line for line, side in zip(window, sides) if side == "B"]
        if args.case == "respell":
            respelled = [json.dumps(json.loads(line)) for line in mine]
            assert not set(respelled) & set(mine)
            mine = respelled
        public.sendall("".join(line + "\n" for line in mine).encode())
    if args.case == "respell":
        assert reader.read() == b""  # serve ends the stream once it has checked every line
    else:
        public.sendall(b"x")
        reader.read()  # serve ends the stream once it has read the byte


if __name__ == "__main__":
    main()
