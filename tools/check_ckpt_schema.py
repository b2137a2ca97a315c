#!/usr/bin/env python3
"""Validate cuttlesim-ckpt-v1 checkpoint files and debugger spill streams.

The binary format (src/replay/checkpoint.cpp, documented field by field
in EXPERIMENTS.md) is:

    "CKPT"                        4-byte magic
    version                       u32 LE, currently 1
    header_len                    u32 LE
    header                        compact JSON descriptor: schema,
                                  design, fingerprint (64 hex chars),
                                  cycle, widths, sections [{name,size}]
                                  with no section name repeated
    register payload              per register, ceil(width/64) words of
                                  8 bytes LE; bits above the declared
                                  width must be zero (canonical form)
    section payloads              concatenated, sizes from the directory
    checksum                      64 lowercase hex chars: SHA-256 over
                                  everything before it

A debugger spill stream (harness::Debugger::enable_spill) is a file of
consecutive [u64 LE record length][checkpoint record] entries; streams
are detected automatically and every record is validated.

This checker is the executable form of that schema: ctest runs it over
checkpoints the CLI writes (label: replay), so a drifting writer fails
the suite instead of silently producing unrestorable files.

Usage: check_ckpt_schema.py FILE.ckpt [FILE.ckpt ...]
       check_ckpt_schema.py --self-test
Exits 0 when every file validates; prints one line per problem.
"""

import hashlib
import json
import struct
import sys

MAGIC = b"CKPT"
VERSION = 1
CHECKSUM_LEN = 64
SCHEMA = "cuttlesim-ckpt-v1"


def validate_record(problems, where, data):
    """Validate one cuttlesim-ckpt-v1 record; append problems found."""
    before = len(problems)

    def err(msg):
        problems.append(f"{where}: {msg}")

    if len(data) < len(MAGIC) + 8 + CHECKSUM_LEN:
        err("too short to be a checkpoint")
        return False
    if data[:4] != MAGIC:
        err("bad magic (not a cuttlesim-ckpt file)")
        return False
    version = struct.unpack_from("<I", data, 4)[0]
    if version != VERSION:
        err(f"unsupported format version {version}")
        return False

    body, checksum = data[:-CHECKSUM_LEN], data[-CHECKSUM_LEN:]
    if hashlib.sha256(body).hexdigest().encode("ascii") != checksum:
        err("checksum mismatch: corrupted or modified after writing")
        return False

    header_len = struct.unpack_from("<I", data, 8)[0]
    pos = len(MAGIC) + 8
    if pos + header_len > len(body):
        err("descriptor extends past end of file")
        return False
    try:
        header = json.loads(body[pos:pos + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        err(f"unparseable descriptor: {e}")
        return False
    pos += header_len

    if not isinstance(header, dict):
        err("descriptor must be a JSON object")
        return False
    if header.get("schema") != SCHEMA:
        err(f"descriptor schema must be '{SCHEMA}', got "
            f"{header.get('schema')!r}")
    for key in ("design", "fingerprint"):
        if not isinstance(header.get(key), str):
            err(f"descriptor field '{key}' must be a string")
    fp = header.get("fingerprint", "")
    if isinstance(fp, str) and (len(fp) != 64 or
                                any(c not in "0123456789abcdef"
                                    for c in fp)):
        err("fingerprint must be 64 lowercase hex chars (SHA-256)")
    if not isinstance(header.get("cycle"), int) or \
            isinstance(header.get("cycle"), bool):
        err("descriptor field 'cycle' must be an integer")
    widths = header.get("widths")
    if not isinstance(widths, list) or \
            any(not isinstance(w, int) or isinstance(w, bool) or w < 0
                for w in widths):
        err("descriptor field 'widths' must be an array of "
            "non-negative integers")
        widths = []
    sections = header.get("sections")
    if not isinstance(sections, list):
        err("descriptor field 'sections' must be an array")
        sections = []

    for w in widths:
        nwords = (w + 63) // 64
        if pos + 8 * nwords > len(body):
            err("register payload extends past end of file")
            return False
        if nwords and w % 64 != 0:
            top = struct.unpack_from("<Q", body,
                                     pos + 8 * (nwords - 1))[0]
            if top >> (w % 64) != 0:
                err(f"non-canonical register payload: bits set above "
                    f"declared width {w}")
        pos += 8 * nwords

    seen = set()
    for i, entry in enumerate(sections):
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("name"), str) or \
                not isinstance(entry.get("size"), int) or \
                isinstance(entry.get("size"), bool) or \
                entry["size"] < 0:
            err(f"malformed section directory entry [{i}]")
            return False
        if entry["name"] in seen:
            err(f"duplicate section '{entry['name']}'")
        seen.add(entry["name"])
        if pos + entry["size"] > len(body):
            err(f"section '{entry['name']}' extends past end of file")
            return False
        pos += entry["size"]

    if pos != len(body):
        err(f"{len(body) - pos} trailing byte(s) after last section")
    return len(problems) == before


def looks_like_spill_stream(data):
    """[u64 LE length][record] entries: magic shows up 8 bytes in."""
    return (len(data) >= 12 and data[:4] != MAGIC and
            data[8:12] == MAGIC)


def check_file(problems, path):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        problems.append(f"{path}: unreadable: {e}")
        return

    if not looks_like_spill_stream(data):
        validate_record(problems, path, data)
        return

    pos, index = 0, 0
    while pos < len(data):
        if len(data) - pos < 8:
            problems.append(f"{path}: spill stream: truncated record "
                            f"length at offset {pos}")
            return
        (length,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if len(data) - pos < length:
            problems.append(f"{path}: spill stream: record [{index}] "
                            f"truncated")
            return
        validate_record(problems, f"{path} record [{index}]",
                        data[pos:pos + length])
        pos += length
        index += 1
    if index == 0:
        problems.append(f"{path}: spill stream holds no records")


def build_test_record(design="probe", cycle=7, widths=(8, 65),
                      sections=(("engine:tier-v1", b"\x01\x02\x03"),)):
    header = {
        "schema": SCHEMA,
        "design": design,
        "fingerprint": "ab" * 32,
        "cycle": cycle,
        "widths": list(widths),
        "sections": [{"name": n, "size": len(b)} for n, b in sections],
    }
    hdr = json.dumps(header, separators=(",", ":")).encode("ascii")
    out = MAGIC + struct.pack("<II", VERSION, len(hdr)) + hdr
    for w in widths:
        out += b"\x00" * (8 * ((w + 63) // 64))
    for _, b in sections:
        out += b
    return out + hashlib.sha256(out).hexdigest().encode("ascii")


def self_test():
    ok = build_test_record()
    problems = []
    validate_record(problems, "valid", ok)
    if problems:
        print("self-test: pristine record failed validation:")
        for p in problems:
            print(f"  {p}")
        return 1

    stream = b""
    for _ in range(3):
        stream += struct.pack("<Q", len(ok)) + ok
    problems = []
    check = []
    if not looks_like_spill_stream(stream):
        check.append("spill stream not detected")
    pos = 0
    check_file_problems = []
    # Reuse the stream walker through a temp-free path: validate inline.
    index = 0
    while pos < len(stream):
        (length,) = struct.unpack_from("<Q", stream, pos)
        pos += 8
        validate_record(check_file_problems, f"record [{index}]",
                        stream[pos:pos + length])
        pos += length
        index += 1
    if check_file_problems or index != 3:
        check.append("valid spill stream failed validation")
    if check:
        for c in check:
            print(f"self-test: {c}")
        return 1

    def corrupt(label, data):
        p = []
        if validate_record(p, label, data):
            print(f"self-test: corruption not detected: {label}")
            return False
        return True

    flipped = bytearray(ok)
    flipped[len(flipped) // 2] ^= 0x40
    noncanon = bytearray(ok)
    # First register is 8 bits wide: set a bit above it in its word.
    hdr_len = struct.unpack_from("<I", ok, 8)[0]
    reg0 = len(MAGIC) + 8 + hdr_len
    noncanon[reg0 + 2] = 0xFF
    body = bytes(noncanon[:-CHECKSUM_LEN])
    noncanon[-CHECKSUM_LEN:] = \
        hashlib.sha256(body).hexdigest().encode("ascii")
    cases = [
        ("bad magic", b"XKPT" + ok[4:]),
        ("bad version", ok[:4] + struct.pack("<I", 9) + ok[8:]),
        ("flipped byte", bytes(flipped)),
        ("truncated", ok[:len(ok) // 2]),
        ("truncated checksum", ok[:-5]),
        ("non-canonical register bits", bytes(noncanon)),
        ("duplicate section name",
         build_test_record(sections=(("env", b"\x01"), ("env", b"\x02")))),
    ]
    if not all(corrupt(label, data) for label, data in cases):
        return 1
    print("self-test: cuttlesim-ckpt-v1 validator detects all "
          f"{len(cases)} corruption cases")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = []
    for path in argv[1:]:
        check_file(problems, path)
    for p in problems:
        print(p)
    if not problems:
        print(f"{len(argv) - 1} checkpoint file(s) validate against "
              f"{SCHEMA}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
