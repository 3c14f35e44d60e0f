#!/usr/bin/env python3
"""Fail if any given ELF executable asks for the dynamic loader.

Usage:

    static_link_check.py BINARY...

A dynamically linked executable names its loader in a PT_INTERP
program header; a statically linked one has none. Each BINARY's
program headers are read straight from its ELF header, so the check
needs neither `ldd` nor `readelf`.
"""

import struct
import sys

PT_INTERP = 3


def program_header_types(path):
    """The p_type of every program header of the ELF file at path."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF":
            raise ValueError("not an ELF file")
        elf_class, endian = ident[4], ident[5]
        if elf_class not in (1, 2) or endian not in (1, 2):
            raise ValueError(f"unknown ELF class {elf_class}/data {endian}")
        order = "<" if endian == 1 else ">"
        if elf_class == 2:  # ELF64
            (phoff,) = struct.unpack_from(order + "Q", ident, 0x20)
            phentsize, phnum = struct.unpack_from(order + "HH", ident, 0x36)
        else:  # ELF32
            (phoff,) = struct.unpack_from(order + "I", ident, 0x1C)
            phentsize, phnum = struct.unpack_from(order + "HH", ident, 0x2A)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    if len(table) != phentsize * phnum:
        raise ValueError("program header table past end of file")
    return [struct.unpack_from(order + "I", table, i * phentsize)[0]
            for i in range(phnum)]


def main(paths):
    if not paths:
        print("usage: static_link_check.py BINARY...", file=sys.stderr)
        return 2
    failures = []
    for path in paths:
        try:
            types = program_header_types(path)
        except (OSError, ValueError, struct.error) as e:
            failures.append(f"{path}: {e}")
            continue
        if not types:
            failures.append(f"{path}: no program headers")
        elif PT_INTERP in types:
            failures.append(f"{path}: has a PT_INTERP header "
                            "(dynamically linked)")
    for line in failures:
        print("FAIL", line)
    print(f"{len(paths) - len(failures)}/{len(paths)} binaries "
          "statically linked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
