#!/usr/bin/env python
"""Read monitoring (§5 extension): an uninitialized-read detector.

The paper closes by noting that "some applications of data breakpoints,
such as detecting access anomalies in parallel programs, require the
monitoring of read instructions as well ... Straightforward extensions
of these techniques will handle read instructions as well."

This reproduction implements that extension (``monitor_reads=True``
instruments loads with the same check code, reporting hits with a read
flag).  Here we use it for a classic dynamic check: reading a heap word
before anything was written to it.
"""

from repro.minic.codegen import compile_source
from repro.session import DebugSession

PROGRAM = """
int main() {
    int *block;
    int a;
    int b;
    block = sbrk(32);       // fresh 8-word allocation
    block[0] = 11;
    block[1] = 22;
    a = block[0] + block[1];
    b = block[5];            // BUG: never initialized
    print(a + b);
    return 0;
}
"""


def main():
    asm = compile_source(PROGRAM)
    session = DebugSession.from_asm(asm, strategy="Bitmap",
                                    monitor_reads=True)

    heap_base = session.cpu.mem.brk
    region = session.mrs.create_region(heap_base, 32)
    session.mrs.enable()

    initialized = set()
    anomalies = []

    def on_access(addr, size, is_read):
        word = addr & ~3
        if is_read:
            if word not in initialized:
                anomalies.append(word - heap_base)
        else:
            initialized.add(word)

    session.mrs.add_callback(on_access)
    session.run()

    print("program output:", " ".join(session.output))
    print("monitored accesses:", session.mrs.hit_count(),
          "(reads and writes)")
    for offset in anomalies:
        print("ANOMALY: read of uninitialized heap word at offset %d"
              % offset)
    assert anomalies == [20], anomalies  # block[5] at byte offset 20
    print("uninitialized read caught by read+write monitoring")


if __name__ == "__main__":
    main()
