"""Software trap codes and default host-side handlers.

The debuggee communicates with its host through ``ta`` traps, standing in
for SunOS system calls.  The monitored region service additionally claims
two codes: ``TRAP_MONITOR_HIT`` (raised by write-check code on a monitor
hit, with the target address in ``%g4`` and the access size in ``%g6``)
and ``TRAP_FAULT`` (raised by control-flow verification code when an
indirect jump or a ``%fp`` definition fails validation, §4.2).
"""

from __future__ import annotations

from typing import List

from repro.errors import ReproError
from repro.isa.instructions import to_signed
from repro.machine.cpu import CPU

TRAP_EXIT = 0x00
TRAP_PRINT_INT = 0x01
TRAP_PRINT_CHAR = 0x02
TRAP_SBRK = 0x03
TRAP_MONITOR_HIT = 0x42
TRAP_FAULT = 0x43

#: register protocol for TRAP_MONITOR_HIT
HIT_ADDR_REG = 4  # %g4 — reserved target-address register
HIT_SIZE_REG = 6  # %g6 — access size in bytes


class DebuggeeFault(ReproError):
    """Raised when MRS verification code detects control-flow corruption."""


def install_host_handlers(cpu: CPU) -> List[str]:
    """Install exit / print / sbrk handlers; returns the output list."""
    sink: List[str] = []

    def handle_exit(c: CPU) -> None:
        c.stop(to_signed(c.regs.read(8)))  # %o0

    def handle_print_int(c: CPU) -> None:
        sink.append(str(to_signed(c.regs.read(8))))

    def handle_print_char(c: CPU) -> None:
        sink.append(chr(c.regs.read(8) & 0xFF))

    def handle_sbrk(c: CPU) -> None:
        size = c.regs.read(8)
        c.regs.write(8, c.mem.sbrk(size))

    def handle_fault(c: CPU) -> None:
        raise DebuggeeFault("MRS verification trap at pc 0x%x" % c.pc)

    cpu.trap_handlers[TRAP_EXIT] = handle_exit
    cpu.trap_handlers[TRAP_PRINT_INT] = handle_print_int
    cpu.trap_handlers[TRAP_PRINT_CHAR] = handle_print_char
    cpu.trap_handlers[TRAP_SBRK] = handle_sbrk
    cpu.trap_handlers[TRAP_FAULT] = handle_fault
    return sink
