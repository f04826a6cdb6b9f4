"""Sandboxed execution environments.

Cloud Run offers two sandbox generations (paper §2.3):

* **Gen 1** (:class:`~repro.sandbox.gvisor.GVisorSandbox`): gVisor-style
  userspace kernel around a Linux container.  No hardware virtualization —
  unprivileged instructions like ``rdtsc`` and ``cpuid`` hit real hardware,
  while ``/proc`` and system calls are emulated.
* **Gen 2** (:class:`~repro.sandbox.microvm.MicroVMSandbox`): lightweight VM
  with hardware virtualization.  ``rdtsc`` is subject to TSC offsetting and
  ``cpuid`` is trapped, but the guest kernel exports the host's refined TSC
  frequency and the user has guest-root privileges.

Guest probe programs (see :mod:`repro.core.probes`) run against the common
:class:`~repro.sandbox.base.Sandbox` interface: a view of one instance row
of :mod:`repro.fleet`, drawing through the row's stream.  Neither generation
virtualizes the shared-hardware contention surface, so the covert channel
behaves the same in both.
"""

from repro.sandbox.base import Sandbox, TscPolicy
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox

__all__ = [
    "Sandbox",
    "TscPolicy",
    "GVisorSandbox",
    "MicroVMSandbox",
]
