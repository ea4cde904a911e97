// Package sim provides a deterministic simulated multicore machine: an
// Amdahl-law execution-time model with dynamic core allocation, DVFS, and
// core-failure injection, driven by a virtual clock from package clock.
//
// The paper evaluates Application Heartbeats on an eight-core x86 server by
// measuring heart rate while an external scheduler grants and revokes cores
// (and, in the fault-tolerance study, while cores "die"). This package is
// the substitute substrate for that testbed: every work item carries an
// abstract operation count and a parallel fraction, and executing it
// advances the machine's clock.Virtual by ops / (coreRate × speedup(cores)).
// The feedback loop the paper studies — work → elapsed time → heart rate →
// adaptation → resources → work — is preserved exactly, but runs
// deterministically and in microseconds of host time, independent of host
// core count.
package sim
