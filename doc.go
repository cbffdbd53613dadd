// Package repro is a from-scratch Go reproduction of "Perfectly-Secure
// Synchronous MPC with Asynchronous Fallback Guarantees" (Appan,
// Chandramouli, Choudhury; PODC 2022, arXiv:2201.12194).
//
// The public API lives in the mpc, circuit, field and poly packages;
// the protocol stack (Acast, phase-king SBA, ABA, ΠBC, ΠBA, ΠWPS,
// ΠVSS, ΠACS, the Beaver-triple preprocessing and ΠCirEval) lives
// under internal/. See README.md for the architecture overview and
// docs/ for the design notes. The root-level benchmarks in
// bench_test.go regenerate every experiment row.
package repro
