// Package dramstacks reproduces "DRAM Bandwidth and Latency Stacks:
// Visualizing DRAM Bottlenecks" (Eyerman, Heirman, Hur — ISPASS 2022) as
// a Go library: a DDR4 device timing model, an FR-FCFS memory
// controller, an out-of-order multicore model with a three-level cache
// hierarchy, the GAP graph benchmark kernels, and — the paper's
// contribution — bandwidth stacks, latency stacks and the stack-based
// bandwidth extrapolation method.
//
// Start with examples/quickstart, or regenerate the data behind every
// figure of the paper's evaluation:
//
//	go run ./cmd/paperfigs -fig all -out results
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison.
package dramstacks
