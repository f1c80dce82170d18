//go:build !slowtick

package sim

// defaultSlowTick selects the event loop by default; build with
// -tags=slowtick to default to the reference per-cycle loop instead.
const defaultSlowTick = false
