package sim

import "dramstacks/internal/cache"

// Arena is what a sweep worker keeps from one System to the next instead
// of allocating it per point: the cache hierarchy's slot arrays (4 MB of
// an 8-core machine) and prewarmParallel's record and merge buffers. Pass
// it to New with WithArena; the zero value is ready.
//
// The rule of ownership: an arena belongs to one goroutine and serves one
// live System. Building the next System on it ends the previous one, whose
// RunContext panics from then on. A Result never points into the arena, so
// results outlive it and every later point. An owner whose System panicked
// drops the arena with it.
type Arena struct {
	slots cache.Arena
	warm  warmBuffers
	gen   uint64 // Systems built on the arena
}

// Bytes is the memory the arena holds on to between Systems.
func (a *Arena) Bytes() int64 { return a.slots.Bytes() + a.warm.bytes() }

// Reuses counts the cache slot arrays Systems took over from their
// predecessors instead of allocating.
func (a *Arena) Reuses() int64 { return a.slots.Reuses() }

// issue starts a System's tenancy of the arena, ending the previous one's.
func (a *Arena) issue() uint64 {
	a.gen++
	a.slots.Reset()
	return a.gen
}

// WithArena builds the System on a, reusing what the System a last served
// left behind; that System must not run again. A nil arena, like no
// option, allocates everything afresh.
func WithArena(a *Arena) Option {
	return func(b *builder) { b.arena = a }
}
