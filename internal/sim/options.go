package sim

import (
	"fmt"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
)

// builder accumulates options for New.
type builder struct {
	cfg      Config
	cfgSet   bool
	sources  []cpu.Source
	onSample func(stacks.Sample)
	arena    *Arena
}

// Option configures a System assembled by New.
type Option func(*builder)

// WithSources sets the per-core instruction sources. The number of
// sources determines the core count (unless overridden by WithConfig).
func WithSources(srcs ...cpu.Source) Option {
	return func(b *builder) { b.sources = srcs }
}

// WithConfig replaces the DefaultFor-derived base configuration
// entirely: callers start from DefaultFor and set the fields they vary.
func WithConfig(cfg Config) Option {
	return func(b *builder) { b.cfg, b.cfgSet = cfg, true }
}

// WithSampleFunc streams each through-time sample, aggregated over all
// channels, to fn as soon as it is cut (Config.SampleInterval must be
// positive); a nil fn, like no option, streams nothing. fn runs
// synchronously on the simulation goroutine.
func WithSampleFunc(fn func(stacks.Sample)) Option {
	return func(b *builder) { b.onSample = fn }
}

// New assembles the paper's machine for the given DRAM standard from the
// workload sources and, unless WithConfig replaces it, the base
// configuration DefaultFor(std, len(sources)):
//
//	cfg := sim.DefaultFor(std, len(srcs))
//	cfg.MaxMemCycles = 400_000
//	sys, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...))
func New(std standard.Standard, opts ...Option) (*System, error) {
	b := &builder{}
	for _, o := range opts {
		o(b)
	}
	cfg := b.cfg
	if !b.cfgSet {
		cfg = DefaultFor(std, len(b.sources))
	}
	if len(b.sources) == 0 {
		return nil, fmt.Errorf("sim: New requires WithSources")
	}
	s, err := newSystem(cfg, b.sources, b.arena)
	if err != nil {
		return nil, err
	}
	s.onSample = b.onSample
	return s, nil
}
