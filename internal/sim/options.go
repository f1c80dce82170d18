package sim

import (
	"fmt"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/qos"
	"dramstacks/internal/stacks"
)

// Observer receives progress callbacks from a running System. It is the
// single observation surface of a run: through-time samples as they are
// cut, periodic progress, and early-stop notification. Implementations
// embed BaseObserver and override what they need.
//
// Callbacks run synchronously on the simulation goroutine; long work
// belongs on the observer's side of a channel.
type Observer interface {
	// Sample receives each through-time sample (aggregated over all
	// channels) as soon as it is cut. Requires a positive sample
	// interval.
	Sample(s stacks.Sample)
	// Progress reports the simulated memory cycle after new samples
	// were published and once more when the run ends. budget is the
	// configured MaxMemCycles (0 = run to completion).
	Progress(memCycle, budget int64)
	// Cancelled reports that RunContext stopped early because its
	// context was cancelled, with the last simulated memory cycle.
	Cancelled(memCycle int64)
}

// BaseObserver is a no-op Observer for embedding.
type BaseObserver struct{}

// Sample implements Observer.
func (BaseObserver) Sample(stacks.Sample) {}

// Progress implements Observer.
func (BaseObserver) Progress(int64, int64) {}

// Cancelled implements Observer.
func (BaseObserver) Cancelled(int64) {}

// sampleFunc adapts a plain function to a sample-only Observer.
type sampleFunc struct {
	BaseObserver
	fn func(stacks.Sample)
}

func (s sampleFunc) Sample(sm stacks.Sample) { s.fn(sm) }

// builder accumulates options for New.
type builder struct {
	cfg       Config
	cfgSet    bool
	sources   []cpu.Source
	observers []Observer
	mutators  []func(*Config)
	arena     *Arena
}

// Option configures a System assembled by New.
type Option func(*builder)

// WithSources sets the per-core instruction sources. The number of
// sources determines the core count (unless overridden by WithConfig).
func WithSources(srcs ...cpu.Source) Option {
	return func(b *builder) { b.sources = srcs }
}

// WithConfig replaces the DefaultFor-derived base configuration
// entirely. It exists as the bridge for spec-driven callers that
// assemble a Config elsewhere; later options still apply on top.
func WithConfig(cfg Config) Option {
	return func(b *builder) { b.cfg, b.cfgSet = cfg, true }
}

// WithChannels sets the number of memory channels.
func WithChannels(n int) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { c.Channels = n })
	}
}

// WithMapping selects the address-indexing scheme.
func WithMapping(m Mapping) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { c.Map = m })
	}
}

// WithMaxMemCycles bounds the run (0 = run until the workload
// finishes).
func WithMaxMemCycles(n int64) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { c.MaxMemCycles = n })
	}
}

// WithSampleInterval cuts through-time samples every n memory cycles
// (0 disables).
func WithSampleInterval(n int64) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { c.SampleInterval = n })
	}
}

// WithPrewarmOps functionally pre-warms the caches with n memory
// operations per core before timing starts.
func WithPrewarmOps(n int64) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { c.PrewarmOps = n })
	}
}

// WithTrace streams every issued DRAM command to fn.
func WithTrace(fn func(cycle int64, cmd dram.Command)) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { c.Trace = fn })
	}
}

// WithCtrl applies f to the memory-controller configuration (page
// policy, queue capacities, watermarks, ...).
func WithCtrl(f func(*memctrl.Config)) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { f(&c.Ctrl) })
	}
}

// WithQoS installs a multi-tenant QoS policy on every memory
// controller: per-source stack attribution, and optionally bandwidth
// budgets and a real-time priority tier. Sources are core indices. The
// zero Config leaves the controllers byte-identical to a run without
// QoS.
func WithQoS(q qos.Config) Option {
	return func(b *builder) {
		b.mutators = append(b.mutators, func(c *Config) { c.Ctrl.QoS = q })
	}
}

// WithObserver attaches an Observer to the run. Multiple observers are
// notified in registration order.
func WithObserver(o Observer) Option {
	return func(b *builder) { b.observers = append(b.observers, o) }
}

// WithSampleFunc attaches a sample-only observer; a convenience for the
// common streaming case.
func WithSampleFunc(fn func(stacks.Sample)) Option {
	return func(b *builder) { b.observers = append(b.observers, sampleFunc{fn: fn}) }
}

// New assembles the paper's machine for the given DRAM standard: the
// standard supplies geometry, timing and pseudo-channel topology, the
// options supply the workload sources and any deviations from the
// paper's defaults. It replaces Config field-literal construction:
//
//	sys, err := sim.New(standard.Default(),
//	    sim.WithSources(srcs...),
//	    sim.WithMaxMemCycles(400_000),
//	    sim.WithObserver(obs))
//
// The base configuration is DefaultFor(std, len(sources)); options
// apply in order on top of it.
func New(std standard.Standard, opts ...Option) (*System, error) {
	b := &builder{}
	for _, o := range opts {
		o(b)
	}
	cfg := b.cfg
	if !b.cfgSet {
		cfg = DefaultFor(std, len(b.sources))
	}
	for _, m := range b.mutators {
		m(&cfg)
	}
	if len(b.sources) == 0 {
		return nil, fmt.Errorf("sim: New requires WithSources")
	}
	s, err := newSystem(cfg, b.sources, b.arena)
	if err != nil {
		return nil, err
	}
	s.observers = b.observers
	return s, nil
}
