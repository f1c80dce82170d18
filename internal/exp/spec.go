package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/gap"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/qos"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// DefaultBudget is the memory-cycle budget a spec gets when none is
// given (mirrors the cmd/dramstacks -cycles flag default).
const DefaultBudget = 500_000

// BudgetUnlimited requests running the workload to completion instead of
// stopping on a cycle budget (only meaningful for finite workloads such
// as GAP kernels and traces).
const BudgetUnlimited = -1

// SpecVersion is the current experiment-schema version. Specs and
// sweeps carry an explicit "version" field; 0 (elided) means the
// current version, anything else is rejected so that a future v2 can
// change field semantics without silently misreading old documents.
const SpecVersion = 1

// Spec is a portable, JSON-serializable experiment description shared by
// cmd/dramstacks (one flag per field) and the dramstacksd service (POST
// /v1/jobs body). The zero value of every field means "default"; see
// Normalized for the resolution rules.
type Spec struct {
	// Version is the spec-schema version (0 or SpecVersion).
	Version int `json:"version,omitempty"`
	// Workload is a synthetic pattern (seq, random, strided), a STREAM
	// kernel (copy, scale, add, triad), a GAP kernel (bc, bfs, cc, pr,
	// sssp, tc), or a comma mix of synthetic/STREAM kinds assigned to
	// cores round-robin (e.g. "seq,random").
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`    // default 1
	Channels int    `json:"channels"` // default 1
	// Stores is the store fraction for synthetic workloads (0..1).
	Stores float64 `json:"stores"`
	// Policy is the page policy: "open" or "closed" (default: open;
	// GAP kernels default closed, tc open).
	Policy string `json:"policy"`
	// Mapping is the address mapping: "def", "int" or "xor".
	Mapping string `json:"map"`
	// Standard names the DRAM standard preset the machine is built from
	// (see internal/dram/standard); "" means ddr4-2400, the paper's
	// configuration. The default is elided from the canonical encoding so
	// pre-standard specs keep their hashes.
	Standard string `json:"standard,omitempty"`
	// Budget is the memory-cycle budget. 0 means DefaultBudget;
	// BudgetUnlimited (-1) runs the workload to completion.
	Budget int64 `json:"cycles"`
	// Sample is the through-time sample interval in memory cycles
	// (0 = sampling off).
	Sample int64 `json:"sample"`
	// Scale is the Kronecker graph scale for GAP kernels (default 17).
	Scale int `json:"scale"`
	// WriteQueue overrides the write-queue capacity for GAP kernels when
	// positive (the paper's wq128 variant).
	WriteQueue int `json:"wq"`
	// QoS is the multi-tenant policy in the internal/qos grammar
	// ("win=2048,cap=1:16,rt=0"): per-core bandwidth budgets over a
	// regulation window and a real-time priority tier, with per-source
	// stack attribution. Empty (the default) disables QoS and is elided
	// from the canonical encoding, so pre-QoS specs keep their hashes.
	QoS string `json:"qos,omitempty"`
}

func isSynthWorkload(w string) bool {
	switch w {
	case "seq", "random", "strided", "latcrit", "bwhog":
		return true
	}
	return false
}

func isStreamWorkload(w string) bool {
	switch w {
	case "copy", "scale", "add", "triad":
		return true
	}
	return false
}

func isGapWorkload(w string) bool {
	for _, b := range gap.Benchmarks() {
		if b == w {
			return true
		}
	}
	return false
}

func isMixWorkload(w string) bool { return strings.Contains(w, ",") }

// Normalized resolves every defaulted field to its explicit value and
// zeroes fields that do not apply to the workload (Scale and WriteQueue
// outside GAP, Stores outside pure synthetic patterns), so that two
// specs describing the same experiment normalize identically. It is the
// basis of the canonical encoding and therefore of the spec hash.
func (s Spec) Normalized() Spec {
	n := s
	if n.Version == 0 {
		n.Version = SpecVersion
	}
	n.Workload = strings.TrimSpace(n.Workload)
	if n.Workload == "" {
		n.Workload = "seq"
	}
	if isMixWorkload(n.Workload) {
		parts := strings.Split(n.Workload, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		n.Workload = strings.Join(parts, ",")
	}
	if n.Cores == 0 {
		n.Cores = 1
	}
	// A parseable policy is rewritten in the grammar's canonical
	// directive order so equivalent spellings hash identically; an
	// unparseable one is left as-is for Validate to report.
	n.QoS = strings.TrimSpace(n.QoS)
	if q, err := qos.Parse(n.QoS, n.Cores); err == nil {
		n.QoS = q.String()
	}
	if n.Channels == 0 {
		n.Channels = 1
	}
	if n.Mapping == "" {
		n.Mapping = "def"
	}
	n.Standard = strings.ToLower(strings.TrimSpace(n.Standard))
	if n.Standard == "" {
		n.Standard = standard.DefaultName
	}
	if n.Budget == 0 {
		n.Budget = DefaultBudget
	} else if n.Budget < 0 {
		n.Budget = BudgetUnlimited
	}
	if n.Policy == "" {
		n.Policy = "open"
		if isGapWorkload(n.Workload) && n.Workload != "tc" {
			n.Policy = "closed"
		}
	}
	if isGapWorkload(n.Workload) {
		if n.Scale == 0 {
			n.Scale = 17
		}
		n.Stores = 0
	} else {
		n.Scale = 0
		n.WriteQueue = 0
		if !isSynthWorkload(n.Workload) {
			n.Stores = 0
		}
	}
	return n
}

// Validate reports a descriptive error for unusable specs. It expects a
// normalized spec; Canonical, Hash and RunSpec normalize first.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("exp: unsupported spec version %d (this build speaks version %d)", s.Version, SpecVersion)
	}
	switch {
	case isMixWorkload(s.Workload):
		for _, kind := range strings.Split(s.Workload, ",") {
			if !isSynthWorkload(kind) && !isStreamWorkload(kind) {
				return fmt.Errorf("exp: unknown mix component %q (synthetic and STREAM kinds only)", kind)
			}
		}
	case isSynthWorkload(s.Workload), isStreamWorkload(s.Workload), isGapWorkload(s.Workload):
	default:
		return fmt.Errorf("exp: unknown workload %q (want seq, random, strided, a STREAM kernel, one of %v, or a comma mix)",
			s.Workload, gap.Benchmarks())
	}
	if s.Cores < 1 || s.Cores > 8 {
		return fmt.Errorf("exp: cores must be in 1..8, got %d", s.Cores)
	}
	if s.Channels < 1 || s.Channels > 8 {
		return fmt.Errorf("exp: channels must be in 1..8, got %d", s.Channels)
	}
	if s.Stores < 0 || s.Stores > 1 {
		return fmt.Errorf("exp: store fraction must be in 0..1, got %g", s.Stores)
	}
	switch s.Policy {
	case "open", "closed":
	default:
		return fmt.Errorf("exp: unknown policy %q (want open or closed)", s.Policy)
	}
	switch s.Mapping {
	case "def", "int", "xor":
	default:
		return fmt.Errorf("exp: unknown mapping %q (want def, int or xor)", s.Mapping)
	}
	if _, err := standard.Lookup(s.Standard); err != nil {
		return err
	}
	if s.Budget < BudgetUnlimited {
		return fmt.Errorf("exp: budget must be positive, 0 (default) or -1 (unlimited), got %d", s.Budget)
	}
	if s.Sample < 0 {
		return fmt.Errorf("exp: sample interval must be non-negative, got %d", s.Sample)
	}
	if s.WriteQueue < 0 {
		return fmt.Errorf("exp: write queue override must be non-negative, got %d", s.WriteQueue)
	}
	if isGapWorkload(s.Workload) && (s.Scale < 4 || s.Scale > 24) {
		return fmt.Errorf("exp: GAP graph scale must be in 4..24, got %d", s.Scale)
	}
	if _, err := qos.Parse(s.QoS, s.Cores); err != nil {
		return err
	}
	return nil
}

// Canonical returns the deterministic canonical JSON encoding of the
// spec: defaults made explicit, irrelevant fields zeroed, keys sorted,
// no insignificant whitespace. Two specs describing the same experiment
// — whatever the field order or elided defaults of their original JSON —
// canonicalize to the same bytes.
func (s Spec) Canonical() ([]byte, error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	// What encoding/json writes for a map of the fields, byte for byte.
	b := make([]byte, 0, 192)
	num := func(key string, v int64) { b = strconv.AppendInt(append(b, key...), v, 10) }
	str := func(key, v string) { b = appendJSONString(append(b, key...), v) }
	num(`{"channels":`, int64(n.Channels))
	num(`,"cores":`, int64(n.Cores))
	num(`,"cycles":`, n.Budget)
	str(`,"map":`, n.Mapping)
	str(`,"policy":`, n.Policy)
	// An empty QoS policy and, below, the default standard are elided: specs
	// older than the fields keep their bytes, so their hash and cached results.
	if n.QoS != "" {
		str(`,"qos":`, n.QoS)
	}
	num(`,"sample":`, n.Sample)
	num(`,"scale":`, int64(n.Scale))
	if n.Standard != standard.DefaultName {
		str(`,"standard":`, n.Standard)
	}
	b, err := appendJSONFloat(append(b, `,"stores":`...), n.Stores)
	if err != nil {
		return nil, err
	}
	num(`,"version":`, int64(n.Version))
	str(`,"workload":`, n.Workload)
	num(`,"wq":`, int64(n.WriteQueue))
	return append(b, '}'), nil
}

// appendJSONString appends s as encoding/json writes it. A valid spec has
// only plain ASCII, copied between quotes; anything else is json's to write.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendJSONFloat appends f as encoding/json writes it: 'f' format from 1e-6;
// the 'e' format below that and NaN's error (Validate lets NaN by) are json's.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if f == 0 || 1e-6 <= f && f < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	e, err := json.Marshal(f)
	return append(b, e...), err
}

// Hash returns the content address of the spec: the hex SHA-256 of its
// canonical encoding. It keys the service result cache and is stamped
// into result JSON as spec_hash.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Label returns the human-readable experiment label used in charts and
// result JSON, in the style of the paper figures ("sequential 4c"). A
// non-default DRAM standard is appended ("sequential 4c ddr5-4800").
func (s Spec) Label() string {
	n := s.Normalized()
	var lbl string
	switch {
	case isMixWorkload(n.Workload):
		lbl = fmt.Sprintf("mix(%s) %dc", n.Workload, n.Cores)
	case n.Workload == "latcrit", n.Workload == "bwhog":
		lbl = fmt.Sprintf("%s %dc", n.Workload, n.Cores)
	case isSynthWorkload(n.Workload):
		lbl = fmt.Sprintf("%s %dc", synthPattern(n.Workload), n.Cores)
	case isStreamWorkload(n.Workload):
		lbl = fmt.Sprintf("stream-%s %dc", n.Workload, n.Cores)
	default:
		lbl = fmt.Sprintf("%s %dc", n.Workload, n.Cores)
	}
	if n.Standard != standard.DefaultName {
		lbl += " " + n.Standard
	}
	if n.QoS != "" {
		lbl += " qos(" + n.QoS + ")"
	}
	return lbl
}

func synthPattern(w string) workload.Pattern {
	switch w {
	case "random":
		return workload.Random
	case "strided":
		return workload.Strided
	default:
		return workload.Sequential
	}
}

func streamKind(w string) workload.StreamKind {
	switch w {
	case "scale":
		return workload.StreamScale
	case "add":
		return workload.StreamAdd
	case "triad":
		return workload.StreamTriad
	default:
		return workload.StreamCopy
	}
}

// SpecStandard resolves the DRAM standard a spec runs on (the default
// standard for pre-standard specs). Callers that need per-spec geometry
// — e.g. the service's sample conversion — go through this so their view
// matches what RunSpec simulates.
func SpecStandard(s Spec) (standard.Standard, error) {
	return standard.Lookup(s.Normalized().Standard)
}

// RunOptions carries the side-channel hooks of a spec run.
type RunOptions struct {
	// Trace, if non-nil, receives every issued DRAM command.
	Trace func(cycle int64, cmd dram.Command)
	// OnSample, if non-nil, receives each through-time sample as soon as
	// it is cut (requires Spec.Sample > 0).
	OnSample func(s stacks.Sample)
	// Arena, if non-nil, is the caller's sim.Arena: the machine is built
	// on what the caller's previous run left in it (see sim.WithArena for
	// the rule of ownership). The result is the same with or without one.
	Arena *sim.Arena
}

// RunSpec normalizes and validates the spec, assembles the machine and
// runs it under ctx. Cancelling ctx stops the simulation promptly; the
// partial result is returned with Cancelled set rather than an error.
// This is the single spec→simulation path, shared by cmd/dramstacks, the
// dramstacksd service and the paper's figures, so their results are
// byte-identical for identical specs.
func RunSpec(ctx context.Context, spec Spec, opt RunOptions) (*sim.Result, error) {
	n := spec.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}

	budget := n.Budget
	if budget == BudgetUnlimited {
		budget = 0 // sim.Config: 0 = run to completion
	}
	std, err := standard.Lookup(n.Standard)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultFor(std, n.Cores)
	cfg.Channels = n.Channels
	switch n.Mapping {
	case "int":
		cfg.Map = sim.MapInterleaved
	case "xor":
		cfg.Map = sim.MapXOR
	}
	cfg.Ctrl.Policy = memctrl.OpenPage
	if n.Policy == "closed" {
		cfg.Ctrl.Policy = memctrl.ClosedPage
	}
	if n.QoS != "" {
		q, err := qos.Parse(n.QoS, n.Cores)
		if err != nil {
			return nil, err
		}
		cfg.Ctrl.QoS = q
	}
	cfg.MaxMemCycles = budget
	cfg.SampleInterval = n.Sample
	cfg.Trace = opt.Trace

	var sources []cpu.Source
	switch {
	case isMixWorkload(n.Workload):
		var err error
		if sources, err = mixSources(n.Workload, n.Cores); err != nil {
			return nil, err
		}
	case n.Workload == "latcrit" || n.Workload == "bwhog":
		cfg.PrewarmOps = 1 << 20
		sources = tenantSources(n.Workload, n.Cores, n.Stores)
	case isSynthWorkload(n.Workload):
		cfg.PrewarmOps = 1 << 20
		sources = sim.SyntheticSources(synthPattern(n.Workload), n.Cores, n.Stores)
	case isStreamWorkload(n.Workload):
		cfg.PrewarmOps = 1 << 20
		sources = workload.StreamSources(streamKind(n.Workload), n.Cores)
	default: // GAP kernel
		g, err := buildGraph(n.Workload, n.Scale)
		if err != nil {
			return nil, err
		}
		runner, _, err := gap.Build(n.Workload, g, n.Cores)
		if err != nil {
			return nil, err
		}
		if n.WriteQueue > 0 {
			cfg.Ctrl.WriteQueueCap = n.WriteQueue
			cfg.Ctrl.WriteHi = n.WriteQueue * 3 / 4
			cfg.Ctrl.WriteLo = n.WriteQueue / 4
		}
		sources = runner.Sources()
	}

	opts := []sim.Option{sim.WithConfig(cfg), sim.WithSources(sources...), sim.WithArena(opt.Arena)}
	if opt.OnSample != nil {
		opts = append(opts, sim.WithSampleFunc(opt.OnSample))
	}
	sys, err := sim.New(std, opts...)
	if err != nil {
		return nil, err
	}
	res := sys.RunContext(ctx)
	if len(res.Violations) > 0 {
		return nil, fmt.Errorf("exp: DRAM timing violation: %v", res.Violations[0])
	}
	return res, nil
}

// PanicError is a panic inside a simulation, one of the simulator's
// invariants failing, as RunRecovered reports it.
type PanicError struct {
	Value any    // what was passed to panic
	Stack []byte // the panicking goroutine's stack, for the log
}

func (e *PanicError) Error() string { return fmt.Sprintf("exp: simulation panicked: %v", e.Value) }

// RunRecovered calls run, a RunSpec call, and returns a panic inside it
// as a *PanicError: a pool worker fails the one point and lives on. The
// sim.Arena the run was given is then in an unknown state, and its owner
// must drop it.
func RunRecovered(run func() (*sim.Result, error)) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return run()
}

// tenantSources builds the QoS tenant streams ("latcrit" / "bwhog") for
// every core, each with a private region staggered by one DRAM page.
func tenantSources(kind string, cores int, stores float64) []cpu.Source {
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		wc := workload.DefaultLatCrit()
		if kind == "bwhog" {
			wc = workload.DefaultBWHog()
		}
		wc.StoreFrac = stores
		wc.BaseAddr = uint64(i)*(256<<20) + uint64(i)*8192
		wc.Seed = int64(i + 1)
		sources = append(sources, workload.MustSynthetic(wc))
	}
	return sources
}

// mixSources assigns the comma-separated workload kinds to cores
// round-robin, each with a private region staggered by one DRAM page.
func mixSources(mix string, cores int) ([]cpu.Source, error) {
	kinds := strings.Split(mix, ",")
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		kind := kinds[i%len(kinds)]
		base := uint64(i)*(512<<20) + uint64(i)*8192
		switch {
		case isSynthWorkload(kind):
			var wc workload.SyntheticConfig
			switch kind {
			case "seq":
				wc = workload.DefaultSequential()
			case "random":
				wc = workload.DefaultRandom()
			case "latcrit":
				wc = workload.DefaultLatCrit()
			case "bwhog":
				wc = workload.DefaultBWHog()
			default:
				wc = workload.DefaultStrided()
			}
			wc.BaseAddr = base
			wc.Seed = int64(i + 1)
			sources = append(sources, workload.MustSynthetic(wc))
		case isStreamWorkload(kind):
			sc := workload.DefaultStream(streamKind(kind))
			sc.BaseAddr = base
			sources = append(sources, workload.MustStream(sc))
		default:
			return nil, fmt.Errorf("exp: unknown mix component %q (synthetic and STREAM kinds only)", kind)
		}
	}
	return sources, nil
}
