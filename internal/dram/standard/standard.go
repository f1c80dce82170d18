// Package standard is a registry of DRAM standards: named presets that
// bundle a channel Geometry, a Timing set and the bus/topology knobs
// (bank groups, ranks, pseudo-channels, burst length, data rate) that
// distinguish one JEDEC standard from another.
//
// The constraint core in internal/dram is standard-agnostic — it only
// evaluates next-allowed-time rules over whatever Geometry and Timing it
// is given. A Standard is therefore pure data: DDR5, LPDDR5 and HBM2 are
// parameter presets over the same engine, in the spirit of Ramulator's
// composable device model. The presets are one table (presets.go) written
// the way the standards write them — clock counts where the standard
// states clocks, max(n nCK, t ps) elsewhere, each row naming its
// standard, speed bin, density and page size — and Timing is derived from
// it once, at init, by one rounding rule. Every preset is validated on
// registration (Geometry.Validate + Timing.Validate), so an ill-formed
// standard is a startup panic, not a silent mis-simulation.
//
// HBM pseudo-channels are modeled with SubChannels: each pseudo-channel
// is an independently timed device with its own bus, so a Standard with
// SubChannels=2 contributes two constraint-core instances per addressed
// channel, and the pseudo-channel select bit sits directly above the
// cache-line offset in the address map.
package standard

import (
	"fmt"
	"sort"
	"strings"

	"dramstacks/internal/dram"
)

// DefaultName is the standard assumed when a spec or config names none:
// the DDR4-2400 configuration evaluated in the paper.
const DefaultName = "ddr4-2400"

// Standard is one registered DRAM standard: a Geometry + Timing preset
// plus the topology knobs the rest of the stack needs to instantiate it.
type Standard struct {
	// Name is the registry key, e.g. "ddr4-2400". Lower-case, stable,
	// and used verbatim in exp.Spec's "standard" field.
	Name string
	// Family groups speed grades of one JEDEC standard, e.g. "DDR4".
	Family string
	// Description is a one-line human summary for listings.
	Description string

	// Geometry describes one independently timed device: a channel for
	// DDR-class parts, a pseudo-channel for HBM.
	Geometry dram.Geometry
	// Timing holds the standard's timing parameters in memory-clock
	// cycles of Geometry.ClockMHz.
	Timing dram.Timing
	// SubChannels is the number of independently timed sub-devices
	// behind each addressed channel: 1 for DDR-class standards, 2 for
	// HBM2 pseudo-channel mode.
	SubChannels int
}

// Validate reports a descriptive error if the preset is unusable.
func (s Standard) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("standard: preset needs a name")
	}
	if s.Name != strings.ToLower(s.Name) {
		return fmt.Errorf("standard: name %q must be lower-case", s.Name)
	}
	if s.SubChannels <= 0 {
		return fmt.Errorf("standard: %s: sub-channels must be positive, got %d", s.Name, s.SubChannels)
	}
	if err := s.Geometry.Validate(); err != nil {
		return fmt.Errorf("standard: %s: %w", s.Name, err)
	}
	if err := s.Timing.Validate(); err != nil {
		return fmt.Errorf("standard: %s: %w", s.Name, err)
	}
	return nil
}

// PeakBandwidthGBs returns the peak bandwidth of one addressed channel
// in GB/s: the per-device peak times the number of sub-channels.
func (s Standard) PeakBandwidthGBs() float64 {
	return s.Geometry.PeakBandwidthGBs() * float64(s.SubChannels)
}

// BanksPerChannel returns the total banks behind one addressed channel.
func (s Standard) BanksPerChannel() int {
	return s.Geometry.TotalBanks() * s.SubChannels
}

// Info is the wire/report form of a Standard: the derived numbers a
// listing wants, with stable JSON field names (used by -list-standards
// and GET /v1/standards).
type Info struct {
	Name        string `json:"name"`
	Family      string `json:"family"`
	Description string `json:"description"`

	ClockMHz    int `json:"clock_mhz"`
	DataRate    int `json:"data_rate"`
	BusBytes    int `json:"bus_bytes"`
	SubChannels int `json:"sub_channels"`

	Ranks           int `json:"ranks"`
	Groups          int `json:"groups"`
	Banks           int `json:"banks"`
	Rows            int `json:"rows"`
	Cols            int `json:"cols"`
	PageBytes       int `json:"page_bytes"`
	BanksPerChannel int `json:"banks_per_channel"`

	PeakGBs float64 `json:"peak_gbps_per_channel"`

	CL   int `json:"cl"`
	CWL  int `json:"cwl"`
	BL2  int `json:"bl2"`
	RCD  int `json:"rcd"`
	RP   int `json:"rp"`
	RAS  int `json:"ras"`
	RC   int `json:"rc"`
	CCDS int `json:"ccd_s"`
	CCDL int `json:"ccd_l"`
	FAW  int `json:"faw"`
	RFC  int `json:"rfc"`
	REFI int `json:"refi"`
}

// Info returns the derived listing form of the standard.
func (s Standard) Info() Info {
	return Info{
		Name:        s.Name,
		Family:      s.Family,
		Description: s.Description,

		ClockMHz:    s.Geometry.ClockMHz,
		DataRate:    s.Geometry.DataRate,
		BusBytes:    s.Geometry.BusBytes,
		SubChannels: s.SubChannels,

		Ranks:           s.Geometry.Ranks,
		Groups:          s.Geometry.Groups,
		Banks:           s.Geometry.Banks,
		Rows:            s.Geometry.Rows,
		Cols:            s.Geometry.Cols,
		PageBytes:       s.Geometry.RowBytes(),
		BanksPerChannel: s.BanksPerChannel(),

		PeakGBs: s.PeakBandwidthGBs(),

		CL:   s.Timing.CL,
		CWL:  s.Timing.CWL,
		BL2:  s.Timing.BL2,
		RCD:  s.Timing.RCD,
		RP:   s.Timing.RP,
		RAS:  s.Timing.RAS,
		RC:   s.Timing.RC,
		CCDS: s.Timing.CCDS,
		CCDL: s.Timing.CCDL,
		FAW:  s.Timing.FAW,
		RFC:  s.Timing.RFC,
		REFI: s.Timing.REFI,
	}
}

// The registry. Iteration must be deterministic (this package is in
// dramvet's deterministic-core list), so lookups go through a map but
// every enumeration walks the sorted name slice.
var (
	registry = map[string]Standard{}
	names    []string // sorted registry keys
)

// register derives, validates and adds a row; it panics on duplicates or
// invalid presets so a bad registration fails at init, not mid-run.
func register(r row) {
	s := r.standard()
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("standard: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
	names = append(names, s.Name)
	sort.Strings(names)
}

// Names returns the registered standard names in sorted order.
func Names() []string {
	return append([]string(nil), names...)
}

// All returns every registered standard in sorted name order.
func All() []Standard {
	out := make([]Standard, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Default returns the default standard (DefaultName). It is the exact
// DDR4-2400 configuration evaluated in the paper.
func Default() Standard { return registry[DefaultName] }

// Lookup returns the standard registered under name (case-insensitive,
// surrounding space ignored; empty means DefaultName). Unknown names get
// a did-you-mean error listing the registry.
func Lookup(name string) (Standard, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		key = DefaultName
	}
	if s, ok := registry[key]; ok {
		return s, nil
	}
	msg := fmt.Sprintf("standard: unknown DRAM standard %q", name)
	if near := closest(key); near != "" {
		msg += fmt.Sprintf(" (did you mean %q?)", near)
	}
	return Standard{}, fmt.Errorf("%s; known standards: %s", msg, strings.Join(names, ", "))
}

// MustLookup is Lookup for known-good names; it panics on error.
func MustLookup(name string) Standard {
	s, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

// closest returns the registered name within edit distance 2 of key, or
// "" if none is close enough.
func closest(key string) string {
	best, bestDist := "", 3
	for _, n := range names {
		if d := editDistance(key, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

// editDistance returns the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
