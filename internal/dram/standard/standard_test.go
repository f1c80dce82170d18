package standard

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The default standard must be the exact DDR4-2400 configuration the
// paper evaluates — the whole stack treats it as the byte-identity
// oracle for pre-standard behavior — so the want is the seed's literal.
func TestDefaultIsPaperDDR4(t *testing.T) {
	def := Default()
	if def.Name != DefaultName || DefaultName != "ddr4-2400" {
		t.Fatalf("default standard is %q, want ddr4-2400", def.Name)
	}
	want := pinned["ddr4-2400"]
	if def.Geometry != want.Geometry {
		t.Errorf("default geometry diverged from the seed:\n got %+v\nwant %+v", def.Geometry, want.Geometry)
	}
	if def.Timing != want.Timing {
		t.Errorf("default timing diverged from the seed:\n got %+v\nwant %+v", def.Timing, want.Timing)
	}
	if def.SubChannels != 1 {
		t.Errorf("default sub-channels = %d, want 1", def.SubChannels)
	}
}

// Every registered preset must be machine-validated (Ramulator's 2.0
// re-evaluation lesson: presets are assumed correct until checked).
func TestEveryPresetValidates(t *testing.T) {
	if len(All()) < 6 {
		t.Fatalf("registry has %d presets, want at least 6", len(All()))
	}
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if err := s.Geometry.Validate(); err != nil {
			t.Errorf("%s geometry: %v", s.Name, err)
		}
		if err := s.Timing.Validate(); err != nil {
			t.Errorf("%s timing: %v", s.Name, err)
		}
		if s.PeakBandwidthGBs() <= 0 {
			t.Errorf("%s: non-positive peak bandwidth", s.Name)
		}
		if s.Family == "" || s.Description == "" {
			t.Errorf("%s: missing family or description", s.Name)
		}
	}
}

func TestNamesSortedAndMatchRegistry(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	want := []string{"ddr4-2400", "ddr4-2400-2r", "ddr4-3200", "ddr5-4800", "hbm2-2000", "lpddr5-6400"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Names() = %v, want %v", names, want)
	}
	all := All()
	for i, s := range all {
		if s.Name != names[i] {
			t.Errorf("All()[%d] = %q, want %q", i, s.Name, names[i])
		}
	}
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"ddr5-4800", " DDR5-4800 ", "Ddr5-4800"} {
		s, err := Lookup(name)
		if err != nil || s.Name != "ddr5-4800" {
			t.Errorf("Lookup(%q) = %q, %v; want ddr5-4800", name, s.Name, err)
		}
	}
	if s, err := Lookup(""); err != nil || s.Name != DefaultName {
		t.Errorf("Lookup(\"\") = %q, %v; want the default standard", s.Name, err)
	}

	_, err := Lookup("dd5-4800")
	if err == nil {
		t.Fatal("Lookup of a typo succeeded")
	}
	if !strings.Contains(err.Error(), `did you mean "ddr5-4800"?`) {
		t.Errorf("typo error lacks suggestion: %v", err)
	}
	if !strings.Contains(err.Error(), "known standards: "+strings.Join(Names(), ", ")) {
		t.Errorf("typo error lacks registry listing: %v", err)
	}

	_, err = Lookup("zzzzzzzz")
	if err == nil {
		t.Fatal("Lookup of gibberish succeeded")
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Errorf("gibberish error suggests a name: %v", err)
	}
}

func TestPeakBandwidthDerivation(t *testing.T) {
	cases := []struct {
		name string
		want float64
	}{
		{"ddr4-2400", 19.2}, // the paper's peak
		{"ddr4-3200", 25.6},
		{"ddr5-4800", 19.2}, // one 32-bit subchannel
		{"lpddr5-6400", 12.8},
		{"hbm2-2000", 32.0}, // 2 pseudo-channels x 16 GB/s
	}
	for _, tc := range cases {
		s := MustLookup(tc.name)
		if got := s.PeakBandwidthGBs(); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s peak = %g GB/s, want %g", tc.name, got, tc.want)
		}
	}
}

func TestHBMTopology(t *testing.T) {
	h := MustLookup("hbm2-2000")
	if h.SubChannels != 2 {
		t.Fatalf("hbm2-2000 sub-channels = %d, want 2", h.SubChannels)
	}
	if got := h.BanksPerChannel(); got != 32 {
		t.Errorf("hbm2-2000 banks per channel = %d, want 32 (16 per pseudo-channel)", got)
	}
	info := h.Info()
	if info.SubChannels != 2 || info.PeakGBs != 32.0 || info.PageBytes != 1024 {
		t.Errorf("hbm2-2000 Info = %+v; want sub_channels 2, peak 32, 1 KB pages", info)
	}
}

func TestInfoRoundTrip(t *testing.T) {
	for _, s := range All() {
		info := s.Info()
		if info.Name != s.Name || info.ClockMHz != s.Geometry.ClockMHz ||
			info.CL != s.Timing.CL || info.RFC != s.Timing.RFC {
			t.Errorf("%s: Info() lost fields: %+v", s.Name, info)
		}
		if info.BanksPerChannel != s.Geometry.TotalBanks()*s.SubChannels {
			t.Errorf("%s: banks per channel %d", s.Name, info.BanksPerChannel)
		}
	}
}
