package standard

import (
	"reflect"
	"testing"

	"dramstacks/internal/dram"
)

// pinned is every preset's geometry and counts as literals, the seed's
// for ddr4-2400: a table edit that moves any count fails here.
var pinned = map[string]Standard{
	"ddr4-2400": {
		Geometry:    dram.Geometry{Ranks: 1, Groups: 4, Banks: 4, Rows: 32768, Cols: 128, LineBytes: 64, BusBytes: 8, DataRate: 2, ClockMHz: 1200},
		Timing:      dram.Timing{CL: 16, CWL: 12, BL2: 4, RCD: 16, RP: 16, RAS: 39, RC: 55, RTP: 9, WR: 18, CCDS: 4, CCDL: 6, RRDS: 4, RRDL: 6, FAW: 26, WTRS: 3, WTRL: 9, RTW: 10, RTRS: 2, RFC: 420, REFI: 9360},
		SubChannels: 1,
	},
	"ddr4-2400-2r": {
		Geometry:    dram.Geometry{Ranks: 2, Groups: 4, Banks: 4, Rows: 32768, Cols: 128, LineBytes: 64, BusBytes: 8, DataRate: 2, ClockMHz: 1200},
		Timing:      dram.Timing{CL: 16, CWL: 12, BL2: 4, RCD: 16, RP: 16, RAS: 39, RC: 55, RTP: 9, WR: 18, CCDS: 4, CCDL: 6, RRDS: 4, RRDL: 6, FAW: 26, WTRS: 3, WTRL: 9, RTW: 10, RTRS: 2, RFC: 420, REFI: 9360},
		SubChannels: 1,
	},
	"ddr4-3200": {
		Geometry:    dram.Geometry{Ranks: 1, Groups: 4, Banks: 4, Rows: 32768, Cols: 128, LineBytes: 64, BusBytes: 8, DataRate: 2, ClockMHz: 1600},
		Timing:      dram.Timing{CL: 22, CWL: 16, BL2: 4, RCD: 22, RP: 22, RAS: 52, RC: 74, RTP: 12, WR: 24, CCDS: 4, CCDL: 8, RRDS: 5, RRDL: 8, FAW: 34, WTRS: 4, WTRL: 12, RTW: 12, RTRS: 2, RFC: 560, REFI: 12480},
		SubChannels: 1,
	},
	"ddr5-4800": {
		Geometry:    dram.Geometry{Ranks: 1, Groups: 8, Banks: 4, Rows: 65536, Cols: 32, LineBytes: 64, BusBytes: 4, DataRate: 2, ClockMHz: 2400},
		Timing:      dram.Timing{CL: 40, CWL: 38, BL2: 8, RCD: 39, RP: 39, RAS: 77, RC: 116, RTP: 18, WR: 72, CCDS: 8, CCDL: 12, RRDS: 8, RRDL: 12, FAW: 32, WTRS: 12, WTRL: 24, RTW: 12, RTRS: 3, RFC: 984, REFI: 9360},
		SubChannels: 1,
	},
	"hbm2-2000": {
		Geometry:    dram.Geometry{Ranks: 1, Groups: 4, Banks: 4, Rows: 16384, Cols: 16, LineBytes: 64, BusBytes: 8, DataRate: 2, ClockMHz: 1000},
		Timing:      dram.Timing{CL: 14, CWL: 7, BL2: 4, RCD: 14, RP: 14, RAS: 33, RC: 47, RTP: 6, WR: 16, CCDS: 4, CCDL: 6, RRDS: 4, RRDL: 6, FAW: 16, WTRS: 4, WTRL: 8, RTW: 13, RTRS: 2, RFC: 260, REFI: 3900},
		SubChannels: 2,
	},
	"lpddr5-6400": {
		Geometry:    dram.Geometry{Ranks: 1, Groups: 4, Banks: 4, Rows: 65536, Cols: 32, LineBytes: 64, BusBytes: 2, DataRate: 4, ClockMHz: 1600},
		Timing:      dram.Timing{CL: 27, CWL: 14, BL2: 8, RCD: 29, RP: 29, RAS: 68, RC: 97, RTP: 12, WR: 28, CCDS: 8, CCDL: 12, RRDS: 8, RRDL: 10, FAW: 32, WTRS: 12, WTRL: 18, RTW: 23, RTRS: 4, RFC: 448, REFI: 6250},
		SubChannels: 1,
	},
}

func TestPresetsMatchPinnedCounts(t *testing.T) {
	if len(pinned) != len(rows) {
		t.Errorf("%d pinned presets for %d rows", len(pinned), len(rows))
	}
	for _, s := range All() {
		want, ok := pinned[s.Name]
		if !ok {
			t.Errorf("%s: no pinned counts", s.Name)
			continue
		}
		if s.Geometry != want.Geometry {
			t.Errorf("%s geometry:\n got %+v\nwant %+v", s.Name, s.Geometry, want.Geometry)
		}
		if s.Timing != want.Timing {
			t.Errorf("%s timing:\n got %+v\nwant %+v", s.Name, s.Timing, want.Timing)
		}
		if s.SubChannels != want.SubChannels {
			t.Errorf("%s sub-channels = %d, want %d", s.Name, s.SubChannels, want.SubChannels)
		}
	}
}

// The kept counts are exactly the named disagreements between the
// standards' values and the counts the model uses; a value fix deletes
// its entry here and in the table.
func TestKeptIsTheDisagreementList(t *testing.T) {
	type disagreement struct {
		preset, param string
		cycles        int
	}
	want := []disagreement{
		{"ddr4-3200", "RRDS", 5},
		{"ddr5-4800", "WTRS", 12},
		{"lpddr5-6400", "RC", 97},
	}
	var got []disagreement
	for _, r := range rows {
		for _, k := range r.bin.keep {
			got = append(got, disagreement{r.name, k.param, k.cycles})
			if k.why == "" {
				t.Errorf("%s %s: kept without a reason", r.name, k.param)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kept counts = %v, want %v", got, want)
	}
	for _, r := range rows {
		if r.bin.source == "" || r.bin.family.source == "" {
			t.Errorf("%s: missing source", r.name)
		}
	}
}

func TestCellRounding(t *testing.T) {
	for _, tc := range []struct {
		what string
		c    cell
		mhz  int
		want int
	}{
		{"exact multiple: tWR 15 ns at 1200 MHz", cell{0, 15_000}, 1200, 18},
		{"one picosecond over", cell{0, 15_001}, 1200, 19},
		{"rounds up: tRCD 13.32 ns at 1200 MHz", cell{0, 13_320}, 1200, 16},
		{"nCK floor binds: tRRD_S 2.5 ns at 1200 MHz", cell{4, 2_500}, 1200, 4},
		{"nCK only: DDR5 tRRD_S", cell{8, 0}, 2400, 8},
		{"time binds: tFAW 21 ns at 1600 MHz", cell{20, 21_000}, 1600, 34},
		{"no overflow: tREFI 7.8 us at 2400 MHz", cell{0, 7_800_000}, 2400, 18_720},
	} {
		if got := tc.c.cycles(tc.mhz); got != tc.want {
			t.Errorf("%s: cycles = %d, want %d", tc.what, got, tc.want)
		}
	}
}

// A kept entry the derivation already agrees with, or one that names no
// cell, is stale: deriving the row panics instead of hiding it.
func TestStaleKeptPanics(t *testing.T) {
	for _, k := range []kept{{"RRDS", 4, "agrees"}, {"tRRD_S", 5, "no such cell"}} {
		b := ddr4_3200
		b.keep = []kept{k}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("kept %s = %d derived without a panic", k.param, k.cycles)
				}
			}()
			row{"stale", "stale", 1, &b}.standard()
		}()
	}
}
