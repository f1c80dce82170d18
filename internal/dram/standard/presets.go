package standard

import (
	"fmt"

	"dramstacks/internal/dram"
)

// A cell is one timing parameter as the standards write it:
// max(n nCK, ps picoseconds).
type cell struct{ n, ps int64 }

// cycles is the one rounding rule: max(n, ceil(ps × clockMHz / 10⁶)),
// in int64 because tREFI × 2400 MHz exceeds a 32-bit int.
func (c cell) cycles(clockMHz int) int {
	return int(max(c.n, (c.ps*int64(clockMHz)+999_999)/1_000_000))
}

// A family is one standard's timing table: the geometry and the cells
// every speed bin of the standard shares. Cells the standard states in
// clocks are plain counts; tRTRS, which no standard states, is a model
// choice in every family.
type family struct {
	name, source string        // source: standard, density and page size
	geo          dram.Geometry // one device; the row sets Ranks, the bin ClockMHz
	subChannels  int

	bl2, ccds, rtrs                                      int
	ras, rtp, wr, ccdl, rrdl, faw, wtrs, wtrl, rfc, refi cell
}

// A bin is one speed bin of a family: its clock and the cells the
// standard lists per bin.
type bin struct {
	*family
	source   string // the speed bin
	clockMHz int

	cl, cwl           int
	rcd, rp, rc, rrds cell
	keep              []kept
}

// A kept entry is a named disagreement: the bin's cell as written derives
// a count other than the one the model uses, and the preset keeps the
// model's count until a model version deletes the entry.
type kept struct {
	param  string // dram.Timing field name
	cycles int
	why    string
}

// A row is one registered preset: a speed bin with a rank count.
type row struct {
	name, desc string
	ranks      int
	bin        *bin
}

var ddr4 = family{
	name:        "DDR4",
	source:      "JESD79-4; x8 devices, 1 KB device page (8 KB rank page); tRFC of 8 Gb",
	geo:         dram.Geometry{Groups: 4, Banks: 4, Rows: 32 * 1024, Cols: 128, LineBytes: 64, BusBytes: 8, DataRate: 2},
	subChannels: 1, bl2: 4, ccds: 4, rtrs: 2,

	ras:  cell{0, 32_000},
	rtp:  cell{4, 7_500},
	wr:   cell{0, 15_000},
	ccdl: cell{5, 5_000},
	rrdl: cell{4, 4_900},
	faw:  cell{20, 21_000},
	wtrs: cell{2, 2_500},
	wtrl: cell{4, 7_500},
	rfc:  cell{0, 350_000},
	refi: cell{0, 7_800_000},
}

var ddr5 = family{
	name:        "DDR5",
	source:      "JESD79-5; one 32-bit subchannel, x8 devices, 1 KB device page (2 KB model row); tRFC1 of 32 Gb",
	geo:         dram.Geometry{Groups: 8, Banks: 4, Rows: 64 * 1024, Cols: 32, LineBytes: 64, BusBytes: 4, DataRate: 2},
	subChannels: 1, bl2: 8, ccds: 8, rtrs: 3,

	ras:  cell{0, 32_000},
	rtp:  cell{12, 7_500},
	wr:   cell{0, 30_000},
	ccdl: cell{8, 5_000},
	rrdl: cell{8, 5_000},
	faw:  cell{32, 13_333},
	wtrs: cell{4, 2_500},
	wtrl: cell{16, 10_000},
	rfc:  cell{0, 410_000},
	refi: cell{0, 3_900_000},
}

// LPDDR5's nCK floors count CK, a quarter of WCK; the model clocks
// commands at half WCK, so the floors are not written and the cells the
// standard states in clocks are model choices.
var lpddr5 = family{
	name:        "LPDDR5",
	source:      "JESD209-5; x16 channel in bank-group mode, 2 KB page; tRFCab of 16 Gb",
	geo:         dram.Geometry{Groups: 4, Banks: 4, Rows: 64 * 1024, Cols: 32, LineBytes: 64, BusBytes: 2, DataRate: 4},
	subChannels: 1, bl2: 8, ccds: 8, rtrs: 4,

	ras:  cell{0, 42_000},
	rtp:  cell{0, 7_500},
	wr:   cell{28, 0}, // model choice
	ccdl: cell{12, 0}, // model choice
	rrdl: cell{10, 0}, // model choice
	faw:  cell{0, 20_000},
	wtrs: cell{12, 0}, // model choice
	wtrl: cell{18, 0}, // model choice
	rfc:  cell{0, 280_000},
	refi: cell{0, 3_906_000},
}

// HBM2 leaves most core timings to the vendor; at 1 GHz a picosecond
// cell and a clock count are the same number.
var hbm2 = family{
	name:        "HBM2",
	source:      "JESD235; one pseudo-channel, 1 KB page; tRFC of an 8 Gb channel",
	geo:         dram.Geometry{Groups: 4, Banks: 4, Rows: 16 * 1024, Cols: 16, LineBytes: 64, BusBytes: 8, DataRate: 2},
	subChannels: 2, bl2: 4, ccds: 4, rtrs: 2,

	ras:  cell{33, 0}, // model choice
	rtp:  cell{6, 0},  // model choice
	wr:   cell{16, 0}, // model choice
	ccdl: cell{6, 0},  // model choice
	rrdl: cell{6, 0},  // model choice
	faw:  cell{0, 16_000},
	wtrs: cell{4, 0}, // model choice
	wtrl: cell{8, 0}, // model choice
	rfc:  cell{0, 260_000},
	refi: cell{0, 3_900_000},
}

var (
	ddr4_2400 = bin{
		family: &ddr4, source: "DDR4-2400R, 16-16-16", clockMHz: 1200,
		cl: 16, cwl: 12,
		rcd: cell{0, 13_320}, rp: cell{0, 13_320}, rc: cell{0, 45_320},
		rrds: cell{4, 3_300},
	}
	ddr4_3200 = bin{
		family: &ddr4, source: "DDR4-3200AA, 22-22-22", clockMHz: 1600,
		cl: 22, cwl: 16,
		rcd: cell{0, 13_750}, rp: cell{0, 13_750}, rc: cell{0, 45_750},
		rrds: cell{4, 2_500},
		keep: []kept{{"RRDS", 5, "max(4 nCK, 2.5 ns) is 4 at 1600 MHz"}},
	}
	ddr5_4800 = bin{
		family: &ddr5, source: "DDR5-4800B, 40-39-39", clockMHz: 2400,
		cl: 40, cwl: 38,
		rcd: cell{0, 16_000}, rp: cell{0, 16_000}, rc: cell{0, 48_000},
		rrds: cell{8, 0},
		keep: []kept{{"WTRS", 12, "max(4 nCK, 2.5 ns) is 6 at 2400 MHz"}},
	}
	lpddr5_6400 = bin{
		family: &lpddr5, source: "LPDDR5-6400, commands at 1600 MHz", clockMHz: 1600,
		cl: 27, cwl: 14, // model choice: RL ≈ 17 ns, WL ≈ 9 ns
		rcd: cell{0, 18_000}, rp: cell{0, 18_000}, rc: cell{0, 60_000},
		rrds: cell{0, 5_000},
		keep: []kept{{"RC", 97, "tRAS + tRPpb is 60 ns, 96 at 1600 MHz; 97 sums the rounded counts"}},
	}
	hbm2_2000 = bin{
		family: &hbm2, source: "HBM2, 2 Gb/s per pin", clockMHz: 1000,
		cl: 14, cwl: 7,
		rcd: cell{14, 0}, rp: cell{14, 0}, rc: cell{47, 0}, // model choice
		rrds: cell{4, 0}, // model choice
	}
)

// rows is the preset table.
var rows = []row{
	{"ddr4-2400", "the paper's baseline: 1 rank, 4 groups x 4 banks, 8 KB pages, 19.2 GB/s",
		1, &ddr4_2400},
	{"ddr4-2400-2r", "DDR4-2400 with two ranks: 32 banks for the same peak, plus tRTRS gaps",
		2, &ddr4_2400},
	{"ddr4-3200", "same architecture at 1.6 GHz (25.6 GB/s): timings occupy more cycles",
		1, &ddr4_3200},
	{"ddr5-4800", "one 32-bit subchannel: DDR4-2400's peak via BL16, 32 banks, 2 KB pages",
		1, &ddr5_4800},
	{"lpddr5-6400", "one 16-bit channel, WCK 4x data rate: 12.8 GB/s with BL32, all-bank refresh, 280 ns every 3.9 us",
		1, &lpddr5_6400},
	{"hbm2-2000", "one channel in pseudo-channel mode: 2 x 16 GB/s devices with BL4, 1 KB pages",
		1, &hbm2_2000},
}

// standard derives the row's Standard: every cell through cycles, then
// the bin's kept counts. A kept entry that names no cell or that the
// cell already derives is stale and panics.
func (r row) standard() Standard {
	b := r.bin
	g := b.geo
	g.Ranks, g.ClockMHz = r.ranks, b.clockMHz
	t := dram.Timing{CL: b.cl, CWL: b.cwl, BL2: b.bl2, CCDS: b.ccds, RTRS: b.rtrs}
	cells := []struct {
		param string
		dst   *int
		c     cell
	}{
		{"RCD", &t.RCD, b.rcd}, {"RP", &t.RP, b.rp}, {"RAS", &t.RAS, b.ras},
		{"RC", &t.RC, b.rc}, {"RTP", &t.RTP, b.rtp}, {"WR", &t.WR, b.wr},
		{"CCDL", &t.CCDL, b.ccdl}, {"RRDS", &t.RRDS, b.rrds}, {"RRDL", &t.RRDL, b.rrdl},
		{"FAW", &t.FAW, b.faw}, {"WTRS", &t.WTRS, b.wtrs}, {"WTRL", &t.WTRL, b.wtrl},
		{"RFC", &t.RFC, b.rfc}, {"REFI", &t.REFI, b.refi},
	}
	for _, c := range cells {
		*c.dst = c.c.cycles(b.clockMHz)
	}
	// tRTW is no JEDEC parameter: the read-to-write bus turnaround.
	t.RTW = t.CL + t.BL2 + 2 - t.CWL
	for _, k := range b.keep {
		i := 0
		for i < len(cells) && cells[i].param != k.param {
			i++
		}
		if i == len(cells) || *cells[i].dst == k.cycles {
			panic(fmt.Sprintf("standard: %s: stale kept entry %s = %d", r.name, k.param, k.cycles))
		}
		*cells[i].dst = k.cycles
	}
	return Standard{
		Name:        r.name,
		Family:      b.family.name,
		Description: r.desc,
		Geometry:    g,
		Timing:      t,
		SubChannels: b.subChannels,
	}
}

func init() {
	for _, r := range rows {
		register(r)
	}
}
