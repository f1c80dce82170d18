package dram

import "fmt"

// Geometry describes the organization of one memory channel.
type Geometry struct {
	Ranks  int // ranks per channel
	Groups int // bank groups per rank
	Banks  int // banks per bank group
	Rows   int // rows per bank
	Cols   int // columns (cache lines) per row

	LineBytes int // bytes per column access (a cache line)
	BusBytes  int // data bus width in bytes
	DataRate  int // transfers per clock cycle (2 for DDR)

	ClockMHz int // memory clock in MHz
}

// BanksPerRank returns the total number of banks in one rank.
func (g Geometry) BanksPerRank() int { return g.Groups * g.Banks }

// Bank returns the flat index of l's bank, [rank][group][bank]: the
// index of the bank's bit in every bank set.
func (g Geometry) Bank(l Loc) int { return (l.Rank*g.Groups+l.Group)*g.Banks + l.Bank }

// TotalBanks returns the number of banks in the channel.
func (g Geometry) TotalBanks() int { return g.Ranks * g.Groups * g.Banks }

// RowBytes returns the size of one DRAM page (row) in bytes.
func (g Geometry) RowBytes() int { return g.Cols * g.LineBytes }

// CapacityBytes returns the addressable capacity of the channel in bytes.
func (g Geometry) CapacityBytes() uint64 {
	return uint64(g.Ranks) * uint64(g.Groups) * uint64(g.Banks) *
		uint64(g.Rows) * uint64(g.RowBytes())
}

// BytesPerCycle returns how many bytes the channel transfers per memory
// clock cycle at full utilization (bus width × data rate).
func (g Geometry) BytesPerCycle() int { return g.BusBytes * g.DataRate }

// PeakBandwidthGBs returns the theoretical peak bandwidth in GB/s
// (decimal GB, matching DRAM marketing and the paper's 19.2 GB/s).
func (g Geometry) PeakBandwidthGBs() float64 {
	return float64(g.BytesPerCycle()) * float64(g.ClockMHz) * 1e6 / 1e9
}

// CyclesToNS converts memory-clock cycles to nanoseconds.
func (g Geometry) CyclesToNS(cycles int64) float64 {
	return float64(cycles) * 1e3 / float64(g.ClockMHz)
}

// Validate reports a descriptive error if the geometry is unusable.
func (g Geometry) Validate() error {
	switch {
	case g.Ranks <= 0 || g.Groups <= 0 || g.Banks <= 0:
		return fmt.Errorf("dram: geometry needs positive ranks/groups/banks, got %d/%d/%d",
			g.Ranks, g.Groups, g.Banks)
	case g.Rows <= 0 || g.Cols <= 0:
		return fmt.Errorf("dram: geometry needs positive rows/cols, got %d/%d", g.Rows, g.Cols)
	case g.LineBytes <= 0 || g.BusBytes <= 0 || g.DataRate <= 0:
		return fmt.Errorf("dram: geometry needs positive line/bus/rate, got %d/%d/%d",
			g.LineBytes, g.BusBytes, g.DataRate)
	case g.ClockMHz <= 0:
		return fmt.Errorf("dram: geometry needs positive clock, got %d MHz", g.ClockMHz)
	case g.TotalBanks() > 64:
		return fmt.Errorf("dram: at most 64 banks per channel supported, got %d", g.TotalBanks())
	}
	return nil
}

// Timing holds the DRAM timing parameters, all in memory-clock cycles.
// Field names follow the JEDEC parameter names without the "t" prefix.
type Timing struct {
	CL  int // CAS latency: read command to first data
	CWL int // CAS write latency: write command to first data
	BL2 int // burst length / 2: data bus cycles per column access

	RCD int // ACT to column command, same bank
	RP  int // PRE to ACT, same bank
	RAS int // ACT to PRE, same bank
	RC  int // ACT to ACT, same bank
	RTP int // RD to PRE, same bank
	WR  int // end of write data to PRE, same bank (write recovery)

	CCDS int // column command to column command, different bank group
	CCDL int // column command to column command, same bank group
	RRDS int // ACT to ACT, different bank group
	RRDL int // ACT to ACT, same bank group
	FAW  int // window in which at most four ACTs may issue per rank

	WTRS int // end of write data to read command, different bank group
	WTRL int // end of write data to read command, same bank group
	RTW  int // read command to write command, same rank (bus turnaround)

	RTRS int // rank-to-rank data bus switch gap

	RFC  int // refresh cycle time: REF blocks the rank this long
	REFI int // average refresh interval: one REF is due every REFI
}

// Validate reports a descriptive error if any parameter is non-positive or
// mutually inconsistent in a way that would deadlock the device model.
func (t Timing) Validate() error {
	type field struct {
		name string
		v    int
	}
	for _, f := range []field{
		{"CL", t.CL}, {"CWL", t.CWL}, {"BL2", t.BL2}, {"RCD", t.RCD},
		{"RP", t.RP}, {"RAS", t.RAS}, {"RC", t.RC}, {"RTP", t.RTP},
		{"WR", t.WR}, {"CCDS", t.CCDS}, {"CCDL", t.CCDL}, {"RRDS", t.RRDS},
		{"RRDL", t.RRDL}, {"FAW", t.FAW}, {"WTRS", t.WTRS}, {"WTRL", t.WTRL},
		{"RTW", t.RTW}, {"RFC", t.RFC}, {"REFI", t.REFI},
	} {
		if f.v <= 0 {
			return fmt.Errorf("dram: timing parameter %s must be positive, got %d", f.name, f.v)
		}
	}
	if t.RC < t.RAS+t.RP {
		return fmt.Errorf("dram: tRC (%d) < tRAS+tRP (%d)", t.RC, t.RAS+t.RP)
	}
	if t.CCDL < t.CCDS {
		return fmt.Errorf("dram: tCCD_L (%d) < tCCD_S (%d)", t.CCDL, t.CCDS)
	}
	if t.REFI <= t.RFC {
		return fmt.Errorf("dram: tREFI (%d) must exceed tRFC (%d)", t.REFI, t.RFC)
	}
	return nil
}

// WriteToPre returns the minimum write command to precharge distance:
// the write data must appear (CWL), transfer (BL2) and be recovered (WR).
func (t Timing) WriteToPre() int { return t.CWL + t.BL2 + t.WR }

// WriteToRead returns the minimum write command to read command distance
// for the given locality (same bank group or not).
func (t Timing) WriteToRead(sameGroup bool) int {
	if sameGroup {
		return t.CWL + t.BL2 + t.WTRL
	}
	return t.CWL + t.BL2 + t.WTRS
}
