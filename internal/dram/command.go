// Package dram models a DDR4-style SDRAM device at command granularity.
//
// The model follows the architecture of trace-driven DRAM simulators such as
// Ramulator: the device keeps, for every bank, bank group and rank, the
// earliest cycle at which each command kind may legally issue, and updates
// those "next-allowed" times as commands are issued. A separate Verifier
// re-checks command traces against an independent pairwise formulation of the
// same JEDEC-style constraints, so scheduler and device bugs cannot hide each
// other.
//
// All times are in memory-clock cycles of Geometry.ClockMHz (1.2 GHz for the
// paper's DDR4-2400, i.e. one cycle = 0.8333 ns). The data bus transfers
// BusBytes × DataRate bytes per cycle (16 B for DDR4 ×64), so one 64-byte
// cache line occupies the bus for BL/2 = 4 cycles. The package ships no
// presets: the DRAM standards are data in internal/dram/standard.
package dram

import "fmt"

// CommandKind enumerates the DRAM commands the memory controller can issue.
type CommandKind uint8

const (
	// CmdACT activates (opens) a row into a bank's row buffer.
	CmdACT CommandKind = iota
	// CmdPRE precharges (closes) the currently open row of one bank.
	CmdPRE
	// CmdPREA precharges all banks of a rank (used before refresh).
	CmdPREA
	// CmdRD reads one column (a cache line) from the open row.
	CmdRD
	// CmdRDA is a read with auto-precharge: the bank precharges itself
	// tRTP after the read command. Used by the closed-page policy.
	CmdRDA
	// CmdWR writes one column into the open row.
	CmdWR
	// CmdWRA is a write with auto-precharge (precharge starts after the
	// write-recovery time has elapsed).
	CmdWRA
	// CmdREF refreshes the whole rank; the rank is unusable for tRFC.
	CmdREF
)

// String returns the conventional mnemonic for the command kind.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdPREA:
		return "PREA"
	case CmdRD:
		return "RD"
	case CmdRDA:
		return "RDA"
	case CmdWR:
		return "WR"
	case CmdWRA:
		return "WRA"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("CommandKind(%d)", uint8(k))
	}
}

// IsRead reports whether the command places read data on the bus.
func (k CommandKind) IsRead() bool { return k == CmdRD || k == CmdRDA }

// IsWrite reports whether the command places write data on the bus.
func (k CommandKind) IsWrite() bool { return k == CmdWR || k == CmdWRA }

// IsColumn reports whether the command is a column (data) command.
func (k CommandKind) IsColumn() bool { return k.IsRead() || k.IsWrite() }

// AutoPrecharge reports whether the command carries the auto-precharge flag.
func (k CommandKind) AutoPrecharge() bool { return k == CmdRDA || k == CmdWRA }

// Loc identifies a physical location inside the memory system. Channel is
// carried for trace readability; a Device models a single channel and
// ignores it.
type Loc struct {
	Channel int
	Rank    int
	Group   int // bank group within the rank
	Bank    int // bank within the bank group
	Row     int
	Col     int // column, in cache-line units
}

// String formats the location as ch/rank/group/bank/row/col.
func (l Loc) String() string {
	return fmt.Sprintf("ch%d r%d g%d b%d row%d col%d",
		l.Channel, l.Rank, l.Group, l.Bank, l.Row, l.Col)
}

// Command is one DRAM command as placed on the command bus.
type Command struct {
	Kind CommandKind
	Loc  Loc
}

// String formats the command for traces and error messages.
func (c Command) String() string {
	return fmt.Sprintf("%-4s %s", c.Kind, c.Loc)
}
