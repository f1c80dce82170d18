package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dramstacks/internal/cpu"
)

// Player replays a recorded application memory trace as an instruction
// stream, so real program traces (e.g. from a binary-instrumentation
// tool) can be pushed through the simulator and get their stacks. The
// text format is one access per line:
//
//	R <addr> [work]     # load, with optional plain uops before it
//	W <addr> [work]     # store
//	B [0|1]             # branch (1 = mispredicted)
//	# comment
//
// Addresses accept decimal or 0x-prefixed hex. The trace can be looped
// to extend short recordings.
type Player struct {
	items   []cpu.Instr
	maxAddr uint64 // the highest load or store address
	pos     int
	// Loop replays the trace from the start when it ends.
	Loop bool
	// MaxOps bounds total emitted items when looping (0 = unbounded).
	MaxOps  int64
	emitted int64
}

var _ cpu.Source = (*Player)(nil)

// ParseTrace reads a memory trace.
func ParseTrace(r io.Reader) (*Player, error) {
	p := &Player{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		ins, err := parseTraceLine(fields)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, err)
		}
		p.items = append(p.items, ins)
		p.maxAddr = max(p.maxAddr, ins.Addr) // a branch's is 0
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace read: %w", err)
	}
	if len(p.items) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return p, nil
}

func parseTraceLine(fields []string) (cpu.Instr, error) {
	switch strings.ToUpper(fields[0]) {
	case "R", "W":
		if len(fields) < 2 || len(fields) > 3 {
			return cpu.Instr{}, fmt.Errorf("want '%s <addr> [work]'", fields[0])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), addrBase(fields[1]), 64)
		if err != nil {
			return cpu.Instr{}, fmt.Errorf("bad address %q: %v", fields[1], err)
		}
		work := 0
		if len(fields) == 3 {
			work, err = strconv.Atoi(fields[2])
			if err != nil || work < 0 {
				return cpu.Instr{}, fmt.Errorf("bad work %q", fields[2])
			}
		}
		kind := cpu.KindLoad
		if strings.ToUpper(fields[0]) == "W" {
			kind = cpu.KindStore
		}
		return cpu.Instr{Work: work, Kind: kind, Addr: addr}, nil
	case "B":
		mis := false
		if len(fields) == 2 {
			switch fields[1] {
			case "0":
			case "1":
				mis = true
			default:
				return cpu.Instr{}, fmt.Errorf("bad branch flag %q", fields[1])
			}
		} else if len(fields) != 1 {
			return cpu.Instr{}, fmt.Errorf("want 'B [0|1]'")
		}
		return cpu.Instr{Kind: cpu.KindBranch, Mispredict: mis}, nil
	default:
		return cpu.Instr{}, fmt.Errorf("unknown record %q (want R, W or B)", fields[0])
	}
}

func addrBase(s string) int {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return 16
	}
	return 10
}

// Len returns the number of parsed trace items.
func (p *Player) Len() int { return len(p.items) }

// MaxAddr returns the highest address a load or store of the trace
// accesses (0 when it has none).
func (p *Player) MaxAddr() uint64 { return p.maxAddr }

// Next implements cpu.Source.
func (p *Player) Next() (cpu.Instr, bool) {
	if p.MaxOps > 0 && p.emitted >= p.MaxOps {
		return cpu.Instr{}, false
	}
	if p.pos >= len(p.items) {
		if !p.Loop {
			return cpu.Instr{}, false
		}
		p.pos = 0
	}
	ins := p.items[p.pos]
	p.pos++
	p.emitted++
	return ins, true
}
