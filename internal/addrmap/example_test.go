package addrmap_test

import (
	"fmt"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
)

// Example shows how the two Fig. 5 schemes place consecutive cache lines:
// the default scheme keeps a whole 8 KB page in one bank, the interleaved
// scheme rotates lines over the bank groups and banks.
func Example() {
	geo := standard.Default().Geometry
	def := addrmap.MustDefault(geo, 1)
	inter := addrmap.MustInterleaved(geo, 1)

	for _, addr := range []uint64{0, 64, 128} {
		d := def.Decode(addr)
		i := inter.Decode(addr)
		fmt.Printf("line %d: default -> group %d bank %d col %d | interleaved -> group %d bank %d col %d\n",
			addr/64, d.Group, d.Bank, d.Col, i.Group, i.Bank, i.Col)
	}
	// Output:
	// line 0: default -> group 0 bank 0 col 0 | interleaved -> group 0 bank 0 col 0
	// line 1: default -> group 0 bank 0 col 1 | interleaved -> group 1 bank 0 col 0
	// line 2: default -> group 0 bank 0 col 2 | interleaved -> group 2 bank 0 col 0
}

// ExampleScheme_Encode shows the round trip between addresses and DRAM
// coordinates.
func ExampleScheme_Encode() {
	geo := standard.Default().Geometry
	m := addrmap.MustDefault(geo, 1)
	loc := dram.Loc{Group: 2, Bank: 1, Row: 7, Col: 5}
	addr := m.Encode(loc)
	back := m.Decode(addr)
	fmt.Printf("addr %#x -> row %d group %d bank %d col %d\n",
		addr, back.Row, back.Group, back.Bank, back.Col)
	// Output:
	// addr 0xec140 -> row 7 group 2 bank 1 col 5
}
