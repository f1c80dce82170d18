package addrmap

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
)

func geo() dram.Geometry {
	return standard.Default().Geometry
}

// TestDefaultScheme checks the exact Fig. 5(a) bit layout:
// row[15] bank[2] group[2] column[7] offset[6] for DDR4-2400 with one
// channel and one rank (zero-width fields).
func TestDefaultScheme(t *testing.T) {
	s := MustDefault(geo(), 1)
	if got := s.Bits(); got != 32 {
		t.Fatalf("address bits = %d, want 32 (4 GB)", got)
	}
	cases := []struct {
		addr uint64
		want dram.Loc
	}{
		{0x0, dram.Loc{}},
		{64, dram.Loc{Col: 1}},
		{8192 - 64, dram.Loc{Col: 127}}, // last line of the page
		{8192, dram.Loc{Group: 1}},      // next page: next group
		{4 * 8192, dram.Loc{Bank: 1}},   // groups wrap into bank
		{16 * 8192, dram.Loc{Row: 1}},   // banks wrap into row
		{16*8192 + 3*8192 + 2*64, dram.Loc{Row: 1, Group: 3, Col: 2}},
	}
	for _, tc := range cases {
		if got := s.Decode(tc.addr); got != tc.want {
			t.Errorf("Decode(%#x) = %+v, want %+v", tc.addr, got, tc.want)
		}
	}
	// 128 consecutive lines stay in one bank and row (page locality).
	base := uint64(123) * 8192 * 16
	first := s.Decode(base)
	for i := 1; i < 128; i++ {
		l := s.Decode(base + uint64(i)*64)
		if l.Bank != first.Bank || l.Group != first.Group || l.Row != first.Row {
			t.Fatalf("line %d left the page: %+v vs %+v", i, l, first)
		}
	}
}

// TestInterleavedScheme checks the Fig. 5(b) layout: consecutive cache
// lines rotate over bank groups first, then banks.
func TestInterleavedScheme(t *testing.T) {
	s := MustInterleaved(geo(), 1)
	for i := 0; i < 32; i++ {
		l := s.Decode(uint64(i) * 64)
		wantGroup := i % 4
		wantBank := (i / 4) % 4
		wantCol := i / 16
		if l.Group != wantGroup || l.Bank != wantBank || l.Col != wantCol || l.Row != 0 {
			t.Errorf("line %d -> %+v, want group %d bank %d col %d",
				i, l, wantGroup, wantBank, wantCol)
		}
	}
	// 16 consecutive lines touch all 16 banks.
	seen := map[[2]int]bool{}
	for i := 0; i < 16; i++ {
		l := s.Decode(uint64(i) * 64)
		seen[[2]int{l.Group, l.Bank}] = true
	}
	if len(seen) != 16 {
		t.Errorf("16 consecutive lines touched %d banks, want 16", len(seen))
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, mk := range []func(dram.Geometry, int) *Scheme{MustDefault, MustInterleaved} {
		s := mk(geo(), 1)
		f := func(raw uint64) bool {
			addr := (raw &^ 63) & ((1 << s.Bits()) - 1) // line-aligned, in range
			return s.Encode(s.Decode(addr)) == addr
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: round trip failed: %v", s.Name(), err)
		}
	}
}

func TestDecodeInRangeProperty(t *testing.T) {
	g := geo()
	s := MustDefault(g, 1)
	f := func(addr uint64) bool {
		l := s.Decode(addr)
		return l.Channel == 0 && l.Rank == 0 &&
			l.Group >= 0 && l.Group < g.Groups &&
			l.Bank >= 0 && l.Bank < g.Banks &&
			l.Row >= 0 && l.Row < g.Rows &&
			l.Col >= 0 && l.Col < g.Cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("decode out of range: %v", err)
	}
}

func TestDistinctLinesDistinctLocs(t *testing.T) {
	s := MustInterleaved(geo(), 1)
	rng := rand.New(rand.NewSource(42))
	seen := map[dram.Loc]uint64{}
	for i := 0; i < 5000; i++ {
		addr := (rng.Uint64() &^ 63) & ((1 << s.Bits()) - 1)
		l := s.Decode(addr)
		if prev, dup := seen[l]; dup && prev != addr {
			t.Fatalf("addresses %#x and %#x map to the same location %+v", prev, addr, l)
		}
		seen[l] = addr
	}
}

func TestMultiChannel(t *testing.T) {
	g := geo()
	s, err := NewScheme("ch-interleaved", g, 2,
		[]Field{FieldChannel, FieldColumn, FieldGroup, FieldBank, FieldRank, FieldRow})
	if err != nil {
		t.Fatal(err)
	}
	if s.Channels() != 2 {
		t.Fatalf("channels = %d", s.Channels())
	}
	a := s.Decode(0)
	b := s.Decode(64)
	if a.Channel != 0 || b.Channel != 1 {
		t.Errorf("consecutive lines on channels %d,%d, want 0,1", a.Channel, b.Channel)
	}
}

func TestNewSchemeErrors(t *testing.T) {
	g := geo()
	if _, err := NewScheme("dup", g, 1,
		[]Field{FieldColumn, FieldColumn, FieldGroup, FieldBank, FieldRank, FieldChannel, FieldRow}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewScheme("missing", g, 1, []Field{FieldColumn}); err == nil {
		t.Error("missing fields accepted")
	}
	if _, err := NewScheme("chan", g, 0, nil); err == nil {
		t.Error("zero channels accepted")
	}
	bad := g
	bad.Cols = 100 // not a power of two
	if _, err := NewDefault(bad, 1); err == nil {
		t.Error("non-power-of-two geometry accepted")
	}
}

func TestSchemeString(t *testing.T) {
	s := MustDefault(geo(), 1)
	str := s.String()
	for _, want := range []string{"default", "row[15]", "column[7]", "offset[6]", "group[2]", "bank[2]"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}

func TestXORSchemeRoundTrip(t *testing.T) {
	base := MustDefault(geo(), 1)
	x := NewXOR(base)
	if x.Name() != "default+xor" || x.Channels() != 1 {
		t.Errorf("name/channels = %q/%d", x.Name(), x.Channels())
	}
	f := func(raw uint64) bool {
		addr := (raw &^ 63) & ((1 << base.Bits()) - 1)
		return x.Encode(x.Decode(addr)) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestXORSchemeSpreadsSameBankRows(t *testing.T) {
	g := geo()
	base := MustDefault(g, 1)
	x := NewXOR(base)
	// Addresses 128 KB apart land on the same bank under the default
	// scheme (consecutive rows of bank 0); the XOR hash spreads them.
	banksBase := map[[2]int]bool{}
	banksXOR := map[[2]int]bool{}
	for i := 0; i < 16; i++ {
		addr := uint64(i) * 128 * 1024
		b := base.Decode(addr)
		h := x.Decode(addr)
		banksBase[[2]int{b.Group, b.Bank}] = true
		banksXOR[[2]int{h.Group, h.Bank}] = true
	}
	if len(banksBase) != 1 {
		t.Fatalf("default scheme spread rows over %d banks, want 1", len(banksBase))
	}
	if len(banksXOR) != 16 {
		t.Errorf("xor scheme spread 16 rows over %d banks, want 16", len(banksXOR))
	}
	// Page locality preserved: lines within a page stay together.
	l0 := x.Decode(0)
	for i := 1; i < 128; i++ {
		l := x.Decode(uint64(i) * 64)
		if l.Group != l0.Group || l.Bank != l0.Bank || l.Row != l0.Row {
			t.Fatalf("line %d left the page under xor: %+v vs %+v", i, l, l0)
		}
	}
}

func TestXORDistinctAddressesDistinctLocs(t *testing.T) {
	x := NewXOR(MustDefault(geo(), 1))
	seen := map[dram.Loc]uint64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		addr := (rng.Uint64() &^ 63) & ((1 << 32) - 1)
		l := x.Decode(addr)
		if prev, dup := seen[l]; dup && prev != addr {
			t.Fatalf("collision: %#x and %#x -> %+v", prev, addr, l)
		}
		seen[l] = addr
	}
}
