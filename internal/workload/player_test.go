package workload

import (
	"strings"
	"testing"

	"dramstacks/internal/cpu"
)

func TestPlayerParsesAndReplays(t *testing.T) {
	trace := `
# a tiny trace
R 0x1000 4
W 4160
B 1
R 64
`
	p, err := ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("items = %d, want 4", p.Len())
	}
	want := []cpu.Instr{
		{Work: 4, Kind: cpu.KindLoad, Addr: 0x1000},
		{Kind: cpu.KindStore, Addr: 4160},
		{Kind: cpu.KindBranch, Mispredict: true},
		{Kind: cpu.KindLoad, Addr: 64},
	}
	for i, w := range want {
		got, ok := p.Next()
		if !ok || got != w {
			t.Errorf("item %d = %+v (%v), want %+v", i, got, ok, w)
		}
	}
	if _, ok := p.Next(); ok {
		t.Error("non-looping player did not end")
	}
	if p.MaxAddr() != 4160 {
		t.Errorf("MaxAddr = %d, want 4160: the store's", p.MaxAddr())
	}
}

func TestPlayerLoopAndMaxOps(t *testing.T) {
	p, err := ParseTrace(strings.NewReader("R 0\nR 64\n"))
	if err != nil {
		t.Fatal(err)
	}
	p.Loop = true
	p.MaxOps = 5
	count := 0
	for {
		_, ok := p.Next()
		if !ok {
			break
		}
		count++
		if count > 10 {
			t.Fatal("player did not respect MaxOps")
		}
	}
	if count != 5 {
		t.Errorf("emitted %d items, want 5", count)
	}
}

func TestPlayerRejectsGarbage(t *testing.T) {
	bad := []string{
		"",            // empty
		"X 100\n",     // unknown record
		"R\n",         // missing address
		"R zzz\n",     // bad address
		"R 0x10 -1\n", // bad work
		"B 2\n",       // bad branch flag
		"R 1 2 3 4\n", // too many fields
	}
	for _, trace := range bad {
		if _, err := ParseTrace(strings.NewReader(trace)); err == nil {
			t.Errorf("trace %q accepted", trace)
		}
	}
}
