package dram_test

import (
	"strings"
	"testing"

	"dramstacks/internal/dram"
)

func TestVerifierAcceptsLegalSequence(t *testing.T) {
	g, tm := testConfig()
	v := dram.NewVerifier(g, tm)
	loc := dram.Loc{Row: 3}
	steps := []struct {
		cycle int64
		kind  dram.CommandKind
	}{
		{0, dram.CmdACT},
		{int64(tm.RCD), dram.CmdRD},
		{int64(tm.RCD + tm.CCDL), dram.CmdRD},
		{max(int64(tm.RAS), int64(tm.RCD+tm.CCDL+tm.RTP)), dram.CmdPRE},
	}
	for _, s := range steps {
		if vs := v.Check(s.cycle, dram.Command{Kind: s.kind, Loc: loc}); vs != nil {
			t.Fatalf("legal %v at %d rejected: %v", s.kind, s.cycle, vs[0])
		}
	}
	if len(v.Violations()) != 0 {
		t.Errorf("violations = %v, want none", v.Violations())
	}
}

func TestVerifierCatchesViolations(t *testing.T) {
	g, tm := testConfig()
	loc := dram.Loc{Row: 3}
	other := dram.Loc{Row: 4}
	cases := []struct {
		name  string
		setup []struct {
			cycle int64
			cmd   dram.Command
		}
		bad  dram.Command
		at   int64
		rule string
	}{
		{
			name: "read before tRCD",
			setup: []struct {
				cycle int64
				cmd   dram.Command
			}{{0, dram.Command{Kind: dram.CmdACT, Loc: loc}}},
			bad: dram.Command{Kind: dram.CmdRD, Loc: loc}, at: int64(tm.RCD) - 1, rule: "tRCD",
		},
		{
			name: "precharge before tRAS",
			setup: []struct {
				cycle int64
				cmd   dram.Command
			}{{0, dram.Command{Kind: dram.CmdACT, Loc: loc}}},
			bad: dram.Command{Kind: dram.CmdPRE, Loc: loc}, at: int64(tm.RAS) - 1, rule: "tRAS",
		},
		{
			name: "read on closed bank",
			bad:  dram.Command{Kind: dram.CmdRD, Loc: loc}, at: 0, rule: "protocol",
		},
		{
			name: "activate on open bank",
			setup: []struct {
				cycle int64
				cmd   dram.Command
			}{{0, dram.Command{Kind: dram.CmdACT, Loc: loc}}},
			bad: dram.Command{Kind: dram.CmdACT, Loc: other}, at: int64(tm.RC), rule: "protocol",
		},
		{
			name: "same-group reads closer than tCCD_L",
			setup: []struct {
				cycle int64
				cmd   dram.Command
			}{
				{0, dram.Command{Kind: dram.CmdACT, Loc: loc}},
				{int64(tm.RCD), dram.Command{Kind: dram.CmdRD, Loc: loc}},
			},
			bad: dram.Command{Kind: dram.CmdRD, Loc: loc}, at: int64(tm.RCD + tm.CCDL - 1), rule: "tCCD_L",
		},
		{
			name: "write to read too fast",
			setup: []struct {
				cycle int64
				cmd   dram.Command
			}{
				{0, dram.Command{Kind: dram.CmdACT, Loc: loc}},
				{int64(tm.RCD), dram.Command{Kind: dram.CmdWR, Loc: loc}},
			},
			bad: dram.Command{Kind: dram.CmdRD, Loc: loc}, at: int64(tm.RCD + tm.WriteToRead(true) - 1), rule: "tWTR_L",
		},
		{
			name: "refresh with open bank",
			setup: []struct {
				cycle int64
				cmd   dram.Command
			}{{0, dram.Command{Kind: dram.CmdACT, Loc: loc}}},
			bad: dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{}}, at: 100, rule: "protocol",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := dram.NewVerifier(g, tm)
			for _, s := range tc.setup {
				if vs := v.Check(s.cycle, s.cmd); vs != nil {
					t.Fatalf("setup command rejected: %v", vs[0])
				}
			}
			vs := v.Check(tc.at, tc.bad)
			if vs == nil {
				t.Fatalf("violation not detected")
			}
			found := false
			for _, viol := range vs {
				if strings.Contains(viol.Rule, tc.rule) {
					found = true
				}
			}
			if !found {
				t.Errorf("violations %v do not mention %q", vs, tc.rule)
			}
		})
	}
}

func TestVerifierFAW(t *testing.T) {
	g, tm := testConfig()
	v := dram.NewVerifier(g, tm)
	// Four ACTs spaced tRRD_S apart, then a fifth inside the FAW window.
	cycle := int64(0)
	for i := 0; i < 4; i++ {
		loc := dram.Loc{Group: i, Bank: 0, Row: 1}
		if vs := v.Check(cycle, dram.Command{Kind: dram.CmdACT, Loc: loc}); vs != nil {
			t.Fatalf("ACT %d rejected: %v", i, vs[0])
		}
		cycle += int64(tm.RRDS)
	}
	fifth := dram.Loc{Group: 0, Bank: 1, Row: 1}
	at := int64(tm.FAW) - 1
	vs := v.Check(at, dram.Command{Kind: dram.CmdACT, Loc: fifth})
	if vs == nil {
		t.Fatal("5th ACT inside tFAW not detected")
	}
	if !strings.Contains(vs[0].Rule, "tFAW") {
		t.Errorf("violation %v does not mention tFAW", vs[0])
	}
}

func TestVerifierAutoPrecharge(t *testing.T) {
	g, tm := testConfig()
	v := dram.NewVerifier(g, tm)
	loc := dram.Loc{Row: 3}
	rd := max(int64(tm.RCD), int64(tm.RAS-tm.RTP))
	if vs := v.Check(0, dram.Command{Kind: dram.CmdACT, Loc: loc}); vs != nil {
		t.Fatal(vs[0])
	}
	if vs := v.Check(rd, dram.Command{Kind: dram.CmdRDA, Loc: loc}); vs != nil {
		t.Fatal(vs[0])
	}
	// After the auto-precharge completes, a new ACT is legal; before tRP
	// from the precharge start it is not.
	apStart := rd + int64(tm.RTP)
	bad := v.Check(apStart+int64(tm.RP)-1, dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 9}})
	if bad == nil {
		t.Fatal("ACT inside auto-precharge tRP not detected")
	}
	v2 := dram.NewVerifier(g, tm)
	v2.Check(0, dram.Command{Kind: dram.CmdACT, Loc: loc})
	v2.Check(rd, dram.Command{Kind: dram.CmdRDA, Loc: loc})
	// tRC from the first ACT may dominate; take the later of the two.
	ok := max(apStart+int64(tm.RP), int64(tm.RC))
	if vs := v2.Check(ok, dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 9}}); vs != nil {
		t.Fatalf("legal ACT after auto-precharge rejected: %v", vs[0])
	}
}

func TestVerifierTraceOrder(t *testing.T) {
	g, tm := testConfig()
	v := dram.NewVerifier(g, tm)
	v.Check(100, dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}})
	vs := v.Check(99, dram.Command{Kind: dram.CmdPRE, Loc: dram.Loc{Row: 1}})
	if vs == nil {
		t.Fatal("out-of-order trace not detected")
	}
	if !strings.Contains(vs[0].Rule, "order") {
		t.Errorf("violation %v does not mention trace order", vs[0])
	}
}

func TestViolationError(t *testing.T) {
	viol := dram.Violation{Cycle: 7, Cmd: dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 2}}, Rule: "tRCD"}
	msg := viol.Error()
	for _, want := range []string{"7", "RD", "tRCD"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
