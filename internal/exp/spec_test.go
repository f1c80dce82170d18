package exp

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func mustHash(t *testing.T, s Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatalf("Hash(%+v): %v", s, err)
	}
	return h
}

// TestSpecHashFieldOrderIndependent decodes the same spec from JSON with
// different field orders and checks the hashes agree.
func TestSpecHashFieldOrderIndependent(t *testing.T) {
	docs := []string{
		`{"workload":"random","cores":4,"stores":0.2,"cycles":100000}`,
		`{"cycles":100000,"stores":0.2,"cores":4,"workload":"random"}`,
		`{"stores":0.2,"workload":"random","cycles":100000,"cores":4}`,
	}
	var want string
	for i, doc := range docs {
		var s Spec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		h := mustHash(t, s)
		if i == 0 {
			want = h
		} else if h != want {
			t.Errorf("doc %d: hash %s, want %s", i, h, want)
		}
	}
}

// TestSpecHashDefaultElision checks that eliding a default and spelling
// it out produce identical hashes, and that irrelevant fields (GAP scale
// on a synthetic workload) do not perturb the hash.
func TestSpecHashDefaultElision(t *testing.T) {
	base := mustHash(t, Spec{Workload: "seq"})
	same := []Spec{
		{}, // workload defaults to seq
		{Workload: "seq", Version: SpecVersion},
		{Workload: "seq", Cores: 1, Channels: 1, Mapping: "def", Policy: "open", Budget: DefaultBudget},
		{Workload: " seq ", Scale: 17},     // whitespace + irrelevant scale
		{Workload: "seq", WriteQueue: 128}, // wq applies to GAP only
	}
	for i, s := range same {
		if h := mustHash(t, s); h != base {
			t.Errorf("spec %d (%+v): hash %s, want %s", i, s, h, base)
		}
	}
	diff := []Spec{
		{Workload: "seq", Cores: 2},
		{Workload: "random"},
		{Workload: "seq", Stores: 0.1},
		{Workload: "seq", Budget: BudgetUnlimited},
		{Workload: "seq", Sample: 1000},
		{Workload: "seq", Mapping: "int"},
		{Workload: "seq", Policy: "closed"},
	}
	for i, s := range diff {
		if h := mustHash(t, s); h == base {
			t.Errorf("spec %d (%+v): hash collides with default seq", i, s)
		}
	}
}

// TestSpecGapDefaults checks GAP policy resolution: bfs defaults closed,
// tc defaults open, and spelling the default out matches the elision.
func TestSpecGapDefaults(t *testing.T) {
	if mustHash(t, Spec{Workload: "bfs"}) != mustHash(t, Spec{Workload: "bfs", Policy: "closed", Scale: 17}) {
		t.Error("bfs default-policy hash mismatch")
	}
	if mustHash(t, Spec{Workload: "tc"}) != mustHash(t, Spec{Workload: "tc", Policy: "open"}) {
		t.Error("tc default-policy hash mismatch")
	}
	if mustHash(t, Spec{Workload: "bfs"}) == mustHash(t, Spec{Workload: "bfs", Policy: "open"}) {
		t.Error("bfs open vs closed should differ")
	}
}

// TestSpecCanonicalIsSortedAndStable pins the canonical encoding format.
func TestSpecCanonicalIsSortedAndStable(t *testing.T) {
	c, err := Spec{Workload: "seq"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"channels":1,"cores":1,"cycles":500000,"map":"def","policy":"open","sample":0,"scale":0,"stores":0,"version":1,"workload":"seq","wq":0}`
	if string(c) != want {
		t.Errorf("canonical = %s\nwant        %s", c, want)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		spec Spec
		err  string
	}{
		{Spec{Workload: "nope"}, "unknown workload"},
		{Spec{Workload: "trace"}, "unknown workload"},
		{Spec{Workload: "seq,nope"}, "unknown mix component"},
		{Spec{Workload: "seq", Cores: 9}, "cores"},
		{Spec{Workload: "seq", Channels: 9}, "channels"},
		{Spec{Workload: "seq", Stores: 1.5}, "store fraction"},
		{Spec{Workload: "seq", Version: 2}, "unsupported spec version"},
		{Spec{Workload: "seq", Policy: "lukewarm"}, "unknown policy"},
		{Spec{Workload: "seq", Mapping: "zigzag"}, "unknown mapping"},
		{Spec{Workload: "seq", Sample: -1}, "sample interval"},
		{Spec{Workload: "bfs", Scale: 30}, "scale"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Hash(); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%+v: err = %v, want mention of %q", tc.spec, err, tc.err)
		}
	}
}

// TestRunSpecMix smoke-tests the mix path through the shared spec layer.
func TestRunSpecMix(t *testing.T) {
	res, err := RunSpec(context.Background(), Spec{Workload: "seq,random", Cores: 2, Budget: 10_000}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemCycles != 10_000 {
		t.Errorf("MemCycles = %d, want 10000", res.MemCycles)
	}
}

// TestResultJSONStampsSpecHash checks result provenance.
func TestResultJSONStampsSpecHash(t *testing.T) {
	spec := Spec{Workload: "seq", Budget: 10_000}
	res, err := RunSpec(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	var row RowJSON
	if err := json.Unmarshal(out, &row); err != nil {
		t.Fatal(err)
	}
	if want := mustHash(t, spec); row.SpecHash != want {
		t.Errorf("spec_hash = %q, want %q", row.SpecHash, want)
	}
	if row.Label != spec.Label() {
		t.Errorf("label = %q, want %q", row.Label, spec.Label())
	}
}
