package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"dramstacks/internal/dram/standard"
)

// canonicalMap is the canonical encoding as it was written before the
// append encoder: a map[string]any through encoding/json, whose key sort
// and value formats define the bytes every spec hash, cache key, journal
// record and golden file rests on. It lives on as the reference.
func canonicalMap(s Spec) ([]byte, error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	m := map[string]any{
		"version":  n.Version,
		"workload": n.Workload,
		"cores":    n.Cores,
		"channels": n.Channels,
		"stores":   n.Stores,
		"policy":   n.Policy,
		"map":      n.Mapping,
		"cycles":   n.Budget,
		"sample":   n.Sample,
		"scale":    n.Scale,
		"wq":       n.WriteQueue,
	}
	if n.Standard != standard.DefaultName {
		m["standard"] = n.Standard
	}
	if n.QoS != "" {
		m["qos"] = n.QoS
	}
	return json.Marshal(m)
}

// checkFields rejects any top-level key of doc outside fields: the field
// check as it was, on the document decoded into a map.
func checkFields(kind string, doc map[string]json.RawMessage, fields map[string]bool) error {
	var unknown []string
	for k := range doc {
		if !fields[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown) // deterministic error for multi-typo documents
	return unknownFieldError(kind, unknown[0], fields)
}

// decodeSpecTwoPass is DecodeSpec as it was: the document unmarshalled
// into a map for the field check, then again into the struct.
func decodeSpecTwoPass(data []byte) (Spec, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return Spec{}, fmt.Errorf("exp: invalid spec JSON: %v", err)
	}
	if err := checkFields("spec", doc, specFields); err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("exp: invalid spec JSON: %v", err)
	}
	return s, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameCanonical holds Canonical to the map encoder on one spec: the same
// bytes, or the same error.
func sameCanonical(t testing.TB, s Spec) {
	t.Helper()
	got, gotErr := s.Canonical()
	want, wantErr := canonicalMap(s)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Canonical(%+v): error %q, the map encoder's is %q", s, errText(gotErr), errText(wantErr))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Canonical(%+v):\n  got  %s\n  want %s", s, got, want)
	}
}

// sameDecode holds DecodeSpec to the two-pass decoder on one document:
// the same spec (NaN-safe: compared by bits), or the same error text.
func sameDecode(t testing.TB, doc []byte) {
	t.Helper()
	got, gotErr := DecodeSpec(doc)
	want, wantErr := decodeSpecTwoPass(doc)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DecodeSpec(%q): error %q, the two-pass decoder's is %q", doc, errText(gotErr), errText(wantErr))
	}
	gs, ws := got.Stores, want.Stores
	got.Stores, want.Stores = 0, 0
	if got != want || math.Float64bits(gs) != math.Float64bits(ws) {
		t.Fatalf("DecodeSpec(%q) = %+v (stores %v), the two-pass decoder gives %+v (stores %v)", doc, got, gs, want, ws)
	}
}

var oracleSpecs = []Spec{
	{},
	{Workload: "seq"},
	{Workload: " seq ", Scale: 17, WriteQueue: 128},
	{Workload: "random", Cores: 4, Stores: 0.2, Budget: 100_000},
	{Workload: "seq,random", Cores: 4, Policy: "open", Mapping: "def", Budget: 60_000}, // svc-sweep's hit spec
	{Workload: "seq , triad,strided", Cores: 3, Channels: 2, Mapping: "xor", Sample: 1000},
	{Workload: "bfs", Cores: 2, Scale: 12, WriteQueue: 128, Budget: BudgetUnlimited},
	{Workload: "tc", Policy: "closed", Budget: -7},
	{Workload: "triad", Cores: 8, Channels: 8, Stores: 0.5, Mapping: "int"},
	// Every non-default standard, spelled loosely.
	{Workload: "seq", Standard: " DDR5-4800 "},
	{Workload: "seq", Standard: "hbm2", Cores: 4},
	{Workload: "seq", Standard: "lpddr4-3200"},
	{Workload: "seq", Standard: standard.DefaultName},
	// Every QoS directive, in and out of canonical order.
	{Workload: "latcrit,bwhog", Cores: 2, QoS: "win=2048,cap=1:16,rt=0"},
	{Workload: "latcrit,bwhog", Cores: 2, QoS: " rt=0 , cap=1:16 , win=2048 "},
	{Workload: "bwhog", Cores: 4, QoS: "cap=0:8,cap=3:4", Stores: 0.25},
	{Workload: "latcrit", Cores: 2, QoS: "rt=1"},
	{Workload: "seq", Cores: 2, QoS: "win=512"},
	// Store fractions across encoding/json's float formats.
	{Workload: "seq", Stores: 0.1},
	{Workload: "seq", Stores: 1e-7},
	{Workload: "seq", Stores: 1e-6},
	{Workload: "seq", Stores: 9.999999e-7},
	{Workload: "seq", Stores: 0.30000000000000004},
	{Workload: "seq", Stores: 5e-324},
	{Workload: "seq", Stores: 1.5e-10},
	{Workload: "seq", Stores: 1},
	{Workload: "seq", Stores: math.Copysign(0, -1)},
	{Workload: "seq", Stores: math.NaN()}, // Validate lets it through; encoding refuses it
	{Workload: "seq", Stores: math.Inf(1)},
	{Workload: "triad", Stores: math.NaN()}, // zeroed by Normalized
	// Invalid: the error is Validate's either way.
	{Workload: "nope"},
	{Workload: "seq<&>"},
	{Workload: "seq", Cores: 9},
	{Workload: "seq", Version: 2},
	{Workload: "seq", Standard: "ddr9"},
	{Workload: "seq", QoS: "cap=7:1"},
	{Workload: "seq", Stores: -0.5},
}

func TestCanonicalMatchesMapEncoder(t *testing.T) {
	for _, s := range oracleSpecs {
		sameCanonical(t, s)
	}
	for _, name := range standard.Names() {
		sameCanonical(t, Spec{Workload: "random", Standard: name, Stores: 0.75})
	}
}

// TestAppendJSONMatchesMarshal: no valid spec holds a string that needs
// escaping or a float outside [0, 1], so the two value encoders are also
// held to json.Marshal directly, on what Canonical cannot reach.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "seq", "a b", `quo"te`, `back\slash`, "<script>&amp;</script>", "tab\there", "nul\x00", "del\x7f",
		"café", "line\u2028sep\u2029", "bad\xffutf8", "\xc3\x28", "emoji \U0001F600", "nbsp\u00a0",
	} {
		want, _ := json.Marshal(s)
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("appendJSONString(%q) = %s, json.Marshal gives %s", s, got[1:], want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.30000000000000004, 1e-6, 9.99e-7, 1e-7, -1e-7, 5e-324, 1e20, 1e21, 1.5e300,
		123456789.125, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		want, wantErr := json.Marshal(f)
		got, gotErr := appendJSONFloat(nil, f)
		if errText(gotErr) != errText(wantErr) || (wantErr == nil && !bytes.Equal(got, want)) {
			t.Errorf("appendJSONFloat(%v) = %s, %v; json.Marshal gives %s, %v", f, got, gotErr, want, wantErr)
		}
	}
}

// oracleDocs are the documents the one-pass decoder is most likely to
// read differently from the two-pass one; FuzzDecodeSpec starts from them.
var oracleDocs = []string{
	`{}`,
	`null`,
	` null `,
	`{"workload":"seq","cores":1,"cycles":20000}`,
	`{"workload":"seq","version":1,"cores":2}`,
	`{"workload":"rand","cores":4,"channels":2,"stores":0.25}`,
	`{"workload":"seq","policy":"fr-fcfs","map":"rbc","wq":8}`,
	`{"workload":"seq","core":4}`,
	`{"totally_unrelated":1}`,
	`{"workload":"seq","cycles":1e30}`,
	`[1,2,3]`,
	`"spec"`,
	`12`,
	`true`,
	``,
	`   `,
	`{"workload":`,
	`{"workload":"seq"} x`,
	`{"workload":"seq",}`,
	"{\"workload\":\"seq\",\n\"cores\":3}",
	"\t{ \"cores\" : 3 ,\r\n \"map\" : \"xor\" } \n",
	// The svc-sweep hit spec: as json.Marshal(Spec) and as Canonical write it.
	`{"workload":"seq,random","cores":4,"channels":0,"stores":0,"policy":"open","map":"def","cycles":60000,"sample":0,"scale":0,"wq":0}`,
	`{"channels":1,"cores":4,"cycles":60000,"map":"def","policy":"open","sample":0,"scale":0,"stores":0,"version":1,"workload":"seq,random","wq":0}`,
	`{"workload":"latcrit,bwhog","cores":2,"qos":"win=2048,cap=1:16,rt=0","standard":"DDR5-4800"}`,
	// Wrong-case keys: a struct decode would match them, the field check must not.
	`{"Cores":4}`,
	`{"WORKLOAD":"seq"}`,
	`{"cores":2,"Cores":4}`,
	`{"Standard":"hbm2","workload":"seq"}`,
	`{"QoS":"rt=0"}`,
	// Escaped and non-UTF-8 keys.
	`{"\u0063ores":4}`,
	`{"c\u006fres":4,"w\u006frkload":"random"}`,
	`{"\u0043ores":4}`,
	`{"cores\u0000":4}`,
	"{\"cor\xffes\":4}",
	`{"co\"res":4}`,
	`{"":1}`,
	// Duplicate keys: applied in document order.
	`{"cores":1,"cores":2}`,
	`{"cores":5,"cores":null}`,
	`{"cores":"x","cores":2}`,
	`{"cores":2,"cores":"x"}`,
	`{"workload":"seq","workload":"random","workload":null}`,
	// null values leave the field alone.
	`{"cores":null,"workload":null,"stores":null,"cycles":null}`,
	// Type errors: the first in document order, after the field check.
	`{"cores":"4"}`,
	`{"cores":4.5}`,
	`{"cores":1e3}`,
	`{"cycles":9223372036854775808}`,
	`{"stores":"0.5","cores":[1]}`,
	`{"workload":7,"cores":true}`,
	`{"stores":1e999}`,
	`{"stores":{"a":[1,{"b":"}"}]}}`,
	`{"cores":"x","corse":1}`,
	// Two unknown fields: the sorted-first is named, whatever the order.
	`{"zeta":1,"alpha":2}`,
	`{"alpha":2,"zeta":1}`,
	`{"workload":"seq","sampel":1,"chanels":2}`,
	`{"a":{"cores":[1,2,{"x":"y"}]},"cores":2}`,
	`{"x":"\"}{","cores":2}`,
	// Keys inside values are not top-level fields.
	`{"workload":"seq","cores":{"bogus":1}}`,
	`{"workload":"{\"bogus\":1}"}`,
	// Values that decode oddly.
	`{"workload":"café 😀 \ud800","policy":" "}`,
	`{"stores":-0}`,
	`{"stores":0.30000000000000004}`,
	`{"stores":1e-7,"workload":"seq"}`,
	`{"version":2}`,
	`{"version":-1}`,
}

func TestDecodeSpecMatchesTwoPass(t *testing.T) {
	for _, doc := range oracleDocs {
		sameDecode(t, []byte(doc))
	}
	for _, s := range oracleSpecs {
		if doc, err := json.Marshal(s); err == nil { // NaN does not marshal
			sameDecode(t, doc)
		}
		if doc, err := canonicalMap(s); err == nil {
			sameDecode(t, doc)
		}
	}
}

// TestUnknownKeyMatchesCheckFields: on every well-formed object, against
// the spec's field set and the sweep's, the scan names the field the check
// of the decoded map names.
func TestUnknownKeyMatchesCheckFields(t *testing.T) {
	docs := append([]string{
		`{"version":1,"base":{"bogus":1},"axes":{"cores":[1,2]}}`,
		`{"axis":{},"base":{},"Version":1}`,
		`{"ba\u0073e":{"workload":"seq"},"axes":{"zzz":["base"]}}`,
	}, oracleDocs...)
	for _, doc := range docs {
		var m map[string]json.RawMessage
		if json.Unmarshal([]byte(doc), &m) != nil {
			continue
		}
		for _, fields := range []map[string]bool{specFields, sweepFields} {
			want := checkFields("doc", m, fields)
			var got error
			if key, ok := unknownKey([]byte(doc), fields); ok {
				got = unknownFieldError("doc", key, fields)
			}
			if errText(got) != errText(want) {
				t.Errorf("%s: the scan reports %q, the map check %q", doc, errText(got), errText(want))
			}
		}
	}
}

// TestSpecPathAllocs pins what the request path allocates: a hash is the
// normalization's strings, the canonical bytes and the hex string; a decode
// no longer builds a map of the document.
func TestSpecPathAllocs(t *testing.T) {
	spec := oracleSpecs[4]
	doc, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { spec.Hash() }); n > 8 {
		t.Errorf("Spec.Hash allocates %v times, want at most 8", n)
	}
	if n := testing.AllocsPerRun(200, func() { DecodeSpec(doc) }); n > 35 {
		t.Errorf("DecodeSpec allocates %v times, want at most 35", n)
	}
}

func BenchmarkSpecHash(b *testing.B) {
	spec := oracleSpecs[4]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Hash(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSpec(b *testing.B) {
	doc, err := json.Marshal(oracleSpecs[4])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSpec(doc); err != nil {
			b.Fatal(err)
		}
	}
}
