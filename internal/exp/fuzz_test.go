package exp

import (
	"bytes"
	"testing"
)

// FuzzDecodeSpec drives arbitrary bytes through the strict spec decoder
// and, for every accepted document, checks the invariants the content
// cache and the durable store depend on:
//
//   - DecodeSpec never panics, and returns what the two-pass reference
//     decoder returns, error text included;
//   - Canonical writes the bytes, or the error, of the map-based
//     reference encoder;
//   - an accepted, valid spec has a canonical encoding, and that
//     encoding is a fixed point (decode(canonical) re-canonicalizes to
//     byte-identical output);
//   - Hash is deterministic and survives the canonical round trip.
func FuzzDecodeSpec(f *testing.F) {
	for _, s := range oracleDocs {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, data)
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		sameCanonical(t, spec)
		norm := spec.Normalized()
		if norm.Validate() != nil {
			return
		}
		canon, err := norm.Canonical()
		if err != nil {
			t.Fatalf("valid spec has no canonical encoding: %v", err)
		}
		h1, err := norm.Hash()
		if err != nil {
			t.Fatalf("valid spec has no hash: %v", err)
		}
		h2, _ := norm.Hash()
		if h1 != h2 {
			t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
		}

		again, err := DecodeSpec(canon)
		if err != nil {
			t.Fatalf("canonical encoding rejected by DecodeSpec: %v\n%s", err, canon)
		}
		canon2, err := again.Normalized().Canonical()
		if err != nil {
			t.Fatalf("re-canonicalizing decoded canonical form: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point:\n  first:  %s\n  second: %s", canon, canon2)
		}
		h3, _ := again.Normalized().Hash()
		if h3 != h1 {
			t.Fatalf("hash changed across canonical round trip: %s vs %s", h1, h3)
		}
	})
}

// FuzzSpecCanonical holds the append encoder to the map-based reference
// on specs built field by field, which reaches what a decoded document
// cannot: NaN and infinite store fractions, strings that are not UTF-8.
func FuzzSpecCanonical(f *testing.F) {
	for _, s := range oracleSpecs {
		f.Add(s.Workload, s.Cores, s.Channels, s.Stores, s.Policy, s.Mapping, s.Standard, s.Budget, s.Sample, s.Scale, s.WriteQueue, s.QoS, s.Version)
	}
	f.Fuzz(func(t *testing.T, workload string, cores, channels int, stores float64, policy, mapping, standard string,
		cycles, sample int64, scale, wq int, qos string, version int) {
		sameCanonical(t, Spec{Version: version, Workload: workload, Cores: cores, Channels: channels, Stores: stores, Policy: policy,
			Mapping: mapping, Standard: standard, Budget: cycles, Sample: sample, Scale: scale, WriteQueue: wq, QoS: qos})
	})
}
