package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sweep describes a family of experiments: a base spec plus axes, each
// axis a spec field name mapped to the values it takes. Expansion forms
// the cartesian product of the axes over the base — the paper's
// synthetic grids (Figs. 4-6) and the 1→8-core extrapolation study are
// each one Sweep. The JSON form is
//
//	{
//	  "version": 1,
//	  "base": {"workload": "seq", "cycles": 100000},
//	  "axes": {"cores": [1, 2, 4, 8], "stores": [0, 0.5]}
//	}
type Sweep struct {
	// Version is the sweep-schema version (0 or SpecVersion).
	Version int `json:"version,omitempty"`
	// Base is the spec every point starts from; axis values overwrite
	// its fields.
	Base Spec `json:"base"`
	// Axes maps spec field names to the values the field sweeps over.
	// Values are strings for string fields and numbers for numeric ones
	// (json.Number after ParseSweep; int/int64/float64 work too when a
	// Sweep is built in code).
	Axes map[string][]any `json:"axes"`
}

// sweepFields is the accepted top-level sweep JSON schema.
var sweepFields = map[string]bool{
	"version": true,
	"base":    true,
	"axes":    true,
}

// sweepableFields are the spec fields an axis may vary: everything but
// the schema version.
var sweepableFields = func() map[string]bool {
	m := make(map[string]bool, len(specFields))
	for f := range specFields {
		if f != "version" {
			m[f] = true
		}
	}
	return m
}()

// ParseSweep strictly decodes a sweep document: unknown fields at the
// top level, in the base spec, and among the axis names are rejected
// with field-naming errors; the version must be one this build speaks.
func ParseSweep(data []byte) (Sweep, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return Sweep{}, fmt.Errorf("exp: invalid sweep JSON: %v", err)
	}
	if key, ok := unknownKey(data, sweepFields); ok {
		return Sweep{}, unknownFieldError("sweep", key, sweepFields)
	}
	var sw Sweep
	if raw, ok := doc["version"]; ok {
		if err := json.Unmarshal(raw, &sw.Version); err != nil {
			return Sweep{}, fmt.Errorf("exp: invalid sweep version: %v", err)
		}
	}
	if sw.Version != 0 && sw.Version != SpecVersion {
		return Sweep{}, fmt.Errorf("exp: unsupported sweep version %d (this build speaks version %d)", sw.Version, SpecVersion)
	}
	if raw, ok := doc["base"]; ok {
		base, err := DecodeSpec(raw)
		if err != nil {
			return Sweep{}, err
		}
		sw.Base = base
	}
	if raw, ok := doc["axes"]; ok {
		// UseNumber keeps axis values as their JSON literals, so the
		// axis label of 0.5 is "0.5", not "0.500000".
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		if err := dec.Decode(&sw.Axes); err != nil {
			return Sweep{}, fmt.Errorf("exp: invalid sweep axes: %v", err)
		}
	}
	return sw, nil
}

// AxisNames returns the sweep's axis names in the deterministic
// (sorted) expansion order.
func (sw Sweep) AxisNames() []string {
	names := make([]string, 0, len(sw.Axes))
	for n := range sw.Axes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Point is one expanded sweep point: a normalized, validated spec plus
// the axis values that produced it.
type Point struct {
	// Index is the point's position in the deterministic expansion
	// order (after dedup).
	Index int
	// Spec is the normalized point spec.
	Spec Spec
	// Hash is Spec.Hash(): the point's content address.
	Hash string
	// Axes maps each axis name to this point's value, rendered as its
	// JSON literal.
	Axes map[string]string
}

// Label renders the point's varying coordinates ("cores=4 stores=0.5"),
// axes in sorted order; a zero-axis sweep point falls back to the spec
// label.
func (p Point) Label() string {
	if len(p.Axes) == 0 {
		return p.Spec.Label()
	}
	names := make([]string, 0, len(p.Axes))
	for n := range p.Axes {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + p.Axes[n]
	}
	return strings.Join(parts, " ")
}

// Expand materializes the sweep into its ordered list of points: the
// cartesian product of the axes (sorted by name, last axis varying
// fastest) over the base spec, each normalized and validated, deduped
// by spec hash (normalization can collapse points — e.g. a "scale" axis
// is irrelevant to synthetic workloads). The result is deterministic:
// the same sweep document always expands to the same ordered hash list.
func (sw Sweep) Expand() ([]Point, error) {
	if sw.Version != 0 && sw.Version != SpecVersion {
		return nil, fmt.Errorf("exp: unsupported sweep version %d (this build speaks version %d)", sw.Version, SpecVersion)
	}
	names := sw.AxisNames()
	for _, n := range names {
		if !sweepableFields[n] {
			return nil, unknownFieldError("sweep axis", n, sweepableFields)
		}
		if len(sw.Axes[n]) == 0 {
			return nil, fmt.Errorf("exp: sweep axis %q has no values", n)
		}
	}
	total := 1
	for _, n := range names {
		total *= len(sw.Axes[n])
	}

	seen := make(map[string]bool, total)
	points := make([]Point, 0, total)
	for i := 0; i < total; i++ {
		spec := sw.Base
		axes := make(map[string]string, len(names))
		// Mixed-radix decode of i, last axis fastest.
		rem := i
		for a := len(names) - 1; a >= 0; a-- {
			vals := sw.Axes[names[a]]
			v := vals[rem%len(vals)]
			rem /= len(vals)
			if err := setSpecField(&spec, names[a], v); err != nil {
				return nil, err
			}
			axes[names[a]] = axisLabel(v)
		}
		n := spec.Normalized()
		hash, err := n.Hash()
		if err != nil {
			return nil, fmt.Errorf("exp: sweep point %s: %w", Point{Axes: axes}.Label(), err)
		}
		if seen[hash] {
			continue
		}
		seen[hash] = true
		points = append(points, Point{Index: len(points), Spec: n, Hash: hash, Axes: axes})
	}
	return points, nil
}

// SweepHash is the content address of the whole expanded sweep: the hex
// SHA-256 over the ordered point hashes. Two sweep documents that
// expand to the same experiment family hash identically.
func SweepHash(points []Point) string {
	h := sha256.New()
	for _, p := range points {
		h.Write([]byte(p.Hash))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// axisLabel renders an axis value the way it was written in the sweep
// document.
func axisLabel(v any) string {
	switch t := v.(type) {
	case string:
		return t
	case json.Number:
		return t.String()
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// setSpecField overwrites one spec field by its JSON name with an axis
// value, enforcing the field's type.
func setSpecField(s *Spec, name string, v any) error {
	switch name {
	case "workload", "policy", "map", "standard", "qos":
		str, ok := v.(string)
		if !ok {
			return fmt.Errorf("exp: sweep axis %q wants string values, got %v", name, v)
		}
		switch name {
		case "workload":
			s.Workload = str
		case "policy":
			s.Policy = str
		case "map":
			s.Mapping = str
		case "standard":
			s.Standard = str
		case "qos":
			s.QoS = str
		}
		return nil
	case "stores":
		f, err := axisFloat(v)
		if err != nil {
			return fmt.Errorf("exp: sweep axis %q: %v", name, err)
		}
		s.Stores = f
		return nil
	case "cores", "channels", "cycles", "sample", "scale", "wq":
		i, err := axisInt(v)
		if err != nil {
			return fmt.Errorf("exp: sweep axis %q: %v", name, err)
		}
		switch name {
		case "cores":
			s.Cores = int(i)
		case "channels":
			s.Channels = int(i)
		case "cycles":
			s.Budget = i
		case "sample":
			s.Sample = i
		case "scale":
			s.Scale = int(i)
		case "wq":
			s.WriteQueue = int(i)
		}
		return nil
	default:
		return unknownFieldError("sweep axis", name, sweepableFields)
	}
}

func axisFloat(v any) (float64, error) {
	switch t := v.(type) {
	case json.Number:
		return t.Float64()
	case float64:
		return t, nil
	case int:
		return float64(t), nil
	case int64:
		return float64(t), nil
	default:
		return 0, fmt.Errorf("want a number, got %v", v)
	}
}

func axisInt(v any) (int64, error) {
	switch t := v.(type) {
	case json.Number:
		return t.Int64()
	case int:
		return int64(t), nil
	case int64:
		return t, nil
	case float64:
		if t != math.Trunc(t) {
			return 0, fmt.Errorf("want an integer, got %v", t)
		}
		return int64(t), nil
	default:
		return 0, fmt.Errorf("want an integer, got %v", v)
	}
}
