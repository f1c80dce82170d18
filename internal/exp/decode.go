package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// specFields is the set of accepted top-level spec JSON fields. Strict
// decoding checks incoming documents against it so that a misspelled
// field ("core" for "cores") is a named error instead of a silently
// ignored knob.
var specFields = map[string]bool{
	"version":  true,
	"workload": true,
	"cores":    true,
	"channels": true,
	"stores":   true,
	"policy":   true,
	"map":      true,
	"standard": true,
	"cycles":   true,
	"sample":   true,
	"scale":    true,
	"wq":       true,
	"qos":      true,
}

// knownFieldList renders a sorted, comma-separated field list for error
// messages.
func knownFieldList(fields map[string]bool) string {
	names := make([]string, 0, len(fields))
	for f := range fields {
		names = append(names, f)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// unknownFieldError names the offending field, suggests the closest
// accepted one when the typo is small, and lists the full schema.
func unknownFieldError(kind, field string, fields map[string]bool) error {
	if near := closestField(field, fields); near != "" {
		return fmt.Errorf("exp: unknown %s field %q (did you mean %q? known fields: %s)",
			kind, field, near, knownFieldList(fields))
	}
	return fmt.Errorf("exp: unknown %s field %q (known fields: %s)",
		kind, field, knownFieldList(fields))
}

// closestField returns the accepted field within Levenshtein distance 2
// of name, or "" when nothing is close enough to suggest.
func closestField(name string, fields map[string]bool) string {
	best, bestDist := "", 3
	lower := strings.ToLower(name)
	//dramvet:allow detrange(min over (distance, name) with a total tiebreak; result is independent of iteration order)
	for f := range fields {
		if d := editDistance(lower, f); d < bestDist || (d == bestDist && f < best) {
			best, bestDist = f, d
		}
	}
	if bestDist > 2 {
		return ""
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// DecodeSpec strictly decodes one experiment spec document: unknown
// top-level fields are rejected with a field-naming error, and the
// embedded version (elided = current) must be one this build speaks.
// The returned spec is not yet normalized or validated. One decode, into
// the struct: encoding/json matches its keys without regard to case and
// skips what it does not know, so the field check is unknownKey's scan.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	err := json.Unmarshal(data, &s)
	if err == nil || !errors.As(err, new(*json.SyntaxError)) { // well-formed
		if key, ok := unknownKey(data, specFields); ok {
			return Spec{}, unknownFieldError("spec", key, specFields)
		}
		if err != nil && bytes.TrimLeft(data, " \t\r\n")[0] != '{' {
			// Not an object: the error on record names the field map's type.
			err = json.Unmarshal(data, new(map[string]json.RawMessage))
		}
	}
	if err != nil {
		return Spec{}, fmt.Errorf("exp: invalid spec JSON: %v", err)
	}
	return s, nil
}

// unknownKey returns the sorted-first top-level key of doc, well-formed JSON,
// that is not in fields; keys compare as encoding/json decodes them, unescaped.
func unknownKey(doc []byte, fields map[string]bool) (key string, found bool) {
	depth := 0
	for i := 0; i < len(doc); i++ {
		switch doc[i] {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case '"':
			start := i
			for i++; doc[i] != '"'; i++ {
				if doc[i] == '\\' {
					i++
				}
			}
			if depth != 1 || fields[string(doc[start+1:i])] {
				continue
			}
			// At depth 1 a string is a key if a colon follows it.
			next := i + 1
			for doc[next] <= ' ' { // white space, the document being well-formed
				next++
			}
			if doc[next] == ':' {
				var k string
				_ = json.Unmarshal(doc[start:i+1], &k) // unescapes; a well-formed string decodes
				if !fields[k] && (!found || k < key) {
					key, found = k, true
				}
			}
		}
	}
	return key, found
}
