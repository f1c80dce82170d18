package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzAllowDirective fuzzes the //dramvet: comment parser with
// arbitrary comment text and checks its invariants: no panic, every
// parsed directive has a well-formed analyzer name and a non-empty
// reason, and every comment that starts with //dramvet: is either
// parsed or reported malformed — never silently dropped (a typo'd
// suppression that vanishes is how a real violation hides).
func FuzzAllowDirective(f *testing.F) {
	seeds := []string{
		"//dramvet:allow lockhold(reason here)",
		"//dramvet:allow errenvelope(proxy path; see doc/LINTING.md)",
		"//dramvet:allow goroleak(process-lifetime pump (dies with the process))",
		"//dramvet:allow detrange()",
		"//dramvet:allow detrange(   )",
		"//dramvet:allow Detrange(x)",
		"//dramvet:allow det-range(x)",
		"//dramvet:allowlockhold(x)",
		"//dramvet:",
		"//dramvet: allow lockhold(x)",
		"//dramvet:allow lockhold(unbalanced",
		"//dramvet:allow lockhold)backwards(",
		"// not a directive at all",
		"//dramvet:allow a1(x) trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, comment string) {
		src := "package p\n" + comment + "\nfunc f() {}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			return // input broke Go syntax entirely; nothing to check
		}

		dirs, malformed := fileDirectives(fset, file)
		for _, d := range dirs {
			if d.analyzer == "" {
				t.Errorf("parsed directive with empty analyzer: %+v", d)
			}
			for i, r := range d.analyzer {
				lower := r >= 'a' && r <= 'z'
				digit := r >= '0' && r <= '9'
				if !lower && !(digit && i > 0) {
					t.Errorf("analyzer name %q violates [a-z][a-z0-9]*", d.analyzer)
				}
			}
			if strings.TrimSpace(d.reason) == "" {
				t.Errorf("parsed directive with empty reason: %+v", d)
			}
			if d.line <= 0 || !d.pos.IsValid() {
				t.Errorf("directive with bogus position: %+v", d)
			}
		}

		// Conservation: dramvet-prefixed comments all land somewhere.
		prefixed := 0
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), "//dramvet:") {
					prefixed++
				}
			}
		}
		if len(dirs)+len(malformed) != prefixed {
			t.Errorf("%d dramvet comments but %d parsed + %d malformed",
				prefixed, len(dirs), len(malformed))
		}

		// The driver-facing view agrees with the parser.
		diags := MalformedDirectives(fset, []*ast.File{file})
		if len(diags) != len(malformed) {
			t.Errorf("MalformedDirectives reported %d, parser found %d", len(diags), len(malformed))
		}
	})
}
