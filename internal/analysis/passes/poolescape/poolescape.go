// Package poolescape guards the hot-loop free-list discipline the
// event-wheel refactor depends on: steady-state simulation allocates
// nothing per cycle because hot objects (memctrl requests, cpu load
// tickets) are recycled through per-owner free lists. That only holds
// if every acquired object finds its way back to the list, and if
// objects handed across the package boundary have a documented owner —
// a pooled pointer retained by a caller past its recycle is a
// use-after-free in all but name.
//
// Within the deterministic hot-loop packages (detpkg.List), the
// analyzer treats any struct field of type []*T whose name contains
// "free" or "pool" as a free list for T and reports:
//
//   - a free list that is never appended to: objects are acquired
//     (or at least pooled in name) without a matching recycle/Put;
//   - an exported function or method returning *T or []*T: the pooled
//     object escapes the package that owns its lifetime. Legitimate
//     hand-offs (e.g. a request the caller may inspect until its
//     completion callback fires) are acknowledged with
//     //dramvet:allow poolescape(reason) documenting the ownership
//     rule.
package poolescape

import (
	"go/ast"
	"go/types"
	"strings"

	"dramstacks/internal/analysis"
	"dramstacks/internal/analysis/passes/detpkg"
)

// Analyzer is the poolescape pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc: "flag pooled hot-loop objects escaping their pool scope\n\n" +
		"Free-listed objects (memctrl requests, cpu tickets) must be recycled by their\n" +
		"owner and must not cross the package boundary without a documented ownership\n" +
		"hand-off (//dramvet:allow poolescape(reason)).",
	Run: run,
}

// pool is one free-list field and what we learned about it.
type pool struct {
	field *types.Var // the []*T struct field
	elem  types.Type // *T
	pos   ast.Node   // field declaration, for diagnostics
	put   bool       // saw an append to the field
}

func run(pass *analysis.Pass) (any, error) {
	if !detpkg.Match(pass.Pkg.Path(), detpkg.List...) {
		return nil, nil
	}

	// Collect free-list fields: struct fields of type []*T named *free*
	// or *pool*.
	var pools []*pool
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					lower := strings.ToLower(name.Name)
					if !strings.Contains(lower, "free") && !strings.Contains(lower, "pool") {
						continue
					}
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					sl, ok := obj.Type().Underlying().(*types.Slice)
					if !ok {
						continue
					}
					if _, ok := sl.Elem().Underlying().(*types.Pointer); !ok {
						continue
					}
					pools = append(pools, &pool{field: obj, elem: sl.Elem(), pos: fld})
				}
			}
			return true
		})
	}
	if len(pools) == 0 {
		return nil, nil
	}

	// A free list is recycled if something is appended to it anywhere in
	// the package: `x.fooFree = append(x.fooFree, v)`.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "append" {
				return true
			}
			if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
				return true
			}
			if obj := fieldOf(pass, call.Args[0]); obj != nil {
				for _, p := range pools {
					if p.field == obj {
						p.put = true
					}
				}
			}
			return true
		})
	}
	for _, p := range pools {
		if !p.put {
			pass.Reportf(p.pos.Pos(),
				"free list %s is never appended to: pooled %s objects are acquired "+
					"without a matching recycle/Put", p.field.Name(), p.elem)
		}
	}

	// Exported functions returning a pooled pointer type hand lifetime
	// management to code that cannot see the pool.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Type.Results == nil {
				continue
			}
			for _, res := range fd.Type.Results.List {
				rt := pass.TypesInfo.Types[res.Type].Type
				if rt == nil {
					continue
				}
				for _, p := range pools {
					if types.Identical(rt, p.elem) || isSliceOf(rt, p.elem) {
						pass.Reportf(fd.Name.Pos(),
							"exported %s returns pooled type %s, which is recycled via %s: "+
								"the caller can retain it past its recycle; document the "+
								"ownership hand-off with //dramvet:allow poolescape(reason) "+
								"or return a copy", fd.Name.Name, p.elem, p.field.Name())
					}
				}
			}
		}
	}
	return nil, nil
}

// fieldOf resolves expr to the struct field it selects, if any.
func fieldOf(pass *analysis.Pass, expr ast.Expr) *types.Var {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	return obj
}

// isSliceOf reports whether t is []elem.
func isSliceOf(t, elem types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	return ok && types.Identical(sl.Elem(), elem)
}
