// Package detrange flags `for … range` over a map inside the
// deterministic simulator packages (see detpkg.List), where iteration
// order nondeterminism can leak into results, golden tests, or hashes.
//
// A map range is accepted without annotation in two provably
// order-insensitive shapes:
//
//   - key collection followed by a sort: the loop body is exactly
//     `s = append(s, k)` and a later statement of the same enclosing
//     block sorts s (sort.Strings/Ints/Float64s/Slice/Sort or
//     slices.Sort*).
//   - pure accumulation: every statement in the body is a commutative
//     update (x++, x--, x += v, x |= v, …), an insert keyed by the
//     range key (m2[k] = v, delete(m2, k)), a continue, or an if/block
//     composed of such statements.
//
// Anything else needs restructuring or an explicit
// //dramvet:allow detrange(reason) acknowledgment.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"

	"dramstacks/internal/analysis"
	"dramstacks/internal/analysis/passes/detpkg"
)

// Analyzer is the detrange pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc: "flag map iteration in deterministic packages unless provably order-insensitive\n\n" +
		"Map iteration order is randomized; in the simulator's deterministic core it must\n" +
		"never influence behavior. Sort the keys first, keep the body to pure accumulation,\n" +
		"or acknowledge with //dramvet:allow detrange(reason).",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !detpkg.Match(pass.Pkg.Path(), detpkg.List...) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Examine every statement list so ranges nested in case
			// clauses are seen too, with access to the trailing
			// statements (for the collect-then-sort idiom).
			switch x := n.(type) {
			case *ast.BlockStmt:
				checkStmts(pass, x.List)
			case *ast.CaseClause:
				checkStmts(pass, x.Body)
			case *ast.CommClause:
				checkStmts(pass, x.Body)
			}
			return true
		})
	}
	return nil, nil
}

func checkStmts(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := pass.TypesInfo.Types[rng.X].Type
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		if collectThenSort(pass, rng, stmts[i+1:]) || orderInsensitive(rng) {
			continue
		}
		pass.Reportf(rng.Pos(),
			"range over map in deterministic package %s: iteration order is randomized; "+
				"sort the keys first, reduce the body to pure accumulation, or annotate "+
				"//dramvet:allow detrange(reason)", pass.Pkg.Path())
	}
}

// keyIdent returns the range statement's key variable, if it is a
// plain identifier (not _).
func keyIdent(rng *ast.RangeStmt) *ast.Ident {
	id, ok := rng.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return id
}

// collectThenSort recognizes the canonical deterministic-iteration
// idiom: the body only appends the key to a slice (possibly behind a
// single filtering if), and a later statement of the enclosing block
// sorts that slice.
func collectThenSort(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) bool {
	key := keyIdent(rng)
	if key == nil || len(rng.Body.List) != 1 {
		return false
	}
	stmt := rng.Body.List[0]
	// Unwrap a filtering guard: `if cond { s = append(s, k) }`.
	if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Init == nil && ifs.Else == nil && len(ifs.Body.List) == 1 {
		stmt = ifs.Body.List[0]
	}
	asg, ok := stmt.(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Tok != token.ASSIGN {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) != 2 {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	if !ok || src.Name != dst.Name {
		return false
	}
	if arg, ok := call.Args[1].(*ast.Ident); !ok || !sameObject(pass, arg, key) {
		return false
	}
	// Look for a sort of dst anywhere later in the same block.
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isSortCall(pass, call.Fun) {
				return true
			}
			if arg, ok := call.Args[0].(*ast.Ident); ok && arg.Name == dst.Name && sameObject(pass, arg, dst) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortCall recognizes sort.* and slices.Sort* selector calls.
func isSortCall(pass *analysis.Pass, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch packageOf(pass, sel) {
	case "sort", "slices":
		return true
	}
	return false
}

// orderInsensitive reports whether every statement of the loop body is
// a commutative update that cannot observe iteration order.
func orderInsensitive(rng *ast.RangeStmt) bool {
	key := keyIdent(rng)
	var ok func(ast.Stmt) bool
	ok = func(stmt ast.Stmt) bool {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			return true
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
				token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
				return true
			case token.ASSIGN:
				// m2[k] = v: writes a distinct key per iteration.
				if key == nil || len(s.Lhs) != 1 {
					return false
				}
				idx, isIdx := s.Lhs[0].(*ast.IndexExpr)
				if !isIdx {
					return false
				}
				id, isIdent := idx.Index.(*ast.Ident)
				return isIdent && id.Name == key.Name
			}
			return false
		case *ast.ExprStmt:
			// delete(m2, k): removes a distinct key per iteration.
			call, isCall := s.X.(*ast.CallExpr)
			if !isCall || len(call.Args) != 2 {
				return false
			}
			if fn, isIdent := call.Fun.(*ast.Ident); !isIdent || fn.Name != "delete" {
				return false
			}
			id, isIdent := call.Args[1].(*ast.Ident)
			return isIdent && key != nil && id.Name == key.Name
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		case *ast.IfStmt:
			if s.Init != nil {
				return false
			}
			for _, b := range s.Body.List {
				if !ok(b) {
					return false
				}
			}
			if s.Else != nil {
				els, isBlock := s.Else.(*ast.BlockStmt)
				if !isBlock {
					return false
				}
				for _, b := range els.List {
					if !ok(b) {
						return false
					}
				}
			}
			return true
		case *ast.BlockStmt:
			for _, b := range s.List {
				if !ok(b) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, stmt := range rng.Body.List {
		if !ok(stmt) {
			return false
		}
	}
	return true
}

// isBuiltin reports whether fun names the given builtin.
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sameObject reports whether two identifiers denote the same object.
func sameObject(pass *analysis.Pass, a, b *ast.Ident) bool {
	oa := pass.TypesInfo.ObjectOf(a)
	ob := pass.TypesInfo.ObjectOf(b)
	return oa != nil && oa == ob
}

// packageOf resolves the package an X.Sel selector refers to, returning
// its import path ("" when X is not a package name).
func packageOf(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pkgName.Imported().Path()
}
