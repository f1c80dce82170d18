// Package errenvelope enforces the unified /v1 error contract: every
// error response of the dramstacksd HTTP surface is the JSON envelope
// {"error":{"code":…,"message":…}}, emitted through the writeError
// helper. A stray http.Error or bare WriteHeader(4xx/5xx) would hand a
// client plain text where every other path speaks the envelope,
// breaking pkg/client's APIError decoding.
//
// Within internal/service, the analyzer flags:
//
//   - any call to net/http.Error;
//   - any WriteHeader call on an http.ResponseWriter whose status is a
//     constant ≥ 400.
//
// Non-constant status codes (response recorders, proxies, the helpers
// themselves) are not flagged; writeError/writeJSON are additionally
// exempt by name since they implement the envelope.
package errenvelope

import (
	"go/ast"
	"go/constant"
	"go/types"

	"dramstacks/internal/analysis"
	"dramstacks/internal/analysis/astutil"
	"dramstacks/internal/analysis/passes/detpkg"
)

// Analyzer is the errenvelope pass.
var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc: "require the unified {\"error\":{code,message}} envelope on every /v1 error path\n\n" +
		"Handlers must emit errors through writeError, never http.Error or a bare\n" +
		"WriteHeader with a 4xx/5xx constant.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !detpkg.Match(pass.Pkg.Path(), detpkg.Service) {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "writeError" || fd.Name.Name == "writeJSON" {
				continue // the envelope implementation itself
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if astutil.IsPkgFunc(pass.TypesInfo, call, "net/http", "Error") {
			pass.Reportf(call.Pos(),
				"http.Error bypasses the unified /v1 error envelope; use writeError "+
					"(or annotate //dramvet:allow errenvelope(reason))")
			return true
		}
		sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
			return true
		}
		if !isResponseWriter(pass, sel.X) {
			return true
		}
		if code, ok := constInt(pass, call.Args[0]); ok && code >= 400 {
			pass.Reportf(call.Pos(),
				"bare WriteHeader(%d) bypasses the unified /v1 error envelope; use writeError "+
					"(or annotate //dramvet:allow errenvelope(reason))", code)
		}
		return true
	})
}

// isResponseWriter reports whether the receiver is (or embeds) an
// http.ResponseWriter.
func isResponseWriter(pass *analysis.Pass, recv ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[recv]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if astutil.IsNamed(t, "net/http", "ResponseWriter") {
		return true
	}
	// Interfaces with the ResponseWriter method set, and structs
	// embedding one (response recorders), also write headers.
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "WriteHeader" {
				return true
			}
		}
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() && astutil.IsNamed(f.Type(), "net/http", "ResponseWriter") {
				return true
			}
		}
	}
	return false
}

// constInt evaluates e as a constant integer.
func constInt(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
