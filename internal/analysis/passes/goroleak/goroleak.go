// Package goroleak flags goroutines launched in internal/service whose
// bodies have no join or cancel path: nothing reachable from the
// goroutine (through the package call graph) selects on a context Done
// channel, signals a sync.WaitGroup, closes a channel, or ranges over
// one. Such a goroutine has no bound on its lifetime — it outlives the
// request that spawned it, survives server shutdown, and accumulates
// under load. In a daemon whose tests assert deterministic shutdown,
// an unjoinable goroutine is a leak even when it happens to exit.
//
// Accepted lifecycle signals, anywhere in the goroutine's body or in a
// function it may call (in-package, via internal/analysis/callgraph):
//
//   - a call to Done() on a context.Context (the select-on-ctx.Done
//     cancellation idiom);
//   - a call to Done() or Wait() on a *sync.WaitGroup (the goroutine
//     participates in a join);
//   - a close(ch) of some channel (the goroutine signals completion);
//   - a range over a channel (the goroutine terminates when the
//     producer closes it).
//
// Goroutines whose target function is not declared in the package
// (an external call, a method value from another package) are not
// flagged — the body is invisible to a per-package vet unit, and the
// pass prefers silence to a false positive. _test.go files are exempt:
// tests routinely spawn short-lived helpers bounded by the test itself.
//
// Suppress a deliberate fire-and-forget goroutine with
// //dramvet:allow goroleak(reason) at the go statement, or on the doc
// comment of the function containing it.
package goroleak

import (
	"go/ast"
	"go/types"
	"strings"

	"dramstacks/internal/analysis"
	"dramstacks/internal/analysis/astutil"
	"dramstacks/internal/analysis/callgraph"
	"dramstacks/internal/analysis/passes/detpkg"
)

// Analyzer is the goroleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "flag goroutines in internal/service with no join or cancel path\n\n" +
		"A goroutine must select on a context Done channel, signal a WaitGroup, close a\n" +
		"channel, or range over one — somewhere in its body or its in-package callees —\n" +
		"so its lifetime is bounded by shutdown or a join.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !detpkg.Match(pass.Pkg.Path(), detpkg.Service) {
		return nil, nil
	}

	var files []*ast.File
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	g := callgraph.Build(files, pass.Pkg, pass.TypesInfo)

	// Memoized per-node signal scan (the node's own body, not nested
	// literals — those are separate nodes, credited only if reachable).
	own := make(map[*callgraph.Node]bool)
	hasOwnSignal := func(n *callgraph.Node) bool {
		if v, ok := own[n]; ok {
			return v
		}
		v := bodyHasSignal(pass.TypesInfo, n.Body())
		own[n] = v
		return v
	}

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			targets := goTargets(g, pass.TypesInfo, gs)
			if len(targets) == 0 {
				return true // body not in this package: can't see it, stay quiet
			}
			for _, t := range targets {
				if !hasLifecycle(g, t, hasOwnSignal) {
					pass.Reportf(gs.Pos(),
						"goroutine %s has no join or cancel path: nothing it can reach selects on a "+
							"context Done channel, signals a WaitGroup, closes a channel, or ranges over "+
							"one (or annotate //dramvet:allow goroleak(reason))", t.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// goTargets resolves the function a go statement launches to its
// in-package callgraph nodes.
func goTargets(g *callgraph.Graph, info *types.Info, gs *ast.GoStmt) []*callgraph.Node {
	switch fun := astutil.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		if n := g.LitNode(fun); n != nil {
			return []*callgraph.Node{n}
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return []*callgraph.Node{n}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return []*callgraph.Node{n}
			}
		}
	}
	return nil
}

// hasLifecycle reports whether any function reachable from root carries
// a lifecycle signal.
func hasLifecycle(g *callgraph.Graph, root *callgraph.Node, ownSignal func(*callgraph.Node) bool) bool {
	for _, n := range g.Reachable(root) {
		if ownSignal(n) {
			return true
		}
	}
	return false
}

// bodyHasSignal scans one function body (not nested literals) for a
// lifecycle signal.
func bodyHasSignal(info *types.Info, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if isClose(info, x) || isDoneOrJoin(info, x) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isClose matches the close builtin.
func isClose(info *types.Info, call *ast.CallExpr) bool {
	id, ok := astutil.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isDoneOrJoin matches ctx.Done(), wg.Done(), wg.Wait().
func isDoneOrJoin(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	switch sel.Sel.Name {
	case "Done":
		return isContext(tv.Type) || astutil.IsNamed(tv.Type, "sync", "WaitGroup")
	case "Wait":
		return astutil.IsNamed(tv.Type, "sync", "WaitGroup")
	}
	return false
}

// isContext matches context.Context and any named type implementing it
// (the Done() <-chan struct{} shape is what matters).
func isContext(t types.Type) bool {
	if astutil.IsNamed(t, "context", "Context") {
		return true
	}
	// Any type whose Done() returns a receive-only channel counts: a
	// fixture-local context lookalike behaves identically at runtime.
	m, _, _ := types.LookupFieldOrMethod(t, true, nil, "Done")
	fn, ok := m.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Signature()
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	ch, ok := sig.Results().At(0).Type().Underlying().(*types.Chan)
	return ok && ch.Dir() == types.RecvOnly
}
