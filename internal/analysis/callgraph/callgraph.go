// Package callgraph builds a conservative static call graph over one
// type-checked package, for the interprocedural dramvet passes
// (lockhold, goroleak). It is stdlib-only, like the rest of
// internal/analysis.
//
// Nodes are the package's function and method declarations (keyed by
// their *types.Func object) plus its function literals. Call edges are
// resolved through go/types:
//
//   - direct calls to package-level functions and concrete methods
//     resolve to their declaration;
//   - calls through an interface method resolve, type-based, to every
//     method declared in the package whose receiver type implements the
//     interface — the conservative over-approximation a static graph
//     needs;
//   - calls to functions outside the package have no body here and
//     produce no edge (their effects are invisible to the passes, which
//     is the documented limitation of a per-package vet unit).
//
// Function literals are nodes too, and a call site inside a literal
// belongs to the literal, not to the enclosing declaration — a
// goroutine body `go func() {...}()` is its own function.
package callgraph

import (
	"go/ast"
	"go/types"
)

// Node is one function with a body: a declaration or a literal.
type Node struct {
	// Func is the declared object; nil for a function literal.
	Func *types.Func
	// Decl / Lit locate the source; exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Calls are the call sites lexically inside this function (not
	// inside nested literals).
	Calls []*Call
}

// Name renders the node for diagnostics: "(*Server).worker",
// "trustedResult", or "func literal". Package qualifiers are dropped —
// diagnostics are always about the package under analysis.
func (n *Node) Name() string {
	if n.Func == nil {
		return "func literal"
	}
	if recv := n.Func.Signature().Recv(); recv != nil {
		unqualified := func(*types.Package) string { return "" }
		return "(" + types.TypeString(recv.Type(), unqualified) + ")." + n.Func.Name()
	}
	return n.Func.Name()
}

// Body returns the function body (may be nil for a bodyless decl).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Call is one call site with its possible in-package targets.
type Call struct {
	Site *ast.CallExpr
	// Callees are the possible targets that have bodies in this
	// package; empty for calls that only target external code.
	Callees []*Node
}

// Graph is the package call graph.
type Graph struct {
	// Nodes in source order (declarations first, then literals), so
	// iteration is deterministic.
	Nodes []*Node

	byFunc map[*types.Func]*Node
	byLit  *litMap
}

type litMap struct{ m map[*ast.FuncLit]*Node }

// NodeOf returns the node of a declared function object, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// LitNode returns the node of a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit.m[lit] }

// Build constructs the call graph of one package.
func Build(files []*ast.File, pkg *types.Package, info *types.Info) *Graph {
	g := &Graph{
		byFunc: make(map[*types.Func]*Node),
		byLit:  &litMap{m: make(map[*ast.FuncLit]*Node)},
	}

	// Pass 1: create nodes for every declaration and literal.
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			n := &Node{Func: fn, Decl: fd}
			g.Nodes = append(g.Nodes, n)
			if fn != nil {
				g.byFunc[fn] = n
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				node := &Node{Lit: lit}
				g.Nodes = append(g.Nodes, node)
				g.byLit.m[lit] = node
			}
			return true
		})
	}

	// Pass 2: resolve call sites per owning function.
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		walkOwn(body, func(call *ast.CallExpr) {
			c := &Call{Site: call, Callees: g.resolve(call, pkg, info)}
			n.Calls = append(n.Calls, c)
		})
	}
	return g
}

// walkOwn visits every call expression lexically inside body, without
// descending into nested function literals (their calls belong to the
// literal's own node). The literal expression itself is still visited,
// so an immediately-invoked literal resolves at the call site.
func walkOwn(body *ast.BlockStmt, visit func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(x)
		}
		return true
	})
}

// resolve finds the possible in-package targets of one call.
func (g *Graph) resolve(call *ast.CallExpr, pkg *types.Package, info *types.Info) []*Node {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if n := g.byFunc[fn]; n != nil {
				return []*Node{n}
			}
		}
	case *ast.SelectorExpr:
		obj := info.Uses[fun.Sel]
		fn, ok := obj.(*types.Func)
		if !ok {
			break
		}
		if n := g.byFunc[fn]; n != nil {
			// Concrete method or package-qualified function declared here.
			return []*Node{n}
		}
		// Interface dispatch: fn is the interface's method object. Edge
		// to every in-package concrete method that could be behind it.
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			return g.implementers(recv.Type(), fn.Name(), pkg)
		}
	case *ast.FuncLit:
		if n := g.byLit.m[fun]; n != nil {
			return []*Node{n}
		}
	}
	return nil
}

// implementers returns the nodes of every method named name declared in
// pkg whose receiver type implements iface.
func (g *Graph) implementers(iface types.Type, name string, pkg *types.Package) []*Node {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, n := range g.Nodes {
		if n.Func == nil || n.Func.Name() != name {
			continue
		}
		recv := n.Func.Signature().Recv()
		if recv == nil {
			continue
		}
		rt := recv.Type()
		if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
			out = append(out, n)
		}
	}
	return out
}

// Reachable returns root plus every node transitively callable from it,
// in deterministic (source) order.
func (g *Graph) Reachable(root *Node) []*Node {
	seen := map[*Node]bool{root: true}
	work := []*Node{root}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, c := range n.Calls {
			for _, callee := range c.Callees {
				if !seen[callee] {
					seen[callee] = true
					work = append(work, callee)
				}
			}
		}
	}
	var out []*Node
	for _, n := range g.Nodes {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}
