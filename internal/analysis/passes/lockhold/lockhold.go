// Package lockhold enforces the dramstacksd locking discipline in code
// instead of prose: an internal/service mutex guards in-memory state
// only, so no slow or blocking operation and no other mutex may be
// taken while one is held. Holding a lock across an fsync, a journal
// append, a simulation, or a blocking channel operation would stall
// every request that touches the same lock — the exact contention the
// durable store's in-memory mirror was built to avoid. And critical
// sections that never nest cannot deadlock against each other, whatever
// order two goroutines take them in.
//
// The analyzer is flow-sensitive: each function body is lowered to a
// control-flow graph (internal/analysis/cfg) and a forward may-held
// dataflow (internal/analysis/lockset) computes, per path, which
// sync.Mutex/RWMutex locks may be held at every statement. Flagged
// while any lock may be held:
//
//   - exp.RunSpec calls (a whole simulation under a lock);
//   - (*os.File).Write / Sync (journal appends and fsyncs);
//   - calls to *Store journal methods (append, AppendJob, AppendResult,
//     AppendSweep, Checkpoint);
//   - channel sends and receives, and select statements without a
//     default clause;
//   - a second Lock of a mutex that may already be held — the
//     conditional double-Lock that self-deadlocks on the path where
//     both acquisitions execute (RLock is only flagged over a held
//     write lock);
//   - an acquisition of any other mutex (the no-nesting rule), either
//     directly or through a call to an in-package function that may
//     lock, itself or transitively — a fixpoint over the package call
//     graph (internal/analysis/callgraph).
//
// Per-path tracking is what makes the pass precise: a lock released on
// one branch stays charged on the branch that still holds it, a
// deferred unlock holds to function end but not past an earlier return,
// and an unlock inside a loop or switch arm propagates out — the shapes
// the earlier statement-order walker over- or under-approximated.
//
// Goroutine bodies run without the caller's locks: a `go` statement's
// function literal is analyzed as its own function with an empty held
// set, and launching a goroutine that locks does not make the launcher
// a function that locks. The one deliberate exception — the store
// serializing journal appends under its own mutex — is acknowledged
// with //dramvet:allow lockhold(...) at the definition.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dramstacks/internal/analysis"
	"dramstacks/internal/analysis/astutil"
	"dramstacks/internal/analysis/callgraph"
	"dramstacks/internal/analysis/cfg"
	"dramstacks/internal/analysis/lockset"
	"dramstacks/internal/analysis/passes/detpkg"
)

// Analyzer is the lockhold pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "forbid blocking work (fsync, journal appends, RunSpec, channel ops) and a second mutex under a service mutex\n\n" +
		"internal/service locks guard in-memory state only; I/O, simulations and other locks\n" +
		"must be taken outside the critical section (the durable store's mirror exists for exactly this).\n" +
		"Flow-sensitive: held-lock sets are tracked per control-flow path, including\n" +
		"conditional unlocks, deferred unlocks, and double-Lock self-deadlocks; calls are\n" +
		"followed through the package call graph to find callees that may lock.",
	Run: run,
}

// storeMethods are the *Store journal entry points that fsync.
var storeMethods = map[string]bool{
	"append":       true,
	"AppendJob":    true,
	"AppendResult": true,
	"AppendSweep":  true,
	"Checkpoint":   true,
}

// checker carries one package's interprocedural facts into the
// per-node checks.
type checker struct {
	pass *analysis.Pass
	// locking maps each call site to an in-package callee that may
	// acquire a mutex.
	locking map[*ast.CallExpr]*callgraph.Node
}

func run(pass *analysis.Pass) (any, error) {
	if !detpkg.Match(pass.Pkg.Path(), detpkg.Service) {
		return nil, nil
	}
	// Every declaration and every function literal is a node, analyzed
	// as its own function: a goroutine or stored closure starts with no
	// locks held, whatever its lexical context holds.
	g := callgraph.Build(pass.Files, pass.Pkg, pass.TypesInfo)
	type flow struct {
		graph *cfg.Graph
		res   *lockset.Result
	}
	flows := make(map[*callgraph.Node]flow)
	locks := make(map[*callgraph.Node]bool)
	for _, n := range g.Nodes {
		if body := n.Body(); body != nil {
			graph := cfg.New(body)
			res := lockset.Analyze(graph, pass.TypesInfo)
			flows[n] = flow{graph, res}
			locks[n] = len(res.Acquires) > 0
		}
	}
	c := &checker{pass: pass, locking: lockingCalls(pass.Files, g, locks)}
	for _, n := range g.Nodes {
		if f, ok := flows[n]; ok {
			c.checkFunc(f.graph, f.res)
		}
	}
	return nil, nil
}

// lockingCalls finds the call sites whose in-package callee may acquire
// a mutex, itself or through its own callees. locks starts as the
// functions that acquire one themselves and grows to a fixpoint over
// the call graph, so recursion terminates. A go statement's call is no
// such site — the goroutine takes its locks on its own stack.
func lockingCalls(files []*ast.File, g *callgraph.Graph, locks map[*callgraph.Node]bool) map[*ast.CallExpr]*callgraph.Node {
	spawned := make(map[*ast.CallExpr]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				spawned[gs.Call] = true
			}
			return true
		})
	}
	lockingCallee := func(call *callgraph.Call) *callgraph.Node {
		if !spawned[call.Site] {
			for _, callee := range call.Callees {
				if locks[callee] {
					return callee
				}
			}
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			for _, call := range n.Calls {
				if !locks[n] && lockingCallee(call) != nil {
					locks[n], changed = true, true
				}
			}
		}
	}
	sites := make(map[*ast.CallExpr]*callgraph.Node)
	for _, n := range g.Nodes {
		for _, call := range n.Calls {
			if callee := lockingCallee(call); callee != nil {
				sites[call.Site] = callee
			}
		}
	}
	return sites
}

// checkFunc flags, in one function's solved dataflow, acquisitions
// under a held lock and blocking operations on nodes where a lock may
// be held.
func (c *checker) checkFunc(g *cfg.Graph, res *lockset.Result) {
	for _, acq := range res.Acquires {
		verb := "Lock"
		if acq.Mode == lockset.Read {
			verb = "RLock"
		}
		// Double-Lock: the same lock may already be held on some path
		// into it (RLock over RLock is shared, legal).
		if prev, held := acq.Held[acq.Lock.ExprKey]; held && (acq.Mode == lockset.Write || prev.Mode&lockset.Write != 0) {
			c.pass.Reportf(acq.Pos,
				"%s.%s while %s is already held: the path holding it deadlocks here "+
					"(or annotate //dramvet:allow lockhold(reason))",
				acq.Lock.ExprKey, verb, acq.Lock.ExprKey)
		}
		for _, name := range acq.Held.Names() {
			if name != acq.Lock.ExprKey {
				c.pass.Reportf(acq.Pos,
					"%s.%s while %s is held: service mutexes must never nest "+
						"(or annotate //dramvet:allow lockhold(reason))", acq.Lock.ExprKey, verb, name)
				break
			}
		}
	}

	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			held, reachable := res.Before[n]
			if !reachable || held.Empty() {
				continue
			}
			c.checkNode(n, held)
		}
	}
}

// checkNode flags blocking operations in one CFG node executed while
// locks are held.
func (c *checker) checkNode(n ast.Node, held lockset.Set) {
	switch s := n.(type) {
	case *ast.SendStmt:
		c.pass.Reportf(s.Pos(),
			"channel send while %s is held: blocking operations must not run under a "+
				"service mutex (or annotate //dramvet:allow lockhold(reason))", heldName(held))
		return
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			c.pass.Reportf(s.Pos(),
				"blocking select while %s is held: blocking operations must not run under a "+
					"service mutex (or annotate //dramvet:allow lockhold(reason))", heldName(held))
		}
		// Clause bodies are separate CFG blocks; nothing more here.
		return
	case *ast.ExprStmt:
		if _, ok := lockset.AsLockOp(c.pass.TypesInfo, s.X); ok {
			return // the lock op itself; reported with the acquisitions
		}
	case *ast.GoStmt:
		// A goroutine body runs without the caller's locks, and its
		// literal is analyzed separately. The call's argument
		// expressions do evaluate here, though.
		for _, arg := range s.Call.Args {
			c.checkExpr(arg, held)
		}
		return
	}
	c.checkExpr(n, held)
}

// checkExpr flags blocking operations syntactically inside n: receives,
// RunSpec, file writes/fsyncs, store appends, calls that may lock.
// Function literals are skipped (their bodies run elsewhere and are
// analyzed separately).
func (c *checker) checkExpr(n ast.Node, held lockset.Set) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				c.pass.Reportf(e.Pos(),
					"channel receive while %s is held: blocking operations must not run under "+
						"a service mutex (or annotate //dramvet:allow lockhold(reason))", heldName(held))
			}
		case *ast.CallExpr:
			c.checkCall(e, held)
		}
		return true
	})
}

// isRunSpec matches exp.RunSpec by resolved function object: package
// path ending in "exp" (the real tree's dramstacks/internal/exp, or a
// fixture's local exp package) and name RunSpec.
func isRunSpec(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "RunSpec" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "exp" || strings.HasSuffix(p, "/exp")
}

func (c *checker) checkCall(call *ast.CallExpr, held lockset.Set) {
	pass := c.pass
	if callee := c.locking[call]; callee != nil {
		pass.Reportf(call.Pos(),
			"%s may lock a mutex and is called while %s is held: service mutexes must never nest "+
				"(or annotate //dramvet:allow lockhold(reason))", callee.Name(), heldName(held))
	}
	if isRunSpec(pass, call) {
		pass.Reportf(call.Pos(),
			"exp.RunSpec while %s is held: a simulation must never run under a service mutex "+
				"(or annotate //dramvet:allow lockhold(reason))", heldName(held))
		return
	}
	sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recvType := func() types.Type {
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return nil
		}
		return tv.Type
	}
	switch {
	case (sel.Sel.Name == "Sync" || sel.Sel.Name == "Write") && recvType() != nil && astutil.IsNamed(recvType(), "os", "File"):
		pass.Reportf(call.Pos(),
			"(*os.File).%s while %s is held: journal I/O must not run under a service mutex "+
				"(or annotate //dramvet:allow lockhold(reason))", sel.Sel.Name, heldName(held))
	case storeMethods[sel.Sel.Name] && recvType() != nil && isStore(recvType()):
		pass.Reportf(call.Pos(),
			"store %s (journal append + fsync) while %s is held: persist outside the critical "+
				"section (or annotate //dramvet:allow lockhold(reason))", sel.Sel.Name, heldName(held))
	}
}

// isStore matches the package's durable store type by name, so the
// analyzer works both on internal/service and on its test fixtures.
func isStore(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Store"
}

// heldName names one held lock for the diagnostic (sorted for
// determinism when several are held).
func heldName(held lockset.Set) string {
	names := held.Names()
	if len(names) == 0 {
		return "a lock"
	}
	return names[0]
}
