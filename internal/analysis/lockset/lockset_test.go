package lockset

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"dramstacks/internal/analysis/cfg"
)

// analyzeFunc type-checks src and runs the dataflow over the function
// named fn.
func analyzeFunc(t *testing.T, src, fn string) (*Result, *cfg.Graph, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		g := cfg.New(fd.Body)
		return Analyze(g, info), g, info, fset
	}
	t.Fatalf("no func %s", fn)
	return nil, nil, nil, nil
}

// heldAtCall returns the held names before the first call whose
// rendered callee contains substr.
func heldAtCall(t *testing.T, res *Result, substr string) []string {
	t.Helper()
	for n, held := range res.Before {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && strings.Contains(id.Name+"."+sel.Sel.Name, substr) {
			return held.Names()
		}
	}
	t.Fatalf("no call matching %q", substr)
	return nil
}

const header = `package p

import "sync"

type T struct{ mu sync.Mutex }

func work()  {}
func other() {}
`

func TestStraightLine(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, header+`
func f(t *T) {
	t.mu.Lock()
	p.call()
	t.mu.Unlock()
	q.call()
}
type pt struct{}
var p, q pt
func (pt) call() {}
`, "f")
	if got := heldAtCall(t, res, "p.call"); len(got) != 1 || got[0] != "t.mu" {
		t.Fatalf("held at p.call = %v, want [t.mu]", got)
	}
	if got := heldAtCall(t, res, "q.call"); len(got) != 0 {
		t.Fatalf("held at q.call = %v, want none", got)
	}
}

func TestBranchUnlockMayHeld(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, header+`
func f(t *T, c bool) {
	t.mu.Lock()
	if c {
		t.mu.Unlock()
	}
	p.call()
}
type pt struct{}
var p pt
func (pt) call() {}
`, "f")
	// May-held: the no-unlock path still holds at the merge.
	if got := heldAtCall(t, res, "p.call"); len(got) != 1 {
		t.Fatalf("held at merge = %v, want [t.mu]", got)
	}
}

func TestBothBranchesUnlock(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, header+`
func f(t *T, c bool) {
	t.mu.Lock()
	if c {
		t.mu.Unlock()
	} else {
		t.mu.Unlock()
	}
	p.call()
}
type pt struct{}
var p pt
func (pt) call() {}
`, "f")
	if got := heldAtCall(t, res, "p.call"); len(got) != 0 {
		t.Fatalf("held after both-branch unlock = %v, want none", got)
	}
}

func TestDeferredUnlockHeldToEnd(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, header+`
func f(t *T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.call()
}
type pt struct{}
var p pt
func (pt) call() {}
`, "f")
	if got := heldAtCall(t, res, "p.call"); len(got) != 1 {
		t.Fatalf("deferred unlock must keep the lock held: %v", got)
	}
}

func TestLoopUnlockFixpoint(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, header+`
func f(t *T, n int) {
	for i := 0; i < n; i++ {
		t.mu.Lock()
		t.mu.Unlock()
	}
	p.call()
}
type pt struct{}
var p pt
func (pt) call() {}
`, "f")
	if got := heldAtCall(t, res, "p.call"); len(got) != 0 {
		t.Fatalf("balanced loop must leave nothing held: %v", got)
	}
}

func TestAcquireRecordsHeld(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, header+`
type U struct{ mu sync.Mutex }
func f(t *T, u *U) {
	t.mu.Lock()
	u.mu.Lock()
	u.mu.Unlock()
	t.mu.Unlock()
}
`, "f")
	if len(res.Acquires) != 2 {
		t.Fatalf("want 2 acquires, got %d", len(res.Acquires))
	}
	second := res.Acquires[1]
	if second.Lock.ExprKey != "u.mu" {
		t.Fatalf("second acquire = %+v", second.Lock)
	}
	if names := second.Held.Names(); len(names) != 1 || names[0] != "t.mu" {
		t.Fatalf("held before second acquire = %v, want [t.mu]", names)
	}
	if first := res.Acquires[0]; !first.Held.Empty() {
		t.Fatalf("held before first acquire = %v, want none", first.Held.Names())
	}
}

func TestRWModes(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, `package p

import "sync"

type T struct{ mu sync.RWMutex }

func f(t *T) {
	t.mu.RLock()
	t.mu.RUnlock()
	t.mu.Lock()
	p.call()
	t.mu.Unlock()
}
type pt struct{}
var p pt
func (pt) call() {}
`, "f")
	if len(res.Acquires) != 2 {
		t.Fatalf("want 2 acquires, got %d", len(res.Acquires))
	}
	if res.Acquires[0].Mode != Read || res.Acquires[1].Mode != Write {
		t.Fatalf("modes = %v, %v", res.Acquires[0].Mode, res.Acquires[1].Mode)
	}
	if got := heldAtCall(t, res, "p.call"); len(got) != 1 {
		t.Fatalf("write lock must be held at call: %v", got)
	}
}

func TestBareMutexKey(t *testing.T) {
	res, _, _, _ := analyzeFunc(t, `package p

import "sync"

var global sync.Mutex

func f() {
	global.Lock()
	global.Unlock()
}
`, "f")
	if len(res.Acquires) != 1 {
		t.Fatalf("want 1 acquire, got %d", len(res.Acquires))
	}
	if k := res.Acquires[0].Lock.ExprKey; k != "global" {
		t.Fatalf("bare mutex ExprKey = %q, want \"global\"", k)
	}
}

func TestUnreachableNodesAbsent(t *testing.T) {
	res, g, _, _ := analyzeFunc(t, header+`
func f(t *T) {
	return
	t.mu.Lock()
}
`, "f")
	_ = g
	if len(res.Acquires) != 0 {
		t.Fatalf("unreachable acquire must not be recorded: %+v", res.Acquires)
	}
}
