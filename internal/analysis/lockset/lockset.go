// Package lockset is the held-lock dataflow of the lockhold pass: a
// forward may-analysis over an internal/analysis/cfg graph that
// computes, for every node of a function body, the set of
// sync.Mutex/RWMutex locks that may be held when the node executes.
//
// A lock is identified by its rendered expression, ExprKey ("s.mu"):
// two distinct receiver expressions are two locks, so a function
// locking jobA.mu then jobB.mu is not confused with a re-lock.
//
// The join is the union of held sets (may-held): a lock released on one
// branch but not another is still held at the merge. A deferred unlock
// keeps its lock in the set for the rest of the function — the lock is
// genuinely held until return.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"dramstacks/internal/analysis/astutil"
	"dramstacks/internal/analysis/cfg"
)

// Mode records how a lock is held.
type Mode uint8

const (
	Read  Mode = 1 << iota // RLock
	Write                  // Lock
)

// Lock identifies one mutex.
type Lock struct {
	ExprKey string // rendered expression, e.g. "s.mu"
}

// Set maps ExprKey → how that lock is held.
type Set map[string]Entry

// Entry is one held lock.
type Entry struct {
	Lock Lock
	Mode Mode
}

// Empty reports whether no lock is held.
func (s Set) Empty() bool { return len(s) == 0 }

// Names returns the held lock expressions, sorted.
func (s Set) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s Set) clone() Set {
	c := make(Set, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s Set) equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// join unions o into s, returning true when s changed.
func (s Set) join(o Set) bool {
	changed := false
	for k, v := range o {
		cur, ok := s[k]
		if !ok {
			s[k] = v
			changed = true
			continue
		}
		if merged := (Entry{Lock: cur.Lock, Mode: cur.Mode | v.Mode}); merged != cur {
			s[k] = merged
			changed = true
		}
	}
	return changed
}

// Acquire is one Lock/RLock site with the set held just before it.
type Acquire struct {
	Lock Lock
	Mode Mode
	Pos  token.Pos
	Held Set // held before this acquisition
}

// Result is the dataflow solution for one function.
type Result struct {
	// Before maps every CFG node to the set held when it executes.
	// Nodes in unreachable blocks are absent.
	Before map[ast.Node]Set
	// Acquires lists the lock acquisitions in source order.
	Acquires []Acquire
}

// Op classifies a mutex call expression.
type Op struct {
	Lock    Lock
	Method  string // Lock, Unlock, RLock, RUnlock
	Acquire bool
	Mode    Mode
}

// AsLockOp recognizes e as a sync.Mutex/RWMutex Lock/Unlock/RLock/
// RUnlock call and identifies the lock.
func AsLockOp(info *types.Info, e ast.Expr) (Op, bool) {
	call, ok := astutil.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return Op{}, false
	}
	sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Op{}, false
	}
	var acquire bool
	var mode Mode
	switch sel.Sel.Name {
	case "Lock":
		acquire, mode = true, Write
	case "RLock":
		acquire, mode = true, Read
	case "Unlock":
		mode = Write
	case "RUnlock":
		mode = Read
	default:
		return Op{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return Op{}, false
	}
	if !astutil.IsNamed(tv.Type, "sync", "Mutex") && !astutil.IsNamed(tv.Type, "sync", "RWMutex") {
		return Op{}, false
	}
	return Op{
		Lock:    Lock{ExprKey: ExprKey(sel.X)},
		Method:  sel.Sel.Name,
		Acquire: acquire,
		Mode:    mode,
	}, true
}

// ExprKey renders a lock expression ("s.mu") as a comparison key.
func ExprKey(e ast.Expr) string {
	switch x := astutil.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return ExprKey(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return ExprKey(x.X) + "[i]"
	default:
		return "lock"
	}
}

// Analyze runs the may-held dataflow over one function graph.
func Analyze(g *cfg.Graph, info *types.Info) *Result {
	res := &Result{Before: make(map[ast.Node]Set)}

	in := make([]Set, len(g.Blocks))
	in[g.Entry.Index] = make(Set)

	// Worklist fixpoint: ascending block order for determinism.
	dirty := make([]bool, len(g.Blocks))
	dirty[g.Entry.Index] = true
	for {
		idx := -1
		for i, d := range dirty {
			if d {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		dirty[idx] = false
		blk := g.Blocks[idx]
		out := transferBlock(blk, in[idx].clone(), info, nil)
		for _, succ := range blk.Succs {
			si := succ.Index
			if in[si] == nil {
				in[si] = out.clone()
				dirty[si] = true
			} else if in[si].join(out) {
				dirty[si] = true
			}
		}
	}

	// Final pass with stable in-states: record per-node sets and
	// acquisitions exactly once each.
	for _, blk := range g.Blocks {
		if in[blk.Index] == nil {
			continue // unreachable
		}
		transferBlock(blk, in[blk.Index].clone(), info, res)
	}
	sort.Slice(res.Acquires, func(i, j int) bool { return res.Acquires[i].Pos < res.Acquires[j].Pos })
	return res
}

// transferBlock applies the block's nodes to state. When res is
// non-nil, Before sets and Acquires are recorded.
func transferBlock(blk *cfg.Block, state Set, info *types.Info, res *Result) Set {
	for _, n := range blk.Nodes {
		if res != nil {
			res.Before[n] = state.clone()
		}
		switch s := n.(type) {
		case *ast.ExprStmt:
			applyOp(info, s.X, state, res)
		case *ast.DeferStmt:
			// A deferred unlock runs at return: the lock stays held for
			// the rest of the function, so the state is unchanged. A
			// deferred acquire is nonsensical; ignore it too.
		}
	}
	return state
}

func applyOp(info *types.Info, e ast.Expr, state Set, res *Result) {
	op, ok := AsLockOp(info, e)
	if !ok {
		return
	}
	key := op.Lock.ExprKey
	if op.Acquire {
		if res != nil {
			res.Acquires = append(res.Acquires, Acquire{
				Lock: op.Lock, Mode: op.Mode, Pos: e.Pos(), Held: state.clone(),
			})
		}
		cur := state[key]
		state[key] = Entry{Lock: op.Lock, Mode: cur.Mode | op.Mode}
		return
	}
	// Release. An RUnlock only clears the read bit; dropping the entry
	// entirely when no bits remain.
	cur, held := state[key]
	if !held {
		return
	}
	if rest := cur.Mode &^ op.Mode; rest != 0 {
		state[key] = Entry{Lock: cur.Lock, Mode: rest}
	} else {
		delete(state, key)
	}
}
